package main

import (
	"context"
	"testing"
	"time"

	"kodan"
	"kodan/internal/telemetry"
)

// tinyMission is a mission sizing small enough for tests.
var tinyMission = missionSizing{
	sysSeed: 2023, frames: 12, tileRes: 8,
	tilings: []kodan.Tiling{{PerSide: 3}},
	app:     4, target: kodan.Orin15W,
	sats: 2, simDays: 1, missionDays: 1, captureFrames: 2,
}

// tracedMissionJob runs one traced mission job and attributes it.
func tracedMissionJob(t *testing.T, s *missionSetup, delay map[string]time.Duration) attribution {
	t.Helper()
	tr := newTracing(true)
	tr.delay = delay
	ctx, root := telemetry.StartSpan(tr.attach(context.Background()), jobSpan)
	_, _, err := missionJob(ctx, tr, tinyMission, s, newMissionInputs(7, tinyMission), &checks{})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr.attribute()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// A known delay added around one layer call in the traced path must be
// attributed to that layer, not to its neighbours, and the named layers
// must still cover the job.
func TestAttributionSelfTest(t *testing.T) {
	s, err := newMissionSetup(context.Background(), tinyMission)
	if err != nil {
		t.Fatal(err)
	}
	// The delay dwarfs the run-to-run noise of the layers' own work, which
	// is large under the race detector.
	const delay = 200 * time.Millisecond
	plans := float64(2 * len(kodan.Targets()) * len(bufferFrames))
	injected := plans * delay.Seconds()

	base := tracedMissionJob(t, s, nil)
	slow := tracedMissionJob(t, s, map[string]time.Duration{"kodan.PlanHybrid": delay})

	if got := slow.Self["planner.plan"] - base.Self["planner.plan"]; got < 0.75*injected {
		t.Errorf("planner.plan self time grew %.3fs, want >= %.3fs of the injected %.3fs", got, 0.75*injected, injected)
	}
	for _, neighbour := range []string{"sim.drain", "sim.run", "mission.run", "dataset.capture", "deploy.frame"} {
		if got := slow.Self[neighbour] - base.Self[neighbour]; got > 0.25*injected {
			t.Errorf("%s self time grew %.3fs under a delay injected into planner.plan", neighbour, got)
		}
	}
	if grew := slow.Unattributed - base.Unattributed; grew > 0.25*injected {
		t.Errorf("unattributed time grew %.3fs under the injected delay", grew)
	}
	for name, a := range map[string]attribution{"base": base, "slow": slow} {
		if c := a.coverage(); c < 0.9 {
			t.Errorf("%s job: named layers cover %.3f of the wall, want >= 0.9", name, c)
		}
	}
}

// Self time excludes child spans: a parent whose whole duration is one
// child has (almost) no self time, and the child's layer gets it.
func TestAttributeSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracing(true)
	ctx, root := telemetry.StartSpan(tr.attach(context.Background()), jobSpan)
	tr.call(ctx, "sim.RunCtx", func(ctx context.Context) error {
		return tr.call(ctx, "mission.Run", func(context.Context) error {
			time.Sleep(30 * time.Millisecond)
			return nil
		})
	})
	root.End()
	a, err := tr.attribute()
	if err != nil {
		t.Fatal(err)
	}
	if a.Self["mission.run"] < 0.029 {
		t.Errorf("mission.run self %.4fs, want the 30ms sleep", a.Self["mission.run"])
	}
	if a.Self["sim.run"] > 0.005 {
		t.Errorf("sim.run self %.4fs, want ~0: its time belongs to its child", a.Self["sim.run"])
	}
	if c := a.coverage(); c < 0.95 {
		t.Errorf("coverage %.3f, want ~1", c)
	}
}
