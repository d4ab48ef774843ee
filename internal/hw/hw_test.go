package hw

import (
	"strings"
	"testing"
	"time"
)

func TestTargetsOrder(t *testing.T) {
	ts := Targets()
	if len(ts) != int(NumTargets) {
		t.Fatalf("targets = %d", len(ts))
	}
	if ts[0] != GTX1070Ti || ts[1] != I7_7800X || ts[2] != Orin15W {
		t.Fatal("target order does not match Table 1 columns")
	}
	names := map[Target]string{GTX1070Ti: "1070 Ti", I7_7800X: "i7-7800", Orin15W: "Orin 15W"}
	for tg, want := range names {
		if tg.String() != want {
			t.Errorf("%v", tg)
		}
	}
}

func TestParseTarget(t *testing.T) {
	for name, want := range map[string]Target{
		"1070ti": GTX1070Ti, "GTX1070Ti": GTX1070Ti, "1070 Ti": GTX1070Ti,
		"i7": I7_7800X, "i7-7800": I7_7800X, "I7_7800X": I7_7800X,
		"orin": Orin15W, " Orin 15W ": Orin15W, "orin15w": Orin15W, "": Orin15W,
	} {
		got, err := ParseTarget(name)
		if err != nil || got != want {
			t.Errorf("ParseTarget(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Every target's display name parses back to it.
	for _, tg := range Targets() {
		if got, err := ParseTarget(tg.String()); err != nil || got != tg {
			t.Errorf("ParseTarget(%q) = %v, %v", tg.String(), got, err)
		}
	}
	if _, err := ParseTarget("tpu"); err == nil || !strings.Contains(err.Error(), "want 1070ti, i7, or orin") {
		t.Errorf("unknown target: err = %v", err)
	}
}

func TestContextEngineCheap(t *testing.T) {
	// The engine must cost well under the cheapest application per tile
	// (App 1 on the 1070 Ti: 178.2 ms), or elision could not pay off.
	for _, tg := range Targets() {
		if c := tg.ContextEngineMsPerTile(); c <= 0 || c >= 178.2/4 {
			t.Errorf("%v: engine cost %v ms", tg, c)
		}
	}
}

func TestFrameTimeArithmetic(t *testing.T) {
	// 10 tiles at 100 ms, no elision, no engine: 1 s.
	if got := FrameTime(100, 10, 0, false, Orin15W); got != time.Second {
		t.Fatalf("frame time = %v", got)
	}
	// Full elision leaves only the engine cost.
	got := FrameTime(100, 10, 1, true, Orin15W)
	want := time.Duration(10*Orin15W.ContextEngineMsPerTile()) * time.Millisecond
	if got != want {
		t.Fatalf("elided frame time = %v, want %v", got, want)
	}
	// Half elision halves the model term.
	got = FrameTime(100, 10, 0.5, false, Orin15W)
	if got != 500*time.Millisecond {
		t.Fatalf("half-elided = %v", got)
	}
}

func TestDirectFrameTimePaperScale(t *testing.T) {
	// App 7 on the Orin at 121 tiles: 2040 ms x 121 ~ 247 s — the Figure 9
	// direct-deploy regime, far over the ~23 s deadline.
	got := DirectFrameTime(2040, 121, Orin15W)
	if got < 240*time.Second || got > 255*time.Second {
		t.Fatalf("App7/Orin direct frame time = %v", got)
	}
}

func TestFrameTimePanics(t *testing.T) {
	for _, f := range []func(){
		func() { FrameTime(100, 0, 0, false, Orin15W) },
		func() { FrameTime(100, 10, -0.1, false, Orin15W) },
		func() { FrameTime(100, 10, 1.1, false, Orin15W) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}
