// Package kodan is a from-scratch reproduction of "Kodan: Addressing the
// Computational Bottleneck in Space" (ASPLOS 2023): an orbital edge
// computing (OEC) system that maximizes the data value density (DVD) of a
// saturated satellite downlink under the computational limits of satellite
// hardware.
//
// The library has two halves, mirroring the paper's Figure 7:
//
//   - A one-time transformation step (System.TransformVariantCtx): a
//     representative dataset is clustered into geospatial contexts, a
//     context engine is trained to recognize them at runtime,
//     context-specialized models are trained and measured at several frame
//     tilings, and a selection logic is generated for a concrete deployment
//     (hardware target, frame deadline, downlink capacity) by sweeping
//     tilings and per-context actions.
//
//   - An on-orbit runtime (Application.Runtime): for every captured frame,
//     tiles are classified by the context engine and then discarded,
//     downlinked raw, or filtered by the chosen specialized model, with
//     results queued for the next ground-station contact.
//
// Everything the paper's evaluation depends on is implemented in this
// module: a cote-style orbital/ground-segment simulator (Mission), a
// synthetic Sentinel-like dataset, a micro neural-network stack, k-means
// context clustering, the seven Table 1 applications, and the bent-pipe
// and direct-deploy baselines. See DESIGN.md for the substitution map and
// EXPERIMENTS.md for paper-versus-measured results.
//
// # The reference mission
//
// A Mission is the one place a deployment is derived from the orbital
// simulation: MissionOf reads the frame deadline, capture rate, frame
// size, downlink capacity fraction and contact cadence off a sim.Result
// (LandsatMission and SimulateMission simulate the reference mission and
// call it). Mission.Deployment turns it into a selection-logic
// environment for one hardware target, and Mission.HybridEnv into the
// hybrid planner's environment (the default costs, a 64-frame deferral
// buffer). DefaultTransformConfig sizes the transformation at
// the reference scale; DemoTransformConfig is the demo scale the examples
// and CLIs run in seconds.
//
// # Quick start
//
//	ctx := context.Background()
//	sys, _ := kodan.NewSystemCtx(ctx, kodan.DemoTransformConfig(42))
//	mission, _ := kodan.LandsatMission(kodan.ReferenceEpoch)
//	app, _ := sys.TransformVariantCtx(ctx, 4, false) // Table 1's App 4, float
//	logic, est := app.SelectionLogic(mission.Deployment(kodan.Orin15W))
//	fmt.Println(logic.Tiling, est.DVD)
package kodan

import (
	"context"
	"fmt"
	"io"
	"time"

	"kodan/internal/app"
	"kodan/internal/bundle"
	"kodan/internal/core"
	"kodan/internal/ctxengine"
	"kodan/internal/deploy"
	"kodan/internal/hw"
	"kodan/internal/imagery"
	"kodan/internal/planner"
	"kodan/internal/policy"
	"kodan/internal/sim"
	"kodan/internal/tiling"
	"kodan/internal/value"
	"kodan/internal/xrand"
)

// Re-exported identities, so callers can speak the paper's vocabulary
// without importing internal packages.
type (
	// Target is a hardware deployment target (Table 1 columns).
	Target = hw.Target
	// Tiling is a frame tile layout.
	Tiling = tiling.Tiling
	// Action is a per-context selection-logic decision.
	Action = policy.Action
	// Selection is a generated selection logic.
	Selection = policy.Selection
	// Estimate is the analytic evaluation of a selection.
	Estimate = policy.Estimate
	// Ledger is downlink value accounting.
	Ledger = value.Ledger
	// Architecture describes one of the seven applications.
	Architecture = app.Architecture
	// Runtime is the on-orbit runtime.
	Runtime = deploy.Runtime
	// FrameOutcome is the runtime's per-frame result.
	FrameOutcome = deploy.FrameOutcome
	// Tile is a rendered image tile.
	Tile = imagery.Tile
	// ContextStats summarizes one generated context.
	ContextStats = ctxengine.Stats
)

// Hardware targets.
const (
	GTX1070Ti = hw.GTX1070Ti
	I7_7800X  = hw.I7_7800X
	Orin15W   = hw.Orin15W
)

// Selection-logic actions. Deferred never comes out of the selection-logic
// optimizer; it marks tiles the hybrid planner buffers for later contact
// windows and ground processing.
const (
	Discard     = policy.Discard
	Downlink    = policy.Downlink
	Specialized = policy.Specialized
	Merged      = policy.Merged
	Generic     = policy.Generic
	Deferred    = policy.Deferred
)

// Hybrid space-ground planning (internal/planner) identities.
type (
	// Disposition is a per-context placement decision of the hybrid
	// planner.
	Disposition = planner.Disposition
	// HybridPlan is a hybrid execution plan: the base selection logic plus
	// per-context placements and their accounting.
	HybridPlan = planner.Plan
	// PlannerCosts prices the hybrid placements in one currency.
	PlannerCosts = planner.Costs
	// PlannerEnv is the hybrid planner's view of the deployment: costs,
	// buffer, and contact cadence.
	PlannerEnv = planner.Env
)

// Hybrid placements.
const (
	PlaceOnboard     = planner.Onboard
	PlaceDownlinkNow = planner.DownlinkNow
	PlaceDefer       = planner.Defer
	PlaceDrop        = planner.Drop
)

// Targets returns the paper's hardware targets in Table 1 order.
func Targets() []Target { return hw.Targets() }

// Applications returns the seven Table 1 applications.
func Applications() []Architecture { return app.Apps() }

// PaperTilings returns the tile counts evaluated in the paper (121, 36,
// 16, 9 tiles per frame).
func PaperTilings() []Tiling { return tiling.PaperTilings() }

// TransformConfig sizes the one-time transformation step.
type TransformConfig = core.Config

// DefaultTransformConfig returns the standard transformation sizing with
// the given seed.
func DefaultTransformConfig(seed uint64) TransformConfig {
	return core.DefaultConfig(seed)
}

// DemoTransformConfig returns the demo-scale transformation sizing with
// the given seed: 60 frames of 16-pixel tiles at two tilings (9 and 121
// tiles per frame), so a transformation takes seconds rather than minutes.
// The examples, the CLIs and the quick experiment size all use it.
func DemoTransformConfig(seed uint64) TransformConfig {
	cfg := core.DefaultConfig(seed)
	cfg.Frames = 60
	cfg.TileRes = 16
	cfg.Tilings = []Tiling{{PerSide: 3}, {PerSide: 11}}
	return cfg
}

// Deployment describes the target satellite for selection-logic
// generation: hardware, frame deadline, and per-frame downlink capacity.
type Deployment = core.Deployment

// System owns the transformation workspace: the representative dataset at
// every candidate tiling plus the contexts and context engine, shared
// across applications.
type System struct {
	ws *core.Workspace
}

// NewSystemCtx renders the representative dataset and builds contexts.
// ctx is checked between the expensive build stages (per-tiling dataset
// renders, clustering, engine training epochs) and ctx.Err() is returned
// promptly once the context is done.
func NewSystemCtx(ctx context.Context, cfg TransformConfig) (*System, error) {
	ws, err := core.NewWorkspaceCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &System{ws: ws}, nil
}

// Contexts returns the generated context statistics.
func (s *System) Contexts() []ContextStats { return s.ws.Ctx.Stats }

// ContextCount returns the number of generated contexts.
func (s *System) ContextCount() int { return s.ws.Ctx.K }

// TransformVariantCtx runs the one-time transformation for the application
// with the given 1-based Table 1 index. ctx is checked between tilings,
// model trainings, and training epochs, so a cancelled transform returns
// ctx.Err() promptly instead of running to completion. Completed
// transforms depend on the seed alone, never on ctx.
//
// With quantized set, every trained model also derives its int8 twin and
// all suite predictions — including the quality measurement the selection
// logic prices — run through the quantized hot path. Training itself stays
// float and consumes the identical random stream, so the float variant of
// the same System is unaffected.
//
// Concurrent calls on one System are safe: the workspace's datasets and
// context engine are read-only after NewSystemCtx, and each (application,
// tiling) derives its randomness from the seed alone.
func (s *System) TransformVariantCtx(ctx context.Context, appIndex int, quantized bool) (*Application, error) {
	if appIndex < 1 || appIndex > len(app.Apps()) {
		return nil, fmt.Errorf("kodan: no application %d", appIndex)
	}
	art, err := s.ws.WithQuantized(quantized).TransformAppCtx(ctx, app.App(appIndex))
	if err != nil {
		return nil, err
	}
	return &Application{art: art}, nil
}

// Application is a transformed application: trained models and measured
// profiles, ready for selection-logic generation.
type Application struct {
	art *core.Artifacts
}

// Arch returns the application's architecture.
func (a *Application) Arch() Architecture { return a.art.Arch }

// SelectionLogic generates the deployment's selection logic. The logic
// is generated once per deployment and reused by every later call with
// the same deployment; the returned Selection is the caller's own copy.
func (a *Application) SelectionLogic(d Deployment) (Selection, Estimate) {
	return a.art.SelectionLogic(d)
}

// MemoizedSelections returns how many deployments' selection logic the
// application holds; a fixed bound caps it whatever deployments callers
// ask for.
func (a *Application) MemoizedSelections() int { return a.art.MemoizedSelections() }

// PlanHybrid takes the deployment's selection logic, then re-places each
// context among on-board execution, immediate raw downlink, deferred
// ground processing, and drop under env's cost model (see
// internal/planner). The selection logic is generated once per
// deployment, as SelectionLogic's is, and the plan starts from its own
// copy of it. The selection-logic half of env is always derived from d;
// only the bus, costs, buffer, and contact cadence are read from env
// (Mission.HybridEnv supplies reference values).
func (a *Application) PlanHybrid(d Deployment, env PlannerEnv) (HybridPlan, error) {
	sel, _ := a.art.SelectionLogic(d)
	prof, err := a.art.Profile(sel.Tiling)
	if err != nil {
		return HybridPlan{}, err
	}
	env.Policy = d.Env(a.art.Arch)
	return planner.DecideCtx(context.Background(), prof, sel, env)
}

// BentPipe evaluates the bent-pipe baseline in the same environment.
func (a *Application) BentPipe(d Deployment) Estimate { return a.art.BentPipe(d) }

// DirectDeploy evaluates prior OEC work's direct deployment at the given
// tiling (the reference model on every tile, no context engine).
func (a *Application) DirectDeploy(d Deployment, tl Tiling) (Estimate, error) {
	return a.art.DirectDeploy(d, tl)
}

// Evaluate scores an arbitrary selection in a deployment.
func (a *Application) Evaluate(sel Selection, d Deployment) (Estimate, error) {
	prof, err := a.art.Profile(sel.Tiling)
	if err != nil {
		return Estimate{}, err
	}
	return policy.Evaluate(sel, prof, d.Env(a.art.Arch)), nil
}

// Runtime wires the application into an on-orbit runtime. frameBits is the
// raw downlink size of one frame (see Mission.FrameBits for the Landsat
// payload).
func (a *Application) Runtime(sel Selection, target Target, frameBits float64) (*Runtime, error) {
	return a.art.Runtime(sel, target, frameBits)
}

// Tilings returns the candidate tilings the application was profiled at,
// in workspace sweep order.
func (a *Application) Tilings() []Tiling {
	out := make([]Tiling, len(a.art.Profiles))
	for i, p := range a.art.Profiles {
		out[i] = p.Tiling
	}
	return out
}

// ProfileFor returns the measured per-context profile at one tiling, for
// advanced uses such as the time-resolved mission simulator
// (internal/mission) or custom policy evaluation.
func (a *Application) ProfileFor(tl Tiling) (policy.TilingProfile, error) {
	return a.art.Profile(tl)
}

// ContextStatsList returns the context inventory the application was
// specialized against.
func (a *Application) ContextStatsList() []ContextStats {
	return a.art.Ctx.Stats
}

// ExportBundle serializes the deployment artifact — the selection logic,
// context inventory, and expected performance — as auditable JSON.
func (a *Application) ExportBundle(w io.Writer, d Deployment, sel Selection, est Estimate) error {
	prof, err := a.art.Profile(sel.Tiling)
	if err != nil {
		return err
	}
	b, err := bundle.New(a.art.Arch.Index, a.art.Arch.Name, d.Target, sel, prof,
		a.art.Ctx.Stats, d.Deadline, d.CapacityFrac, est)
	if err != nil {
		return err
	}
	return b.Write(w)
}

// ImportSelection reads a serialized bundle back into a selection logic.
func ImportSelection(r io.Reader) (Selection, error) {
	b, err := bundle.Read(r)
	if err != nil {
		return Selection{}, err
	}
	return b.Selection()
}

// Mission is the orbital environment: the satellite's orbit, payload,
// reference grid, and ground segment, simulated with the cote-equivalent
// in internal/sim. It supplies the frame deadline and downlink capacity
// the selection logic needs.
type Mission struct {
	// Epoch is the mission start.
	Epoch time.Time
	// FrameDeadline is the time between frame captures.
	FrameDeadline time.Duration
	// FramesPerDay is the capture rate.
	FramesPerDay float64
	// CapacityFrac is the single-satellite downlink capacity per observed
	// frame as a fraction of frame size.
	CapacityFrac float64
	// FrameBits is the compressed size of one frame.
	FrameBits float64
	// Prevalence is the dataset's high-value pixel fraction (bent-pipe
	// DVD).
	Prevalence float64
	// ContactGapFrames is the mean number of frames captured between
	// successive downlink contacts — the store-and-forward holding the
	// hybrid planner charges against its deferral buffer.
	ContactGapFrames float64
}

// ReferenceEpoch is the start of the reference mission every binary and
// figure simulates from.
var ReferenceEpoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

// LandsatMission simulates one day of the Landsat 8 reference mission
// (orbit, WRS-2 grid, camera, three-station ground segment, 384 Mbit/s
// radio) and returns its derived parameters. The simulation takes on the
// order of a second.
func LandsatMission(epoch time.Time) (Mission, error) {
	return SimulateMission(context.Background(), epoch, 1, 1)
}

// SimulateMission simulates days of the Landsat 8 reference mission flown
// by sats satellites evenly phased in one plane from epoch, and returns
// its derived parameters (see MissionOf).
func SimulateMission(ctx context.Context, epoch time.Time, days, sats int) (Mission, error) {
	res, err := sim.RunCtx(ctx, sim.Landsat8Config(epoch, time.Duration(days)*24*time.Hour, sats))
	if err != nil {
		return Mission{}, err
	}
	return MissionOf(res)
}

// MissionOf derives the deployment parameters of a simulated run: the
// frame deadline from the orbit and grid, the constellation's daily mean
// capture rate, the frame size, the dataset's prevalence, and — from
// planner.DeriveLink, so a fault-injected run yields its derated capacity
// and stretched contact gaps — the capacity fraction and contact cadence.
func MissionOf(res *sim.Result) (Mission, error) {
	observed := float64(res.FramesObserved())
	if observed == 0 {
		return Mission{}, fmt.Errorf("simulation observed no frames")
	}
	cfg := res.Config
	li := planner.DeriveLink(res)
	return Mission{
		Epoch:            cfg.Epoch,
		FrameDeadline:    cfg.Grid.FramePeriod(cfg.BaseOrbit),
		FramesPerDay:     observed / (cfg.Span.Hours() / 24),
		CapacityFrac:     li.CapacityFrac,
		FrameBits:        cfg.Camera.FrameBits(),
		Prevalence:       0.48, // the Sentinel-like dataset's high-value split
		ContactGapFrames: li.FramesBetweenContacts,
	}, nil
}

// Deployment builds the selection-logic environment for a target on this
// mission, with raw filler enabled (the link is never left idle).
func (m Mission) Deployment(t Target) Deployment {
	return Deployment{
		Target:       t,
		Deadline:     m.FrameDeadline,
		CapacityFrac: m.CapacityFrac,
		FillIdle:     true,
	}
}

// HybridEnv builds the hybrid planner's environment on this mission, and
// is the one place its defaults are written: the default cost vector, a
// 64-frame deferral buffer, and the mission's contact cadence. The
// selection-logic half is filled in by Application.PlanHybrid from the
// deployment; tune Costs and BufferFrames on the returned value before
// planning.
func (m Mission) HybridEnv() PlannerEnv {
	return PlannerEnv{
		Costs:                 planner.DefaultCosts(),
		BufferFrames:          64,
		FramesBetweenContacts: m.ContactGapFrames,
	}
}

// NewRand returns a deterministic random stream for runtime processing.
func NewRand(seed uint64) *xrand.Rand { return xrand.New(seed) }
