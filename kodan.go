// Package kodan is a from-scratch reproduction of "Kodan: Addressing the
// Computational Bottleneck in Space" (ASPLOS 2023): an orbital edge
// computing (OEC) system that maximizes the data value density (DVD) of a
// saturated satellite downlink under the computational limits of satellite
// hardware.
//
// The library has two halves, mirroring the paper's Figure 7:
//
//   - A one-time transformation step (System.Transform): a representative
//     dataset is clustered into geospatial contexts, a context engine is
//     trained to recognize them at runtime, context-specialized models are
//     trained and measured at several frame tilings, and a selection logic
//     is generated for a concrete deployment (hardware target, frame
//     deadline, downlink capacity) by sweeping tilings and per-context
//     actions.
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
// # Quick start
//
//	sys, _ := kodan.NewSystem(kodan.DefaultTransformConfig(42))
//	mission, _ := kodan.LandsatMission(epoch)
//	app, _ := sys.Transform(4) // Table 1's App 4
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
	"kodan/internal/power"
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
	// PlannerEnv is the hybrid planner's view of the deployment: bus,
	// costs, buffer, and contact cadence.
	PlannerEnv = planner.Env
	// Bus is a satellite electrical power system.
	Bus = power.Bus
)

// Hybrid placements.
const (
	PlaceOnboard     = planner.Onboard
	PlaceDownlinkNow = planner.DownlinkNow
	PlaceDefer       = planner.Defer
	PlaceDrop        = planner.Drop
)

// DefaultPlannerCosts returns the reference hybrid-planner pricing.
func DefaultPlannerCosts() PlannerCosts { return planner.DefaultCosts() }

// ThreeUBus returns the reference 3U cubesat electrical bus.
func ThreeUBus() Bus { return power.ThreeUBus() }

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

// Deployment describes the target satellite for selection-logic
// generation: hardware, frame deadline, and per-frame downlink capacity.
type Deployment = core.Deployment

// System owns the transformation workspace: the representative dataset at
// every candidate tiling plus the contexts and context engine, shared
// across applications.
type System struct {
	ws *core.Workspace
}

// NewSystem renders the representative dataset and builds contexts.
func NewSystem(cfg TransformConfig) (*System, error) {
	return NewSystemCtx(context.Background(), cfg)
}

// NewSystemCtx is NewSystem with cooperative cancellation: ctx is checked
// between the expensive build stages (per-tiling dataset renders,
// clustering, engine training) and ctx.Err() is returned promptly once
// the context is done.
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

// Transform runs the one-time transformation for the application with the
// given 1-based Table 1 index.
func (s *System) Transform(appIndex int) (*Application, error) {
	return s.TransformCtx(context.Background(), appIndex)
}

// TransformCtx is Transform with cooperative cancellation: ctx is checked
// between tilings, model trainings, and training epochs, so a cancelled
// transform returns ctx.Err() promptly instead of running to completion.
// Completed transforms are bit-identical to Transform with the same seed.
//
// Concurrent TransformCtx calls on one System are safe: the workspace's
// datasets and context engine are read-only after NewSystem, and each
// (application, tiling) derives its randomness from the seed alone.
func (s *System) TransformCtx(ctx context.Context, appIndex int) (*Application, error) {
	return s.TransformVariantCtx(ctx, appIndex, false)
}

// TransformVariantCtx is TransformCtx with an inference-variant switch:
// with quantized set, every trained model also derives its int8 twin and
// all suite predictions — including the quality measurement the selection
// logic prices — run through the quantized hot path. Training itself stays
// float and consumes the identical random stream, so the float variant of
// the same System is unaffected.
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

// SelectionLogic generates the deployment's selection logic.
func (a *Application) SelectionLogic(d Deployment) (Selection, Estimate) {
	return a.art.SelectionLogic(d)
}

// PlanHybrid generates the deployment's selection logic, then re-places
// each context among on-board execution, immediate raw downlink, deferred
// ground processing, and drop under env's cost model (see
// internal/planner). The selection-logic half of env is always derived
// from d; only the bus, costs, buffer, and contact cadence are read from
// env (Mission.HybridEnv supplies reference values).
func (a *Application) PlanHybrid(d Deployment, env PlannerEnv) (HybridPlan, error) {
	sel, _ := a.art.SelectionLogic(d)
	prof, err := a.art.Profile(sel.Tiling)
	if err != nil {
		return HybridPlan{}, err
	}
	env.Policy = d.Env(a.art.Arch)
	return planner.Decide(prof, sel, env)
}

// BentPipe evaluates the bent-pipe baseline in the same environment.
func (a *Application) BentPipe(d Deployment) Estimate {
	return policy.EvaluateBentPipe(a.art.Profiles[0].Prevalence(), d.Env(a.art.Arch))
}

// DirectDeploy evaluates prior OEC work's direct deployment at the given
// tiling (the reference model on every tile, no context engine).
func (a *Application) DirectDeploy(d Deployment, tl Tiling) (Estimate, error) {
	prof, err := a.art.Profile(tl)
	if err != nil {
		return Estimate{}, err
	}
	env := d.Env(a.art.Arch)
	env.UseEngine = false
	return policy.Evaluate(policy.DirectSelection(prof), prof, env), nil
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

// LandsatMission simulates one day of the Landsat 8 reference mission
// (orbit, WRS-2 grid, camera, three-station ground segment, 384 Mbit/s
// radio) and returns its derived parameters. The simulation takes on the
// order of a second.
func LandsatMission(epoch time.Time) (Mission, error) {
	res, err := sim.Run(sim.Landsat8Config(epoch, 24*time.Hour, 1))
	if err != nil {
		return Mission{}, err
	}
	im := res.Config.Camera
	grid := res.Config.Grid
	deadline := grid.FramePeriod(res.Config.BaseOrbit)
	observed := float64(res.FramesObserved())
	return Mission{
		Epoch:            epoch,
		FrameDeadline:    deadline,
		FramesPerDay:     observed,
		CapacityFrac:     res.FrameCapacity() / observed,
		FrameBits:        im.FrameBits(),
		Prevalence:       0.48, // the Sentinel-like dataset's high-value split
		ContactGapFrames: planner.DeriveLink(res).FramesBetweenContacts,
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

// HybridEnv builds the hybrid planner's environment on this mission: the
// reference 3U bus, the default cost vector, a 64-frame deferral buffer,
// and the mission's contact cadence. The selection-logic half is filled in
// by Application.PlanHybrid from the deployment; tune Costs and
// BufferFrames on the returned value before planning.
func (m Mission) HybridEnv() PlannerEnv {
	return PlannerEnv{
		Bus:                   ThreeUBus(),
		Costs:                 DefaultPlannerCosts(),
		BufferFrames:          64,
		FramesBetweenContacts: m.ContactGapFrames,
	}
}

// NewRand returns a deterministic random stream for runtime processing.
func NewRand(seed uint64) *xrand.Rand { return xrand.New(seed) }
