package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kodan"
	"kodan/internal/admission"
	"kodan/internal/hw"
	"kodan/internal/telemetry"
)

// transformRequest is the /v1/transform request body.
type transformRequest struct {
	// Seed selects the transformation seed (0 means the server default).
	Seed uint64 `json:"seed"`
	// App is the 1-based Table 1 application index.
	App int `json:"app"`
	// Quantized selects the int8 per-layer-quantized inference variant
	// (float and quantized artifacts are cached independently).
	Quantized bool `json:"quantized"`
	// TimeoutMs caps this request's processing time below the server's
	// ceiling.
	TimeoutMs int `json:"timeoutMs"`
}

// planRequest is the /v1/plan request body.
type planRequest struct {
	// Seed selects the transformation seed (0 means the server default).
	Seed uint64 `json:"seed"`
	// App is the 1-based Table 1 application index.
	App int `json:"app"`
	// Target names the hardware target: "orin", "i7", "1070ti" (or the
	// Table 1 display names).
	Target string `json:"target"`
	// DeadlineMs and CapacityFrac pin the deployment environment. When
	// either is zero the server fills both from the reference Landsat 8
	// mission (one day, one satellite).
	DeadlineMs   float64 `json:"deadlineMs"`
	CapacityFrac float64 `json:"capacityFrac"`
	// NoFill disables padding an under-filled link with raw frames
	// (FillIdle defaults to true, matching Mission.Deployment).
	NoFill bool `json:"noFill"`
	// Quantized selects the int8 per-layer-quantized inference variant for
	// the transformation (the models behind plans and simulations inherit
	// it; float and quantized artifacts are cached independently).
	Quantized bool `json:"quantized"`
	// TimeoutMs caps this request's processing time below the server's
	// ceiling.
	TimeoutMs int `json:"timeoutMs"`
	// Mode selects the /v1/plan artifact: "" or "bundle" returns the
	// deployment bundle; "hybrid" runs the space-ground execution planner
	// and returns per-context placements.
	Mode string `json:"mode"`
	// GroundCost overrides the hybrid planner's ground-compute price per
	// frame-fraction (nil = the default cost vector; 0 = free ground).
	GroundCost *float64 `json:"groundCost"`
	// BufferFrames overrides the hybrid deferral buffer in frame-size
	// units (nil = 64; 0 disables deferral).
	BufferFrames *float64 `json:"bufferFrames"`
	// ContactGapFrames pins the mean frames between downlink contacts for
	// hybrid planning. When 0 the server derives it from the reference
	// mission simulation.
	ContactGapFrames float64 `json:"contactGapFrames"`
}

// simulateRequest is the /v1/simulate request body. The deployment comes
// from the simulated mission, so the deadline, capacity and hybrid fields
// of planRequest are not part of it.
type simulateRequest struct {
	// Seed, App, Target, NoFill, Quantized and TimeoutMs are as in
	// planRequest.
	Seed      uint64 `json:"seed"`
	App       int    `json:"app"`
	Target    string `json:"target"`
	NoFill    bool   `json:"noFill"`
	Quantized bool   `json:"quantized"`
	TimeoutMs int    `json:"timeoutMs"`
	// Days is the simulated span (default 1, at most maxSimulateDays).
	Days int `json:"days"`
	// Sats is the constellation population (default 1, at most
	// maxSimulateSats).
	Sats int `json:"sats"`
	// Mode picks the deployment under test: "kodan" (default),
	// "bentpipe", or "direct".
	Mode string `json:"mode"`
}

// The /v1/simulate mission bounds. The simulator builds every capture of
// the run up front (about 3 600 per satellite-day, 48 B each), so the
// bounds cap that transient memory at 14 x 16 satellite-days, about
// 39 MB. It checks the request's context between satellites, so a
// cancelled request stops once the satellites already running finish.
const (
	maxSimulateDays = 14
	maxSimulateSats = 16
)

// simulateSpan resolves a request's mission span: non-positive values
// default to 1, and values past the bounds are an error.
func simulateSpan(days, sats int) (int, int, error) {
	if days <= 0 {
		days = 1
	}
	if sats <= 0 {
		sats = 1
	}
	if days > maxSimulateDays {
		return 0, 0, fmt.Errorf("days must be at most %d, got %d", maxSimulateDays, days)
	}
	if sats > maxSimulateSats {
		return 0, 0, fmt.Errorf("sats must be at most %d, got %d", maxSimulateSats, sats)
	}
	return days, sats, nil
}

// requestContext applies the server timeout and a request's timeoutMs.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.Timeout
	if timeoutMs > 0 && time.Duration(timeoutMs)*time.Millisecond < timeout {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), timeout)
}

// maxBodyBytes bounds request bodies; every valid request is a few
// hundred bytes.
const maxBodyBytes = 1 << 20

// decode parses a JSON body strictly into v: exactly one JSON value with
// no unknown fields, followed by nothing but whitespace. On failure it
// writes the error response — 413 for a body over maxBodyBytes, 400
// otherwise — and returns false.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var tooLarge *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		// A second read must hit the end of the body. dec.More alone
		// would accept a stray closing delimiter such as {"app":4}}.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, &tooLarge) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if errors.As(err, &tooLarge) {
		writeJSONError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	return false
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection owns delivery
}

// errorBody is the uniform error document: every 4xx/5xx response is
// {"error": "..."} with an application/json content type.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSONError writes the uniform JSON error body.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// retryAfter renders a Retry-After value covering d plus the server's
// seeded jitter (0..RetryAfterJitterMax seconds), so rejected clients
// retry spread out instead of as a synchronized herd. Without configured
// jitter the value is exact.
func (s *Server) retryAfter(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprint(secs + s.jitter.seconds())
}

// writeError maps pipeline errors onto HTTP statuses.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admission.ErrSaturated):
		w.Header().Set("Retry-After", s.retryAfter(time.Second))
		writeJSONError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrBreakerOpen):
		w.Header().Set("Retry-After", s.retryAfter(s.breaker.Cooldown()))
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeJSONError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		// Client went away or the server is shutting down.
		writeJSONError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// seedOf resolves a request seed against the server default.
func (s *Server) seedOf(seed uint64) uint64 {
	if seed != 0 {
		return seed
	}
	return s.cfg.Seed
}

// system returns (building at most once per seed) the transformation
// workspace for a seed.
func (s *Server) system(ctx context.Context, seed uint64) (*kodan.System, CacheSource, error) {
	key := fmt.Sprintf("sys|%d", seed)
	v, src, err := s.cache.Do(ctx, key, func(cctx context.Context) (interface{}, error) {
		return s.cfg.NewSystem(cctx, s.cfg.TransformConfig(seed))
	})
	if err != nil {
		return nil, src, err
	}
	return v.(*kodan.System), src, nil
}

// application returns (computing at most once per key, through the worker
// pool) the transformed application for (seed, app, inference variant).
// tenant attributes the pool wait to the caller's fair queue.
func (s *Server) application(ctx context.Context, tenant string, seed uint64, appIndex int, quantized bool) (*kodan.Application, CacheSource, error) {
	key := fmt.Sprintf("app|%d|%d|%t", seed, appIndex, quantized)
	v, src, err := s.cache.Do(ctx, key, func(cctx context.Context) (interface{}, error) {
		sys, err := s.acquireAndBuild(cctx, tenant, seed)
		if err != nil {
			return nil, err
		}
		defer s.pool.Release()
		s.metrics.TransformStarted()
		start := time.Now()
		tctx, trSp := telemetry.StartSpan(cctx, "server.transform")
		trSp.Set("app", fmt.Sprint(appIndex))
		trSp.Set("quantized", fmt.Sprint(quantized))
		app, err := s.cfg.Transform(tctx, sys, appIndex, quantized)
		trSp.End()
		cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		s.metrics.TransformDone(time.Since(start), err, cancelled)
		return app, err
	})
	if err != nil {
		return nil, src, err
	}
	return v.(*kodan.Application), src, nil
}

// acquire claims a worker slot on tenant's behalf, recording the wait. On
// success the caller owns the slot (pair with s.pool.Release).
func (s *Server) acquire(ctx context.Context, tenant string) error {
	enqueued := time.Now()
	_, waitSp := telemetry.StartSpan(ctx, "server.pool_wait")
	err := s.pool.Acquire(ctx, tenant)
	waitSp.End()
	s.tenants.QueueDepth(tenant, s.pool.QueueDepthOf(tenant))
	if err != nil {
		return err
	}
	s.metrics.PoolAcquired(time.Since(enqueued), s.pool.Stats().InFlight)
	return nil
}

// acquireAndBuild claims a worker slot on tenant's behalf and resolves the
// seed's workspace. On success the caller owns the slot (pair with
// s.pool.Release); on error the slot is already returned.
func (s *Server) acquireAndBuild(ctx context.Context, tenant string, seed uint64) (*kodan.System, error) {
	if err := s.acquire(ctx, tenant); err != nil {
		return nil, err
	}
	sys, _, err := s.system(ctx, seed)
	if err != nil {
		s.pool.Release()
		return nil, err
	}
	return sys, nil
}

// mission returns the reference mission parameters for a span and
// constellation size, derived from the orbital simulator (cached: the
// simulation is deterministic but takes on the order of a second). A
// miss simulates on a worker slot claimed on tenant's behalf, so it
// passes admission and the tenant's fair queue like a transform.
func (s *Server) mission(ctx context.Context, tenant string, days, sats int) (kodan.Mission, error) {
	key := fmt.Sprintf("sim|%d|%d", days, sats)
	v, _, err := s.cache.Do(ctx, key, func(cctx context.Context) (interface{}, error) {
		if err := s.acquire(cctx, tenant); err != nil {
			return nil, err
		}
		defer s.pool.Release()
		return kodan.SimulateMission(cctx, kodan.ReferenceEpoch, days, sats)
	})
	if err != nil {
		return kodan.Mission{}, err
	}
	return v.(kodan.Mission), nil
}

// deployment resolves the request's deployment environment, filling
// unspecified deadline/capacity from the reference mission (simulated on
// tenant's behalf).
func (s *Server) deployment(ctx context.Context, tenant string, req planRequest, target kodan.Target) (kodan.Deployment, error) {
	d := kodan.Deployment{
		Target:       target,
		Deadline:     time.Duration(req.DeadlineMs * float64(time.Millisecond)),
		CapacityFrac: req.CapacityFrac,
		FillIdle:     !req.NoFill,
	}
	if d.Deadline <= 0 || d.CapacityFrac <= 0 {
		m, err := s.mission(ctx, tenant, 1, 1)
		if err != nil {
			return kodan.Deployment{}, err
		}
		if d.Deadline <= 0 {
			d.Deadline = m.FrameDeadline
		}
		if d.CapacityFrac <= 0 {
			d.CapacityFrac = m.CapacityFrac
		}
	}
	return d, nil
}

// planKey builds the plan-cache key from the fully resolved deployment,
// so requests that spell the same deployment differently (defaulted vs
// explicit) share one entry, and float parameters are keyed by their
// exact bits.
func planKey(seed uint64, appIndex int, quantized bool, d kodan.Deployment) string {
	return fmt.Sprintf("plan|%d|%d|%t|%d|%x|%x|%t",
		seed, appIndex, quantized, d.Target, d.Deadline,
		math.Float64bits(d.CapacityFrac), d.FillIdle)
}

// handleHealthz is liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: serving, or draining for shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleMetrics exports the ops counters as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.cache, s.pool))
}

// catalogResponse is the /v1/catalog document.
type catalogResponse struct {
	Seed    uint64       `json:"seed"`
	Targets []string     `json:"targets"`
	Apps    []catalogApp `json:"apps"`
	Tilings []int        `json:"tilingsPerSide"`
	Ctx     []catalogCtx `json:"contexts"`
}

type catalogApp struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
}

type catalogCtx struct {
	Name          string  `json:"name"`
	Count         int     `json:"count"`
	HighValueFrac float64 `json:"highValueFrac"`
}

// handleCatalog lists targets, applications, candidate tilings, and the
// generated contexts of the (optionally ?seed=) workspace. The document is
// cached per seed; a miss builds it on a worker slot claimed for the
// caller's tenant, so an unseen seed waits in the fair pool like a
// transform, while a cached document takes no slot.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	var seed uint64
	if q := r.URL.Query().Get("seed"); q != "" {
		var err error
		if seed, err = strconv.ParseUint(q, 10, 64); err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad seed %q", q))
			return
		}
	}
	seed = s.seedOf(seed)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	tenant := tenantOf(r.Context())
	v, _, err := s.cache.Do(ctx, fmt.Sprintf("catalog|%d", seed), func(cctx context.Context) (interface{}, error) {
		sys, err := s.acquireAndBuild(cctx, tenant, seed)
		if err != nil {
			return nil, err
		}
		defer s.pool.Release()
		resp := catalogResponse{Seed: seed}
		for _, t := range kodan.Targets() {
			resp.Targets = append(resp.Targets, t.String())
		}
		for _, a := range kodan.Applications() {
			resp.Apps = append(resp.Apps, catalogApp{Index: a.Index, Name: a.Name})
		}
		for _, tl := range s.cfg.TransformConfig(seed).Tilings {
			resp.Tilings = append(resp.Tilings, tl.PerSide)
		}
		for _, c := range sys.Contexts() {
			resp.Ctx = append(resp.Ctx, catalogCtx{Name: c.Name, Count: c.Count, HighValueFrac: c.HighValueFrac})
		}
		return resp, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v.(catalogResponse))
}

// transformResponse is the /v1/transform document.
type transformResponse struct {
	Seed      uint64       `json:"seed"`
	App       int          `json:"app"`
	AppName   string       `json:"appName"`
	Quantized bool         `json:"quantized"`
	Tilings   []int        `json:"tilingsPerSide"`
	Contexts  []catalogCtx `json:"contexts"`
}

// handleTransform runs (or reuses) the one-time transformation for an
// application.
func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	var req transformRequest
	if !decode(w, r, &req) {
		return
	}
	if req.App < 1 || req.App > len(kodan.Applications()) {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("app must be 1..%d", len(kodan.Applications())))
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	seed := s.seedOf(req.Seed)
	app, src, err := s.application(ctx, tenantOf(r.Context()), seed, req.App, req.Quantized)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := transformResponse{Seed: seed, App: req.App, AppName: app.Arch().Name, Quantized: req.Quantized}
	for _, tl := range app.Tilings() {
		resp.Tilings = append(resp.Tilings, tl.PerSide)
	}
	for _, c := range app.ContextStatsList() {
		resp.Contexts = append(resp.Contexts, catalogCtx{Name: c.Name, Count: c.Count, HighValueFrac: c.HighValueFrac})
	}
	w.Header().Set("X-Kodan-Cache", src.String())
	writeJSON(w, http.StatusOK, resp)
}

// handlePlan generates (or reuses) the selection logic for an app x
// target x deployment. The default mode returns the deployment bundle —
// the same artifact ExportBundle writes, byte-identical across identical
// requests; mode "hybrid" runs the space-ground execution planner on top
// of that selection logic and returns per-context placements.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !decode(w, r, &req) {
		return
	}
	if req.App < 1 || req.App > len(kodan.Applications()) {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("app must be 1..%d", len(kodan.Applications())))
		return
	}
	target, err := hw.ParseTarget(req.Target)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	mode := strings.ToLower(strings.TrimSpace(req.Mode))
	switch mode {
	case "", "bundle":
		if req.GroundCost != nil || req.BufferFrames != nil || req.ContactGapFrames != 0 {
			writeJSONError(w, http.StatusBadRequest, "groundCost, bufferFrames, and contactGapFrames apply only to mode \"hybrid\"")
			return
		}
	case "hybrid":
		s.handleHybridPlan(w, r, req, target)
		return
	default:
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want bundle or hybrid)", req.Mode))
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	seed := s.seedOf(req.Seed)
	tenant := tenantOf(r.Context())
	d, err := s.deployment(ctx, tenant, req, target)
	if err != nil {
		s.writeError(w, err)
		return
	}

	v, src, err := s.cache.Do(ctx, planKey(seed, req.App, req.Quantized, d), func(cctx context.Context) (interface{}, error) {
		app, _, err := s.application(cctx, tenant, seed, req.App, req.Quantized)
		if err != nil {
			return nil, err
		}
		logic, est := app.SelectionLogic(d)
		var buf bytes.Buffer
		if err := app.ExportBundle(&buf, d, logic, est); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Kodan-Cache", src.String())
	w.Write(v.([]byte)) //nolint:errcheck
}

// hybridPlanResponse is the /v1/plan mode=hybrid document.
type hybridPlanResponse struct {
	Seed             uint64            `json:"seed"`
	App              int               `json:"app"`
	Target           string            `json:"target"`
	Mode             string            `json:"mode"`
	TilesPerSide     int               `json:"tilesPerSide"`
	DeadlineMs       float64           `json:"deadlineMs"`
	CapacityFrac     float64           `json:"capacityFrac"`
	GroundCost       float64           `json:"groundCost"`
	BufferFrames     float64           `json:"bufferFrames"`
	ContactGapFrames float64           `json:"contactGapFrames"`
	Utility          float64           `json:"utility"`
	DVD              float64           `json:"dvd"`
	OnboardFrac      float64           `json:"onboardFrac"`
	DownlinkFrac     float64           `json:"downlinkFrac"`
	DeferFrac        float64           `json:"deferFrac"`
	DropFrac         float64           `json:"dropFrac"`
	EnergyPerFrameJ  float64           `json:"energyPerFrameJ"`
	Placements       []hybridPlacement `json:"placements"`
}

// hybridPlacement is one context's placement in a hybrid plan.
type hybridPlacement struct {
	Context     int     `json:"context"`
	TileFrac    float64 `json:"tileFrac"`
	Base        string  `json:"base"`
	Disposition string  `json:"disposition"`
	Action      string  `json:"action"`
}

// hybridKey extends the plan-cache key with the hybrid knobs.
func hybridKey(seed uint64, appIndex int, quantized bool, d kodan.Deployment, env kodan.PlannerEnv) string {
	return fmt.Sprintf("%s|hybrid|%x|%x|%x", planKey(seed, appIndex, quantized, d),
		math.Float64bits(env.Costs.GroundPerFrame),
		math.Float64bits(env.BufferFrames),
		math.Float64bits(env.FramesBetweenContacts))
}

// handleHybridPlan is /v1/plan mode=hybrid: the deployment's selection
// logic re-placed by the hybrid space-ground planner. Results are cached
// under the fully resolved deployment plus the planner knobs; each served
// plan is counted in the shared telemetry registry.
func (s *Server) handleHybridPlan(w http.ResponseWriter, r *http.Request, req planRequest, target kodan.Target) {
	if req.GroundCost != nil && (*req.GroundCost < 0 || math.IsNaN(*req.GroundCost)) {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("groundCost must be >= 0, got %v", *req.GroundCost))
		return
	}
	if req.BufferFrames != nil && (*req.BufferFrames < 0 || math.IsNaN(*req.BufferFrames)) {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bufferFrames must be >= 0, got %v", *req.BufferFrames))
		return
	}
	if req.ContactGapFrames < 0 || math.IsNaN(req.ContactGapFrames) {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("contactGapFrames must be >= 0, got %v", req.ContactGapFrames))
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	seed := s.seedOf(req.Seed)
	tenant := tenantOf(r.Context())
	d, err := s.deployment(ctx, tenant, req, target)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// An explicit contact gap stands in for the reference mission's, which
	// is simulated only when the request leaves it out.
	m := kodan.Mission{ContactGapFrames: req.ContactGapFrames}
	if req.ContactGapFrames == 0 {
		if m, err = s.mission(ctx, tenant, 1, 1); err != nil {
			s.writeError(w, err)
			return
		}
	}
	env := m.HybridEnv()
	if req.GroundCost != nil {
		env.Costs.GroundPerFrame = *req.GroundCost
	}
	if req.BufferFrames != nil {
		env.BufferFrames = *req.BufferFrames
	}

	v, src, err := s.cache.Do(ctx, hybridKey(seed, req.App, req.Quantized, d, env), func(cctx context.Context) (interface{}, error) {
		app, _, err := s.application(cctx, tenant, seed, req.App, req.Quantized)
		if err != nil {
			return nil, err
		}
		plan, err := app.PlanHybrid(d, env)
		if err != nil {
			return nil, err
		}
		prof, err := app.ProfileFor(plan.Tiling)
		if err != nil {
			return nil, err
		}
		resp := hybridPlanResponse{
			Seed: seed, App: req.App, Target: target.String(), Mode: "hybrid",
			TilesPerSide:     plan.Tiling.PerSide,
			DeadlineMs:       float64(d.Deadline.Milliseconds()),
			CapacityFrac:     d.CapacityFrac,
			GroundCost:       env.Costs.GroundPerFrame,
			BufferFrames:     env.BufferFrames,
			ContactGapFrames: env.FramesBetweenContacts,
			Utility:          plan.Eval.Utility,
			DVD:              plan.Eval.DVD,
			OnboardFrac:      plan.Eval.OnboardFrac,
			DownlinkFrac:     plan.Eval.DownlinkFrac,
			DeferFrac:        plan.Eval.DeferFrac,
			DropFrac:         plan.Eval.DropFrac,
			EnergyPerFrameJ:  plan.Eval.EnergyPerFrameJ,
		}
		for c, disp := range plan.Dispositions {
			resp.Placements = append(resp.Placements, hybridPlacement{
				Context:     c,
				TileFrac:    prof.Contexts[c].TileFrac,
				Base:        plan.Base.Actions[c].String(),
				Disposition: disp.String(),
				Action:      plan.Actions[c].String(),
			})
		}
		return resp, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := v.(hybridPlanResponse)
	s.metrics.PlannerPlanned(resp.DeferFrac)
	w.Header().Set("X-Kodan-Cache", src.String())
	writeJSON(w, http.StatusOK, resp)
}

// simulateResponse is the /v1/simulate document.
type simulateResponse struct {
	Seed          uint64  `json:"seed"`
	App           int     `json:"app"`
	Target        string  `json:"target"`
	Mode          string  `json:"mode"`
	Days          int     `json:"days"`
	Sats          int     `json:"sats"`
	FramesPerDay  float64 `json:"framesPerDay"`
	DeadlineMs    float64 `json:"deadlineMs"`
	CapacityFrac  float64 `json:"capacityFrac"`
	TilesPerSide  int     `json:"tilesPerSide,omitempty"`
	DVD           float64 `json:"dvd"`
	FrameMs       float64 `json:"frameMs"`
	ProcessedFrac float64 `json:"processedFrac"`
	BentPipeDVD   float64 `json:"bentPipeDVD"`
	// Improvement is DVD relative to the bent pipe (0.9 = +90%).
	Improvement float64 `json:"improvement"`
}

// handleSimulate evaluates a deployment mode — Kodan, bent pipe, or prior
// work's direct deployment — in a simulated mission of the given span and
// constellation size.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !decode(w, r, &req) {
		return
	}
	if req.App < 1 || req.App > len(kodan.Applications()) {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("app must be 1..%d", len(kodan.Applications())))
		return
	}
	target, err := hw.ParseTarget(req.Target)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	mode := strings.ToLower(strings.TrimSpace(req.Mode))
	if mode == "" {
		mode = "kodan"
	}
	switch mode {
	case "kodan", "bentpipe", "direct":
	default:
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want kodan, bentpipe, or direct)", req.Mode))
		return
	}
	req.Days, req.Sats, err = simulateSpan(req.Days, req.Sats)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	tenant := tenantOf(r.Context())
	m, err := s.mission(ctx, tenant, req.Days, req.Sats)
	if err != nil {
		s.writeError(w, err)
		return
	}
	d := m.Deployment(target)
	d.FillIdle = !req.NoFill

	seed := s.seedOf(req.Seed)
	app, _, err := s.application(ctx, tenant, seed, req.App, req.Quantized)
	if err != nil {
		s.writeError(w, err)
		return
	}

	resp := simulateResponse{
		Seed: seed, App: req.App, Target: target.String(), Mode: mode,
		Days: req.Days, Sats: req.Sats,
		FramesPerDay: m.FramesPerDay,
		DeadlineMs:   float64(d.Deadline.Milliseconds()),
		CapacityFrac: d.CapacityFrac,
	}
	bent := app.BentPipe(d)
	resp.BentPipeDVD = bent.DVD

	var est kodan.Estimate
	switch mode {
	case "kodan":
		logic, e := app.SelectionLogic(d)
		est = e
		resp.TilesPerSide = logic.Tiling.PerSide
	case "bentpipe":
		est = bent
	case "direct":
		// Prior OEC work: the reference model on every tile; report the
		// best tiling for it, mirroring the paper's strongest baseline.
		first := true
		for _, tl := range app.Tilings() {
			e, err := app.DirectDeploy(d, tl)
			if err != nil {
				s.writeError(w, err)
				return
			}
			if first || e.DVD > est.DVD {
				est = e
				resp.TilesPerSide = tl.PerSide
				first = false
			}
		}
	}
	resp.DVD = est.DVD
	resp.FrameMs = float64(est.FrameTime.Milliseconds())
	resp.ProcessedFrac = est.ProcessedFrac
	if bent.DVD > 0 {
		resp.Improvement = est.DVD/bent.DVD - 1
	}
	writeJSON(w, http.StatusOK, resp)
}
