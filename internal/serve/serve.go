// Package serve is the compile-and-execute service: an HTTP/JSON front end
// over the Artifact API with a content-addressed artifact cache.
//
// The design leans on the paper's central premise (§4): the compiler
// statically owns every machine resource, so a compiled image is immutable
// and execution is a deterministic function of it. That buys the service
// three things a conventional JIT server has to fight for:
//
//   - Compilations are content-addressed — SHA-256 over the source text and
//     the canonicalized semantic options — and cached in a byte-budgeted
//     LRU. Identical in-flight requests collapse into one pipeline
//     execution (flightGroup).
//   - Runs draw machines from a sync.Pool and Reset them onto the cached
//     image; when the artifact lints clean, its lazily-minted Certificate
//     puts the run on the simulator's no-dynamic-checks fast path.
//   - Completed runs are memoized: the simulator has no clock, no
//     randomness, and no input channel, so (artifact × run options) fully
//     determines the result — performance counters included. Requests can
//     opt out per-call with "no_cache" (e.g. to re-measure wall time).
//
// Every request runs under a context: deadlines and client disconnects
// cancel compilation at pass boundaries and simulation at beat granularity.
// Admission is a bounded semaphore — past capacity the server answers 429
// immediately rather than queueing into its own timeout.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/tsched"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Options is the wire form of a compilation request's semantic options.
// Fields the compiler proves non-semantic — backend parallelism, verify
// mode — are deliberately absent: they belong to the server, not the key.
type Options struct {
	// Pairs selects the machine width: 1, 2, or 4 I-F pairs (default 4).
	Pairs int `json:"pairs,omitempty"`
	// Ideal targets the Figure-1 idealized VLIW instead of the real
	// partitioned machine.
	Ideal bool `json:"ideal,omitempty"`
	// OptLevel is the optimization level 0-2 (default 2).
	OptLevel *int `json:"O,omitempty"`
	// Profile enables profile-guided trace selection (an IR-interpreter
	// run feeds measured edge counts to the trace picker).
	Profile bool `json:"profile,omitempty"`
	// DisableSpeculation turns off the §7 non-trapping loads.
	DisableSpeculation bool `json:"disable_speculation,omitempty"`
	// DisableMultiway restricts instructions to one branch test.
	DisableMultiway bool `json:"disable_multiway,omitempty"`
	// Conservative disables the §6.4.4 bank-stall gamble.
	Conservative bool `json:"conservative,omitempty"`
	// BasicBlockOnly restricts trace selection to single basic blocks
	// (the §10 ablation).
	BasicBlockOnly bool `json:"basic_block_only,omitempty"`
}

func (o Options) pairs() int {
	if o.Pairs == 0 {
		return 4
	}
	return o.Pairs
}

func (o Options) level() int {
	if o.OptLevel == nil {
		return 2
	}
	return *o.OptLevel
}

// canonical renders the options in a fixed field order with defaults
// applied, so JSON field order, omitted defaults, and explicit defaults all
// produce the same cache key.
func (o Options) canonical() string {
	return fmt.Sprintf("pairs=%d ideal=%t O=%d prof=%t nospec=%t nomw=%t cons=%t bb=%t",
		o.pairs(), o.Ideal, o.level(), o.Profile,
		o.DisableSpeculation, o.DisableMultiway, o.Conservative, o.BasicBlockOnly)
}

func (o Options) validate() error {
	switch o.pairs() {
	case 1, 2, 4:
	default:
		return fmt.Errorf("pairs must be 1, 2, or 4 (got %d)", o.Pairs)
	}
	if _, err := opt.Level(o.level()); err != nil {
		return fmt.Errorf("O must be 0, 1, or 2 (got %d)", o.level())
	}
	return nil
}

// toCore maps wire options to compiler options; parallelism comes from the
// server configuration because it is provably non-semantic.
func (o Options) toCore(parallelism int) core.Options {
	cfg := mach.NewConfig(o.pairs())
	if o.Ideal {
		cfg = mach.IdealConfig(o.pairs())
	}
	if o.DisableSpeculation {
		cfg.SpeculativeLoads = false
	}
	if o.DisableMultiway {
		cfg.MultiwayBranch = false
	}
	if o.Conservative {
		cfg.RollTheDice = false
	}
	lvl, _ := opt.Level(o.level()) // validate vouches for the level
	prof := core.ProfileHeuristic
	if o.Profile {
		prof = core.ProfileRun
	}
	maxBlocks := 0
	if o.BasicBlockOnly {
		maxBlocks = 1
	}
	return core.Options{
		Config: cfg, Opt: lvl, Profile: prof,
		MaxTraceBlocks: maxBlocks, Parallelism: parallelism,
	}
}

// RunRequestOptions is the wire form of the execution options.
type RunRequestOptions struct {
	// Tier requests an execution tier by name: "checked" (or omitted),
	// "fast" (the certified fast path — the artifact must lint clean),
	// "safe" (guard-free execution of every site the value-range analysis
	// proves; requires the artifact's safety certificate), or "native"
	// (the safety grade plus the translation of the image's hot code into
	// regions). An unknown name is a bad_request.
	Tier vliw.Tier `json:"tier,omitempty"`
	// MaxCycles overrides the simulator's beat budget (0 = default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// NoCache bypasses the memoized run results for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// CompileRequest is the body of POST /compile and POST /lint.
type CompileRequest struct {
	Source  string  `json:"source"`
	Options Options `json:"options"`
}

// RunRequest is the body of POST /run.
type RunRequest struct {
	Source  string            `json:"source"`
	Options Options           `json:"options"`
	Run     RunRequestOptions `json:"run"`
}

// RunManyProgram is one tenant program in a /runmany batch.
type RunManyProgram struct {
	Source string `json:"source"`
}

// RunManyRunOptions is the wire form of the batch execution options.
type RunManyRunOptions struct {
	// Tier requests an execution tier by name for every tenant; the batch
	// fails if any program does not certify at the requested grade
	// (all-or-nothing — tiers are never silently mixed across tenants).
	Tier vliw.Tier `json:"tier,omitempty"`
	// MaxCycles caps each tenant's beat budget (0 = default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Quantum overrides the scheduler's round-robin timeslice in beats.
	Quantum int64 `json:"quantum,omitempty"`
	// SwitchBeats overrides the wall-clock cost per context rotation.
	SwitchBeats int64 `json:"switch_beats,omitempty"`
}

// RunManyRequest is the body of POST /runmany. All programs compile under
// one shared Options (the tenants must target one machine configuration).
type RunManyRequest struct {
	Programs []RunManyProgram  `json:"programs"`
	Options  Options           `json:"options"`
	Run      RunManyRunOptions `json:"run"`
}

// RunManyResult reports one tenant's execution. Error is per-tenant — a
// trap or cycle-limit there does not fail the batch.
type RunManyResult struct {
	Key         string `json:"key"`
	CachedBuild bool   `json:"cached_build"`
	// Tier names the execution tier this tenant actually ran on.
	Tier   vliw.Tier `json:"tier"`
	Exit   int32     `json:"exit"`
	Output string    `json:"output"`
	Stats  RunStats  `json:"stats"`
	Error  string    `json:"error,omitempty"`
}

// SchedResponse is the wire form of the context scheduler's counters.
type SchedResponse struct {
	Contexts    int   `json:"contexts"`
	TotalBeats  int64 `json:"total_beats"`
	BusyBeats   int64 `json:"busy_beats"`
	HiddenBeats int64 `json:"hidden_beats"`
	Switches    int64 `json:"switches"`
	SwitchBeats int64 `json:"switch_beats"`
}

// RunManyResponse reports one batch execution.
type RunManyResponse struct {
	Results []RunManyResult `json:"results"`
	Sched   SchedResponse   `json:"sched"`
}

// CompileResponse reports one compilation.
type CompileResponse struct {
	Key string `json:"key"`
	// Cached reports the artifact came from the cache; Joined reports the
	// request attached to a compile another request had in flight.
	Cached bool `json:"cached"`
	Joined bool `json:"joined,omitempty"`

	Machine     string `json:"machine"`
	Instrs      int    `json:"instrs"`
	Ops         int64  `json:"ops"`
	FixedBytes  int64  `json:"fixed_bytes"`
	PackedBytes int64  `json:"packed_bytes"`
	Attempts    int    `json:"attempts"`
	CompileMs   int64  `json:"compile_ms"`
}

// RunStats is the wire subset of the simulator's counters.
type RunStats struct {
	Beats      int64   `json:"beats"`
	Instrs     int64   `json:"instrs"`
	Ops        int64   `json:"ops"`
	MemRefs    int64   `json:"mem_refs"`
	BankStalls int64   `json:"bank_stalls"`
	SpecLoads  int64   `json:"spec_loads"`
	ICacheMiss int64   `json:"icache_miss"`
	TLBMisses  int64   `json:"tlb_misses"`
	MIPS       float64 `json:"mips"`
}

// RunResponse reports one execution.
type RunResponse struct {
	Key          string `json:"key"`
	CachedBuild  bool   `json:"cached_build"`
	CachedResult bool   `json:"cached_result"`
	// Tier names the execution tier the run actually took: "checked",
	// "fast", "safe", or "native".
	Tier   vliw.Tier `json:"tier"`
	Exit   int32     `json:"exit"`
	Output string    `json:"output"`
	Stats  RunStats  `json:"stats"`
}

// LintFinding is the wire form of one schedcheck finding.
type LintFinding struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	Word     int    `json:"word"`
	Beat     int    `json:"beat"`
	Unit     string `json:"unit,omitempty"`
	Func     string `json:"func,omitempty"`
	Line     int    `json:"line,omitempty"`
	Msg      string `json:"msg"`
}

// LintResponse reports a static verification.
type LintResponse struct {
	Key       string        `json:"key"`
	Cached    bool          `json:"cached"`
	Clean     bool          `json:"clean"`
	Errors    int           `json:"errors"`
	Warnings  int           `json:"warnings"`
	Words     int           `json:"words"`
	Reachable int           `json:"reachable"`
	Findings  []LintFinding `json:"findings,omitempty"`
}

// ErrorPos is a source position in an error response.
type ErrorPos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// ErrorBody is the uniform error envelope: every non-2xx response carries
// {"error": {...}}. Compile diagnostics keep their position structured so
// clients can point at the offending line without re-parsing "file:l:c:".
type ErrorBody struct {
	Kind string    `json:"kind"` // "compile", "capacity", "timeout", "saturated", "bad_request", "run"
	Msg  string    `json:"msg"`
	Pos  *ErrorPos `json:"pos,omitempty"`
}

// Config configures a Server.
type Config struct {
	// CacheBytes budgets the artifact cache (default 256 MiB).
	CacheBytes int64
	// RunCacheEntries bounds the memoized run results (default 4096).
	RunCacheEntries int
	// MaxInflight bounds admitted requests; past it the server answers
	// 429 immediately (default 64).
	MaxInflight int
	// CompileTimeout and RunTimeout cap each request phase (defaults 30s
	// and 60s). The client can only shorten them, via request context.
	CompileTimeout time.Duration
	RunTimeout     time.Duration
	// Parallelism is the backend worker pool per compilation (0 = one
	// worker per CPU).
	Parallelism int
	// MaxSourceBytes rejects oversized programs with 413 (default 1 MiB).
	MaxSourceBytes int64
	// SnapshotBytes budgets the in-RAM resume-snapshot store (default
	// 64 MiB). A run that exceeds RunTimeout is checkpointed and answered
	// with 202 + a resume token instead of 504; POST /resume continues it
	// under a fresh deadline. Negative disables checkpointing entirely,
	// restoring the plain-504 behavior.
	SnapshotBytes int64
	// SnapshotDir, when set, spills every stored snapshot to disk (atomic
	// write+rename) and re-indexes surviving files on startup, so resume
	// tokens outlive a crash or SIGKILL of the server process.
	SnapshotDir string
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.RunCacheEntries == 0 {
		c.RunCacheEntries = 4096
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.CompileTimeout == 0 {
		c.CompileTimeout = 30 * time.Second
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = 60 * time.Second
	}
	if c.MaxSourceBytes == 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.SnapshotBytes == 0 {
		c.SnapshotBytes = 64 << 20
	}
	return c
}

// Server is the compile-and-execute service. Create one with New and mount
// it (it implements http.Handler).
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	metrics   *Metrics
	artifacts *lru[*core.Artifact]  // by Key, budgeted in bytes
	runs      *lru[core.ExitResult] // by runKey, bounded in entries
	flight    *flightGroup
	admit     chan struct{}
	machines  sync.Pool
	snapshots *snapshotStore // nil when checkpointing is disabled
	draining  atomic.Bool
}

// New builds a Server with its caches and machine pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := &Metrics{}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: m,
		artifacts: newLRU[*core.Artifact](cfg.CacheBytes, func(used int64, entries int, evicted int64) {
			m.ArtifactBytes.Set(used)
			m.ArtifactEntries.Set(int64(entries))
			m.ArtifactEvictions.Add(evicted)
		}),
		runs:      newLRU[core.ExitResult](int64(cfg.RunCacheEntries), func(int64, int, int64) {}),
		flight:    newFlightGroup(),
		admit:     make(chan struct{}, cfg.MaxInflight),
		snapshots: newSnapshotStore(cfg.SnapshotBytes, cfg.SnapshotDir, m),
	}
	s.machines.New = func() any { return new(vliw.Machine) }
	s.mux.HandleFunc("/compile", s.handleCompile)
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/runmany", s.handleRunMany)
	s.mux.HandleFunc("/resume", s.handleResume)
	s.mux.HandleFunc("/lint", s.handleLint)
	s.mux.HandleFunc("/metrics", m.serveHTTP)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Metrics exposes the server's counters (primarily so cmd/tracesrv can
// publish them under expvar's global namespace, and tests can assert on
// them without scraping JSON).
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// retryAfterSeconds is the backoff hint on 429 responses. Admitted requests
// clear in well under a second except for cold compiles of pathological
// sources, so one second is long enough for a slot to open and short enough
// that honest clients don't idle.
const retryAfterSeconds = 1

// admitRequest implements admission control: a non-blocking semaphore
// acquire. Refusing immediately at capacity keeps queueing at the load
// balancer, where there is context to shed load, instead of inside the
// server where a queued request would just age into its deadline. A
// rejection carries a Retry-After hint and is counted both globally
// (Saturated) and on the rejecting endpoint (ep.Rejected).
func (s *Server) admitRequest(w http.ResponseWriter, ep *endpointMetrics) (release func(), ok bool) {
	select {
	case s.admit <- struct{}{}:
		s.metrics.InFlight.Add(1)
		return func() {
			s.metrics.InFlight.Add(-1)
			<-s.admit
		}, true
	default:
		s.metrics.Saturated.Add(1)
		ep.Rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, ErrorBody{
			Kind: "saturated",
			Msg:  fmt.Sprintf("server at capacity (%d requests in flight)", s.cfg.MaxInflight),
		})
		return nil, false
	}
}

// artifact resolves src×options to a compiled artifact: cache hit,
// join of an in-flight compile, or a fresh pipeline execution.
func (s *Server) artifact(ctx context.Context, key, src string, o Options) (art *core.Artifact, cached, joined bool, err error) {
	if art, ok := s.artifacts.get(key); ok {
		s.metrics.ArtifactHits.Add(1)
		return art, true, false, nil
	}
	s.metrics.ArtifactMisses.Add(1)
	// A joined flight can report the shared compile's cancellation (its
	// last waiter left just as we arrived) even though our own context is
	// healthy; retry — the next attempt starts a fresh compile.
	for {
		art, joined, err = s.flight.do(ctx, key, func(cctx context.Context) (*core.Artifact, error) {
			a, err := core.Build(cctx, src, o.toCore(s.cfg.Parallelism))
			if err != nil {
				return nil, err
			}
			s.artifacts.add(key, a, artifactCost(key, a))
			return a, nil
		})
		if joined {
			s.metrics.FlightJoins.Add(1)
		}
		if err != nil && joined && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			continue
		}
		return art, false, joined, err
	}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Compile.Requests.Add(1)
	var req CompileRequest
	if !s.decode(w, r, 1, &req) {
		return
	}
	release, ok := s.admitRequest(w, &s.metrics.Compile)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	defer cancel()

	key := Key(req.Source, req.Options)
	art, cached, joined, err := s.artifact(ctx, key, req.Source, req.Options)
	if err != nil {
		s.writeCompileError(w, err)
		return
	}
	res := art.Result()
	fixed, packed, ops := res.Image.CodeSizes()
	s.metrics.Compile.Latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, CompileResponse{
		Key: key, Cached: cached, Joined: joined,
		Machine: res.Image.Cfg.Name,
		Instrs:  len(res.Image.Instrs), Ops: int64(ops),
		FixedBytes: fixed, PackedBytes: packed,
		Attempts:  res.Attempts,
		CompileMs: time.Since(start).Milliseconds(),
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Run.Requests.Add(1)
	var req RunRequest
	if !s.decode(w, r, 1, &req) {
		return
	}
	tier := req.Run.Tier
	release, ok := s.admitRequest(w, &s.metrics.Run)
	if !ok {
		return
	}
	defer release()

	key := Key(req.Source, req.Options)
	cctx, cancelCompile := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	art, cachedBuild, _, err := s.artifact(cctx, key, req.Source, req.Options)
	cancelCompile()
	if err != nil {
		s.writeCompileError(w, err)
		return
	}

	rkey := runKey(key, tier, req.Run.MaxCycles)
	var out core.ExitResult
	cachedResult := false
	if !req.Run.NoCache {
		if out, cachedResult = s.runs.get(rkey); cachedResult {
			s.metrics.RunHits.Add(1)
		} else {
			s.metrics.RunMisses.Add(1)
		}
	}
	if !cachedResult {
		rctx, cancelRun := context.WithTimeout(r.Context(), s.cfg.RunTimeout)
		out, err = s.runArtifact(rctx, key, art, nil, tier, req.Run.MaxCycles)
		cancelRun()
		if err != nil {
			// A deadline-exceeded run with a captured snapshot is not a
			// failure: checkpoint it and hand back a resume token.
			if s.maybePause(w, r, snapMeta{ArtKey: key, Source: req.Source, Options: req.Options}, out, err) {
				s.metrics.Run.Latency.observe(time.Since(start))
				return
			}
			s.writeRunError(w, err)
			return
		}
		if !req.Run.NoCache {
			s.runs.add(rkey, out, 1)
		}
	}
	s.metrics.Run.Latency.observe(time.Since(start))
	s.metrics.countRunTier(out.Tier)
	writeJSON(w, http.StatusOK, RunResponse{
		Key: key, CachedBuild: cachedBuild, CachedResult: cachedResult,
		Tier: out.Tier,
		Exit: out.Exit, Output: out.Output,
		Stats: wireStats(out.Stats),
	})
}

// borrow takes a pooled machine for one execution, and is the one place that
// does; the caller defers giveBack, so that the machine goes back exactly once
// on every path — including a panic unwinding through the caller, and
// cancellation: a run returns at a beat boundary with the machine in a
// consistent (if incomplete) state, and the next Reset re-initializes
// everything.
func (s *Server) borrow() *vliw.Machine {
	s.metrics.MachinesInUse.Add(1)
	return s.machines.Get().(*vliw.Machine)
}

func (s *Server) giveBack(m *vliw.Machine) {
	s.metrics.MachinesInUse.Add(-1)
	s.machines.Put(m)
}

// built books what the run m has just finished had to build and reports whether
// it was anything — it is nothing once the artifacts' plans are warm, whichever
// machine of the pool the run drew. An artifact pins what machines build on its
// plan: the caller has the cache charge it again (recharge).
func (s *Server) built(m *vliw.Machine) bool {
	plans, regions := m.Builds()
	s.metrics.PlanBuilds.Add(plans)
	s.metrics.RegionBuilds.Add(regions)
	return plans != 0 || regions != 0
}

// recharge has the artifact cache charge art, cached under key, what it holds
// now.
func (s *Server) recharge(key string, art *core.Artifact) {
	s.artifacts.recost(key, artifactCost(key, art))
}

// runArtifact executes the artifact, cached under key, on a pooled machine —
// from the snapshot when there is one (a /resume), from boot otherwise. When
// checkpointing is on, an interrupted run carries its resume snapshot in the
// result alongside the error.
func (s *Server) runArtifact(ctx context.Context, key string, art *core.Artifact, snap []byte, tier vliw.Tier, maxCycles int64) (out core.ExitResult, err error) {
	m := s.borrow()
	defer s.giveBack(m)
	o := core.RunOptions{Tier: tier, MaxCycles: maxCycles, SnapshotOnInterrupt: s.snapshots != nil}
	if snap != nil {
		out, err = art.RunFromOn(ctx, m, snap, o)
	} else {
		out, err = art.RunOn(ctx, m, o)
	}
	if s.built(m) {
		s.recharge(key, art)
	}
	return out, err
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Lint.Requests.Add(1)
	var req CompileRequest
	if !s.decode(w, r, 1, &req) {
		return
	}
	release, ok := s.admitRequest(w, &s.metrics.Lint)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	defer cancel()

	key := Key(req.Source, req.Options)
	art, cached, _, err := s.artifact(ctx, key, req.Source, req.Options)
	if err != nil {
		s.writeCompileError(w, err)
		return
	}
	rep := art.Lint()
	resp := LintResponse{
		Key: key, Cached: cached,
		Clean:    len(rep.Errors()) == 0,
		Errors:   len(rep.Errors()),
		Warnings: len(rep.Warnings()),
		Words:    rep.Words, Reachable: rep.Reachable,
	}
	for _, f := range rep.Findings {
		resp.Findings = append(resp.Findings, LintFinding{
			Check: f.Check, Severity: sevString(f.Sev),
			Word: f.Word, Beat: f.Beat, Unit: f.Unit,
			Func: f.Func, Line: f.Line, Msg: f.Msg,
		})
	}
	s.metrics.Lint.Latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

func sevString(sev schedcheck.Severity) string {
	if sev == schedcheck.Error {
		return "error"
	}
	return "warning"
}

// unmarshalBody is json.Unmarshal for a request body, except that a field the
// request type does not have is an error naming it: a client that sends an
// option this server does not know (the pre-Tier {"run":{"fast":true}}) must
// not have it dropped and be answered as if it had been honoured.
func unmarshalBody(raw []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the request object")
	}
	return nil
}

// decode reads a request body into dst — the one place a body is read — and
// holds it to every rule a request must meet before anything is compiled or
// run: the method, a size limit for a body of up to the given number of
// programs, no unknown field, and what check asks of the request's type.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, programs int64, dst any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Kind: "bad_request", Msg: "use POST"})
		return false
	}
	// The JSON envelope adds framing overhead on top of a source; 4x plus
	// slack bounds the body without rejecting any legal source.
	body := http.MaxBytesReader(w, r.Body, programs*4*s.cfg.MaxSourceBytes+4096)
	raw, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
			Kind: "bad_request", Msg: "request body too large"})
		return false
	}
	if err := unmarshalBody(raw, dst); err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Kind: "bad_request", Msg: "malformed JSON: " + err.Error()})
		return false
	}
	if status, msg := s.check(dst); msg != "" {
		writeError(w, status, ErrorBody{Kind: "bad_request", Msg: msg})
		return false
	}
	return true
}

// check validates a parsed request of any of the four body types: every
// source present and within MaxSourceBytes, the compile options legal, every
// beat count non-negative (a negative max_cycles would run on the default
// budget and be memoised under a key of its own). It returns the status and
// message of the first rule broken, "" when none is.
func (s *Server) check(dst any) (status int, msg string) {
	var srcs []string
	var opts *Options
	var run RunManyRunOptions // the beat counts of whichever request this is
	switch d := dst.(type) {
	case *CompileRequest:
		srcs, opts = []string{d.Source}, &d.Options
	case *RunRequest:
		srcs, opts, run.MaxCycles = []string{d.Source}, &d.Options, d.Run.MaxCycles
	case *RunManyRequest:
		if n := len(d.Programs); n == 0 || n > maxRunManyPrograms {
			return http.StatusBadRequest, fmt.Sprintf("programs must number 1..%d (got %d)", maxRunManyPrograms, n)
		}
		for _, p := range d.Programs {
			srcs = append(srcs, p.Source)
		}
		opts, run = &d.Options, d.Run
	case *ResumeRequest:
		if d.Token == "" {
			return http.StatusBadRequest, "empty token"
		}
		run.MaxCycles = d.Run.MaxCycles
	}
	for i, src := range srcs {
		if src == "" {
			return http.StatusBadRequest, fmt.Sprintf("program %d: empty source", i)
		}
		if int64(len(src)) > s.cfg.MaxSourceBytes {
			return http.StatusRequestEntityTooLarge, fmt.Sprintf("program %d is %d bytes; limit %d", i, len(src), s.cfg.MaxSourceBytes)
		}
	}
	if opts != nil {
		if err := opts.validate(); err != nil {
			return http.StatusBadRequest, err.Error()
		}
	}
	switch {
	case run.MaxCycles < 0:
		return http.StatusBadRequest, `"max_cycles" must be non-negative`
	case run.Quantum < 0:
		return http.StatusBadRequest, `"quantum" must be non-negative`
	case run.SwitchBeats < 0:
		return http.StatusBadRequest, `"switch_beats" must be non-negative`
	}
	return 0, ""
}

// writeCompileError maps a compilation failure to its transport status:
// frontend diagnostics and capacity rejections are the client's problem
// (400/422 with structure preserved), deadlines are 504.
func (s *Server) writeCompileError(w http.ResponseWriter, err error) {
	var lerr *lang.Error
	if errors.As(err, &lerr) {
		s.metrics.CompileErrors.Add(1)
		file := lerr.File
		if file == "" {
			file = "input"
		}
		writeError(w, http.StatusBadRequest, ErrorBody{
			Kind: "compile", Msg: lerr.Msg,
			Pos: &ErrorPos{File: file, Line: lerr.Pos.Line, Col: lerr.Pos.Col},
		})
		return
	}
	var ep *tsched.ErrPressure
	var es *tsched.ErrScheduleSize
	if errors.As(err, &ep) || errors.As(err, &es) {
		s.metrics.CompileErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, ErrorBody{Kind: "capacity", Msg: err.Error()})
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.Timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, ErrorBody{Kind: "timeout", Msg: err.Error()})
		return
	}
	if errors.Is(err, context.Canceled) {
		// The client went away; nobody is reading this response.
		writeError(w, statusClientClosedRequest, ErrorBody{Kind: "timeout", Msg: err.Error()})
		return
	}
	s.metrics.CompileErrors.Add(1)
	writeError(w, http.StatusBadRequest, ErrorBody{Kind: "compile", Msg: err.Error()})
	return
}

// statusClientClosedRequest is nginx's convention for "the client
// disconnected before the response"; there is no standard code.
const statusClientClosedRequest = 499

func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var ec *vliw.ErrCanceled
	if errors.As(err, &ec) {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.Timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, ErrorBody{
				Kind: "timeout",
				Msg:  fmt.Sprintf("run exceeded its deadline: %v", err)})
			return
		}
		writeError(w, statusClientClosedRequest, ErrorBody{Kind: "timeout", Msg: err.Error()})
		return
	}
	writeError(w, http.StatusBadRequest, ErrorBody{Kind: "run", Msg: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	writeJSON(w, status, map[string]ErrorBody{"error": body})
}
