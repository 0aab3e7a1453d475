package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// maxRunManyPrograms bounds a /runmany batch. The simulator supports up to
// 255 hardware contexts; the serving bound is lower because each tenant
// carries a full compilation and a multi-megabyte context memory.
const maxRunManyPrograms = 16

// wireStats maps the simulator's counters to their wire subset.
func wireStats(st vliw.Stats) RunStats {
	return RunStats{
		Beats: st.Beats, Instrs: st.Instrs, Ops: st.Ops,
		MemRefs: st.MemRefs, BankStalls: st.BankStalls,
		SpecLoads: st.SpecLoads, ICacheMiss: st.ICacheMiss,
		TLBMisses: st.TLBMisses, MIPS: st.MIPS(),
	}
}

// decodeRunMany parses and validates a /runmany body. It mirrors decode but
// sizes the body limit to the batch bound and validates every source.
func (s *Server) decodeRunMany(w http.ResponseWriter, r *http.Request, req *RunManyRequest) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Kind: "bad_request", Msg: "use POST"})
		return false
	}
	body := http.MaxBytesReader(w, r.Body, maxRunManyPrograms*4*s.cfg.MaxSourceBytes+4096)
	raw, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
			Kind: "bad_request", Msg: "request body too large"})
		return false
	}
	if err := unmarshalBody(raw, req); err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Kind: "bad_request", Msg: "malformed JSON: " + err.Error()})
		return false
	}
	if len(req.Programs) == 0 || len(req.Programs) > maxRunManyPrograms {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Kind: "bad_request",
			Msg:  fmt.Sprintf("programs must number 1..%d (got %d)", maxRunManyPrograms, len(req.Programs))})
		return false
	}
	for i, p := range req.Programs {
		if p.Source == "" {
			writeError(w, http.StatusBadRequest, ErrorBody{
				Kind: "bad_request", Msg: fmt.Sprintf("program %d: empty source", i)})
			return false
		}
		if int64(len(p.Source)) > s.cfg.MaxSourceBytes {
			writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
				Kind: "bad_request",
				Msg:  fmt.Sprintf("program %d is %d bytes; limit %d", i, len(p.Source), s.cfg.MaxSourceBytes)})
			return false
		}
	}
	if err := req.Options.validate(); err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Kind: "bad_request", Msg: err.Error()})
		return false
	}
	switch req.Run.Tenancy {
	case "", "contexts", "machines":
	default:
		writeError(w, http.StatusBadRequest, ErrorBody{
			Kind: "bad_request",
			Msg:  fmt.Sprintf("tenancy must be \"contexts\" or \"machines\" (got %q)", req.Run.Tenancy)})
		return false
	}
	if req.Run.Quantum < 0 || req.Run.SwitchBeats < 0 || req.Run.MaxCycles < 0 {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Kind: "bad_request", Msg: "quantum, switch_beats, and max_cycles must be non-negative"})
		return false
	}
	return true
}

// handleRunMany serves POST /runmany: K programs compile (through the same
// content-addressed cache as /run) and execute as one batch. Under the
// default "contexts" tenancy they time-share ONE pooled machine's hardware
// contexts — one admission slot, one machine, K results — instead of
// holding K machines; "machines" runs them the conventional way on one
// pooled machine each, concurrently, so the two modes are directly
// comparable on the same request. Batch results are not memoized: the
// per-tenant results equal the solo results /run caches, and the scheduler
// counters are what callers come here to measure.
func (s *Server) handleRunMany(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.RunMany.Requests.Add(1)
	var req RunManyRequest
	if !s.decodeRunMany(w, r, &req) {
		return
	}
	tier := req.Run.Tier
	release, ok := s.admitRequest(w, &s.metrics.RunMany)
	if !ok {
		return
	}
	defer release()

	// Compile every distinct program once; duplicates share the artifact.
	cctx, cancelCompile := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	arts := make([]*core.Artifact, len(req.Programs))
	keys := make([]string, len(req.Programs))
	cachedBuild := make([]bool, len(req.Programs))
	for i, p := range req.Programs {
		keys[i] = Key(p.Source, req.Options)
		art, cached, _, err := s.artifact(cctx, keys[i], p.Source, req.Options)
		if err != nil {
			cancelCompile()
			s.writeCompileError(w, err)
			return
		}
		arts[i] = art
		cachedBuild[i] = cached
	}
	cancelCompile()

	rctx, cancelRun := context.WithTimeout(r.Context(), s.cfg.RunTimeout)
	defer cancelRun()
	resp := RunManyResponse{Results: make([]RunManyResult, len(arts))}
	ro := core.RunManyOptions{
		Tier: tier, MaxCycles: req.Run.MaxCycles,
		Quantum: req.Run.Quantum, SwitchBeats: req.Run.SwitchBeats,
	}

	if req.Run.Tenancy == "machines" {
		resp.Tenancy = "machines"
		var wg sync.WaitGroup
		for i, art := range arts {
			wg.Add(1)
			go func(i int, art *core.Artifact) {
				defer wg.Done()
				out, err := s.runArtifact(rctx, art, tier, req.Run.MaxCycles)
				resp.Results[i] = RunManyResult{
					Key: keys[i], CachedBuild: cachedBuild[i],
					Tier: out.Tier,
					Exit: out.Exit, Output: out.Output,
					Stats: wireStats(out.Stats),
				}
				s.metrics.countRunTier(out.Tier)
				if err != nil {
					resp.Results[i].Error = err.Error()
				}
			}(i, art)
		}
		wg.Wait()
	} else {
		resp.Tenancy = "contexts"
		// The machine goes back to the pool on EVERY path out of this
		// handler — success, whole-batch error, or a panic unwinding through
		// it — exactly once, which is what the deferred return guarantees
		// and what the pool-leak test exercises.
		rs, sched, err := func() ([]core.ManyResult, vliw.SchedStats, error) {
			m := s.machines.Get().(*vliw.Machine)
			s.metrics.MachinesInUse.Add(1)
			defer func() {
				s.metrics.MachinesInUse.Add(-1)
				s.machines.Put(m)
			}()
			return core.RunManyOn(rctx, m, arts, ro)
		}()
		if err != nil {
			s.writeRunError(w, err)
			return
		}
		for i, res := range rs {
			resp.Results[i] = RunManyResult{
				Key: keys[i], CachedBuild: cachedBuild[i],
				Tier: res.Tier,
				Exit: res.Exit, Output: res.Output,
				Stats: wireStats(res.Stats),
			}
			s.metrics.countRunTier(res.Tier)
			if res.Err != nil {
				resp.Results[i].Error = res.Err.Error()
			}
		}
		resp.Sched = &SchedResponse{
			Contexts: sched.Contexts, TotalBeats: sched.TotalBeats,
			BusyBeats: sched.BusyBeats, HiddenBeats: sched.HiddenBeats,
			Switches: sched.Switches, SwitchBeats: sched.SwitchBeats,
		}
	}
	s.metrics.RunMany.Latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}
