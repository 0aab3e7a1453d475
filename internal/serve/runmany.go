package serve

import (
	"context"
	"net/http"
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

// handleRunMany serves POST /runmany: K programs compile (through the same
// content-addressed cache as /run) and execute as one batch, time-sharing
// ONE pooled machine's hardware contexts — one admission slot, one machine,
// K results. (K machines is K /run requests.) Batch results are not memoized:
// the per-tenant results equal the solo results /run caches, and the
// scheduler counters are what callers come here to measure.
func (s *Server) handleRunMany(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.RunMany.Requests.Add(1)
	var req RunManyRequest
	if !s.decode(w, r, maxRunManyPrograms, &req) {
		return
	}
	release, ok := s.admitRequest(w, &s.metrics.RunMany)
	if !ok {
		return
	}
	defer release()

	// Compile every distinct program once; duplicates share the artifact.
	cctx, cancelCompile := context.WithTimeout(r.Context(), s.cfg.CompileTimeout)
	arts, keys := make([]*core.Artifact, len(req.Programs)), make([]string, len(req.Programs))
	resp := RunManyResponse{Results: make([]RunManyResult, len(arts))}
	for i, p := range req.Programs {
		res := &resp.Results[i]
		res.Key = Key(p.Source, req.Options)
		art, cached, _, err := s.artifact(cctx, res.Key, p.Source, req.Options)
		if err != nil {
			cancelCompile()
			s.writeCompileError(w, err)
			return
		}
		arts[i], keys[i], res.CachedBuild = art, res.Key, cached
	}
	cancelCompile()

	rctx, cancelRun := context.WithTimeout(r.Context(), s.cfg.RunTimeout)
	rs, sched, err := s.runBatch(rctx, keys, arts, core.RunManyOptions{
		Tier: req.Run.Tier, MaxCycles: req.Run.MaxCycles,
		Quantum: req.Run.Quantum, SwitchBeats: req.Run.SwitchBeats,
	})
	cancelRun()
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	for i, res := range rs {
		out := &resp.Results[i]
		out.Tier, out.Exit, out.Output, out.Stats = res.Tier, res.Exit, res.Output, wireStats(res.Stats)
		s.metrics.countRunTier(res.Tier)
		if res.Err != nil {
			out.Error = res.Err.Error()
		}
	}
	resp.Sched = SchedResponse{
		Contexts: sched.Contexts, TotalBeats: sched.TotalBeats,
		BusyBeats: sched.BusyBeats, HiddenBeats: sched.HiddenBeats,
		Switches: sched.Switches, SwitchBeats: sched.SwitchBeats,
	}
	s.metrics.RunMany.Latency.observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// runBatch is runArtifact for a batch: the machine is back in the pool before
// the response is written.
func (s *Server) runBatch(ctx context.Context, keys []string, arts []*core.Artifact, o core.RunManyOptions) ([]core.ManyResult, vliw.SchedStats, error) {
	m := s.borrow()
	defer s.giveBack(m)
	rs, sched, err := core.RunManyOn(ctx, m, arts, o)
	if s.built(m) {
		for i, art := range arts {
			s.recharge(keys[i], art)
		}
	}
	return rs, sched, err
}
