package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/multiflow-repro/trace"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// tiers are the two passes every workload makes: the reference tier and the
// closure-threaded one (the two modes ROADMAP proposes to keep).
var tiers = []vliw.Tier{vliw.TierChecked, vliw.TierNative}

// rounds splits each tier pass; passes are interleaved checked/native so
// slow drift of the host hits both alike. Every timing metric is computed
// per round and the quietest round is reported: the highest throughput, the
// lowest latency at each percentile. The reference host is shared, and what
// its other tenants do only ever slows a round down (whole minutes run 10-20 %
// slow), so the quiet rounds show the program; a pause the program itself
// causes recurs in every round and survives the choice. Twenty short rounds
// find a quiet stretch far more often than five long ones: over ten runs of
// one binary the spread of a round median fell from 15 % to 9 %.
const rounds = 20

// workload is one fixed op list. perSecond sizes the list from --seconds
// (ops per tier per round = perSecond x seconds), so the list is the same
// on every commit and takes about --seconds on the reference host.
type workload struct {
	name      string
	programs  []string
	perSecond float64
	rounds    int
	// poolP50 and poolTail take the latency percentile over all ops of a
	// round; otherwise it is taken per program and the programs are combined
	// by geometric mean (see quantileMs).
	poolP50, poolTail bool
	// tail is the fixed percentile of op_tail_ms. The rule is the highest
	// percentile with ten samples beyond it, capped at p99: p58 for
	// cold-build's 24 ops, p99 for serve-hit's 4000 requests a round. On the
	// hot workloads it is the upper quartile of a kernel's ops in a round:
	// above that the latency of a 1 ms CPU-bound op is the host's jitter,
	// whose spread over ten runs is 15-40 %.
	tail float64
	open func(progs []*program, tr *tracer) (session, error)
}

// session is a workload after set-up: caches filled, servers listening.
type session interface {
	// round runs n units of the op list on one tier, recording a sample per
	// op; order is the seeded source of op order. With a tracer it records a
	// span around every call into a layer.
	round(tier vliw.Tier, n int, order *rand.Rand, rec *recorder, tr *tracer)
	// sim returns the simulated-machine totals over the distinct programs.
	sim() simTotals
	close()
}

// simTotals are simulated-machine quantities; they are exact and must not
// move when only the simulator's host speed changes.
type simTotals struct {
	beats, ops, instrs, codeBytes int64
	speedups                      []float64 // scalar beats / TRACE beats, per program
}

func (s *simTotals) add(p *program, st vliw.Stats, packedBytes int64) {
	s.beats += st.Beats
	s.ops += st.Ops
	s.instrs += st.Instrs
	s.codeBytes += packedBytes
	s.speedups = append(s.speedups, float64(p.scalarBeats)/float64(st.Beats))
}

// recorder collects one tier's samples and verdicts. Clients of serve-hit
// share it, hence the lock.
type recorder struct {
	mu       sync.Mutex
	samples  []sample // one per op attempted
	failed   int
	firstErr error
}

func (r *recorder) record(class int, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{class, d})
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// checkResult compares one execution with the program's expectation.
func checkResult(p *program, exit int32, out string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if exit != p.exit || out != p.output {
		return fmt.Errorf("%s: exit %d, want %d (or output differs)", p.name, exit, p.exit)
	}
	return nil
}

var (
	// The hot lists are ordered by the cost of the safety analysis, dearest
	// first: set-up prepares two kernels at a time and packs best that way,
	// and a smoke run (--programs N) takes the cheap tail.
	numericKernels = []string{"fft", "tridiag", "hydro", "fir", "matmul", "dot", "daxpy", "vsum"}
	systemsKernels = []string{"scanner", "hash", "list", "sieve", "sort", "fib"}
	// coldPrograms alternates kernels with generated programs so that every
	// prefix is a mix. The twelve generated programs are the ones of seeds
	// 1-24 whose safety analysis is cheapest: the full draw would make one
	// run take a minute. The list is fixed, not drawn from --seed, because
	// programs differ in cost and a metric must not move with the seed.
	coldPrograms = []string{
		"daxpy", "gen05", "sort", "gen06", "dot", "gen07", "scanner", "gen15",
		"fir", "gen16", "hash", "gen18", "matmul", "gen19", "list", "gen20",
		"hydro", "gen21", "fib", "gen22", "tridiag", "gen23", "sieve", "gen24",
	}
	// serveHot is the server's hot set; the last four are the smallest
	// programs and take the no_cache requests.
	serveHot = []string{"sort", "fib", "hash", "list", "dot", "sieve", "daxpy", "vsum"}
)

var workloads = []*workload{
	{name: "numeric-hot", programs: numericKernels, perSecond: 1, rounds: rounds, tail: 0.75, open: openHot},
	{name: "systems-hot", programs: systemsKernels, perSecond: 0.6, rounds: rounds, tail: 0.75, open: openHot},
	// Each program is built once per tier, so there is one round; its median
	// is per program because the pooled one falls into the gap between two
	// programs' costs and jumps when noise swaps their order.
	{name: "cold-build", programs: coldPrograms, perSecond: 2.4, rounds: 1, poolTail: true, tail: 0.58, open: openCold},
	{name: "serve-hit", programs: serveHot, perSecond: 400, rounds: rounds, poolP50: true, poolTail: true, tail: 0.99, open: openServe},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// units is the length of one round's op list for a run of the given length.
func (w *workload) units(seconds float64) int {
	return int(math.Max(1, math.Ceil(w.perSecond*seconds)))
}

// ---- numeric-hot and systems-hot: Artifact.RunOn on a dedicated machine ----

type hotProgram struct {
	*program
	art *trace.Artifact
	m   *trace.Machine
}

type hotSession struct {
	progs  []hotProgram
	totals simTotals
}

// openHot builds, certifies and translates every kernel, and proves all four
// tiers give identical results and counters. Two kernels are prepared at a
// time: the host has two processors and the safety analysis is serial.
func openHot(progs []*program, _ *tracer) (session, error) {
	s := &hotSession{progs: make([]hotProgram, len(progs))}
	stats := make([]vliw.Stats, len(progs))
	errs := make([]error, len(progs))
	next := make(chan int, len(progs)) // one slot per kernel: the feeder never blocks
	for i := range progs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s.progs[i], stats[i], errs[i] = prepareHot(progs[i])
			}
		}()
	}
	wg.Wait()
	for i, p := range s.progs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		_, packed, _ := p.art.Image().CodeSizes()
		s.totals.add(p.program, stats[i], packed)
	}
	return s, nil
}

func prepareHot(p *program) (hotProgram, vliw.Stats, error) {
	ctx := context.Background()
	art, err := trace.Build(ctx, p.src, trace.Options{})
	if err != nil {
		return hotProgram{}, vliw.Stats{}, fmt.Errorf("%s: %w", p.name, err)
	}
	hp := hotProgram{program: p, art: art, m: art.Machine()}
	var ref vliw.Stats
	for _, tier := range []vliw.Tier{vliw.TierChecked, vliw.TierFast, vliw.TierSafe, vliw.TierNative} {
		res, err := art.RunOn(ctx, hp.m, trace.RunOptions{Tier: tier})
		if err := checkResult(p, res.Exit, res.Output, err); err != nil {
			return hotProgram{}, vliw.Stats{}, fmt.Errorf("tier %v: %w", tier, err)
		}
		if tier == vliw.TierChecked {
			ref = res.Stats
		} else if res.Stats != ref {
			return hotProgram{}, vliw.Stats{}, fmt.Errorf("%s: tier %v counters differ from checked: %+v vs %+v", p.name, tier, res.Stats, ref)
		}
	}
	return hp, ref, nil
}

func (s *hotSession) round(tier vliw.Tier, n int, order *rand.Rand, rec *recorder, tr *tracer) {
	ctx := context.Background()
	for range n {
		for _, k := range order.Perm(len(s.progs)) {
			p := s.progs[k]
			var res trace.ExitResult
			var err error
			t0 := time.Now()
			if tr == nil {
				res, err = p.art.RunOn(ctx, p.m, trace.RunOptions{Tier: tier})
			} else {
				res, err = p.tracedRunOn(ctx, tier, tr)
			}
			d := time.Since(t0)
			err = checkResult(p.program, res.Exit, res.Output, err)
			if err == nil && res.Tier != tier {
				err = fmt.Errorf("%s: ran on tier %v, want %v", p.name, res.Tier, tier)
			}
			rec.record(k, d, err)
		}
	}
}

// tracedRunOn is Artifact.RunOn taken apart into its calls on the vliw
// layer, each under a span.
func (p hotProgram) tracedRunOn(ctx context.Context, tier vliw.Tier, tr *tracer) (res trace.ExitResult, err error) {
	op := tr.root("op:"+p.name+":"+tier.String(), 0)
	defer tr.end(op)
	tr.do("vliw.Reset", op, func() { p.m.Reset(p.art.Image()) })
	if tier == vliw.TierNative {
		cert, cerr := p.art.CertifySafe()
		if cerr != nil {
			return res, cerr
		}
		tr.do("vliw.UseNativeCertificate", op, func() { err = p.m.UseNativeCertificate(cert) })
		if err != nil {
			return res, err
		}
	}
	tr.do("vliw.RunContext", op, func() { res.Exit, res.Output, err = p.m.RunContext(ctx) })
	res.Stats, res.Tier = p.m.Stats, p.m.Tier()
	return res, err
}

func (s *hotSession) sim() simTotals { return s.totals }
func (s *hotSession) close()         {}

// ---- cold-build: trace.Build + Artifact.Run on a fresh machine ----

type coldSession struct {
	progs  []*program
	totals simTotals
	seen   map[string]bool
}

func openCold(progs []*program, _ *tracer) (session, error) {
	return &coldSession{progs: progs, seen: map[string]bool{}}, nil
}

func (s *coldSession) round(tier vliw.Tier, n int, order *rand.Rand, rec *recorder, tr *tracer) {
	ctx := context.Background()
	n = min(n, len(s.progs))
	for _, k := range order.Perm(n) {
		p := s.progs[k]
		var res trace.ExitResult
		var packed int64
		var err error
		t0 := time.Now()
		if tr == nil {
			var art *trace.Artifact
			if art, err = trace.Build(ctx, p.src, trace.Options{}); err == nil {
				res, err = art.Run(ctx, trace.RunOptions{Tier: tier})
				_, packed, _ = art.Image().CodeSizes()
			}
		} else {
			var st *staged
			if st, err = stagedRequest(ctx, tr, p, tier); err == nil {
				res = st.res
				_, packed, _ = st.img.CodeSizes()
			}
		}
		d := time.Since(t0)
		err = checkResult(p, res.Exit, res.Output, err)
		if err == nil && res.Tier != tier {
			err = fmt.Errorf("%s: ran on tier %v, want %v", p.name, res.Tier, tier)
		}
		rec.record(k, d, err)
		if err == nil && !s.seen[p.name] {
			s.seen[p.name] = true
			s.totals.add(p, res.Stats, packed)
		}
	}
}

func (s *coldSession) sim() simTotals { return s.totals }
func (s *coldSession) close()         {}
