package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"github.com/multiflow-repro/trace"
	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/serve"
	"github.com/multiflow-repro/trace/internal/tsched"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// staged is one request walked through the layers by hand, in the order
// core.CompileIR and Artifact.Run call them.
type staged struct {
	prog    *ir.Program
	work    *ir.Program // optimised IR of the successful attempt
	codes   []*tsched.FuncCode
	img     *isa.Image
	lint    *schedcheck.Report
	cert    *schedcheck.Certificate
	safety  *safecheck.Report
	safe    *safecheck.SafeCertificate
	res     trace.ExitResult
	opsIn   int
	retries int
}

// stagedRequest compiles, verifies and runs p with a span around every call
// into a layer's public functions, including the pressure-retry ladder of
// core.CompileIR. The native tier adds the safety analysis and the
// translation, as Artifact.Run would.
func stagedRequest(ctx context.Context, tr *tracer, p *program, tier vliw.Tier) (*staged, error) {
	st := &staged{}
	cfg := mach.Trace28()
	op := tr.root("op:"+p.name+":"+tier.String(), 0)
	defer tr.end(op)
	var err error
	var file *lang.File
	tr.do("lang.Parse", op, func() { file, err = lang.Parse(p.src) })
	if err != nil {
		return nil, err
	}
	tr.do("lang.Lower", op, func() { st.prog, err = lang.Lower(file) })
	if err != nil {
		return nil, err
	}
	if err := st.prog.Validate(); err != nil {
		return nil, err
	}
	optCfg := opt.Default()
	for {
		work := st.prog.Clone()
		pctx := pipeline.NewContext()
		st.opsIn = pipeline.CountOps(work)
		for _, pass := range opt.Passes(optCfg) {
			tr.do("opt."+pass.Name(), op, func() { err = pipeline.Run(ctx, work, pctx, pass) })
			if err != nil {
				return nil, err
			}
		}
		tr.do("profile.Static", op, func() { err = pipeline.Run(ctx, work, pctx, profile.Pass(false)) })
		if err != nil {
			return nil, err
		}
		tr.do("tsched.CompileParallel", op, func() {
			st.codes, err = tsched.CompileParallel(ctx, work, cfg, pctx.Profile, tsched.CompileOptions{})
		})
		if err != nil {
			var ep *tsched.ErrPressure
			var es *tsched.ErrScheduleSize
			capacity := errors.As(err, &ep) || errors.As(err, &es)
			switch {
			case capacity && optCfg.UnrollFactor > 1:
				optCfg.UnrollFactor /= 2
			case capacity && optCfg.Inline:
				optCfg.Inline = false
			default:
				return nil, err
			}
			st.retries++
			continue
		}
		tr.do("isa.Link", op, func() { st.img, err = isa.Link(work, st.codes, cfg) })
		if err != nil {
			return nil, err
		}
		st.work = work
		break
	}
	if tier == vliw.TierNative {
		tr.do("schedcheck.Check", op, func() {
			st.lint = schedcheck.Check(st.img, schedcheck.Options{Src: schedcheck.NewSourceMap(st.img, st.codes)})
			st.cert, err = st.lint.Certify()
		})
		if err != nil {
			return nil, err
		}
		tr.do("safecheck.Analyze", op, func() {
			st.safety = safecheck.Analyze(st.img, safecheck.Options{Src: schedcheck.NewSourceMap(st.img, st.codes)})
			st.safe, err = st.safety.Certify(st.cert)
		})
		if err != nil {
			return nil, err
		}
	}
	var m *vliw.Machine
	tr.do("vliw.New", op, func() { m = vliw.New(st.img) })
	if tier == vliw.TierNative {
		tr.do("vliw.UseNativeCertificate", op, func() { err = m.UseNativeCertificate(st.safe) })
		if err != nil {
			return nil, err
		}
	}
	tr.do("vliw.RunContext", op, func() { st.res.Exit, st.res.Output, err = m.RunContext(ctx) })
	st.res.Stats, st.res.Tier = m.Stats, m.Tier()
	return st, err
}

// meanUs is a total over n programs as microseconds per program.
func meanUs(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// medianOf runs prep (untimed, may be nil) then f (timed) several times and
// returns the median time of f.
func medianOf(times int, prep, f func()) time.Duration {
	ds := make([]float64, times)
	for i := range ds {
		if prep != nil {
			prep()
		}
		ds[i] = float64(timeIt(f))
	}
	return time.Duration(median(ds))
}

// mallocs returns the heap allocations and bytes f made.
func mallocs(f func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// layerWalk measures every layer on the workload's own programs: one
// request staged by hand per program, then probes of the machine, the
// Artifact API, the baselines and the service. Times are means per program
// unless the name says otherwise; counts are totals over the programs.
func layerWalk(tr *tracer, progs []*program, out metrics) error {
	ctx := context.Background()
	us := func(d time.Duration) float64 { return meanUs(d, len(progs)) }

	from := tr.mark()
	sts := make([]*staged, len(progs))
	var lex time.Duration
	tokens := 0
	for i, p := range progs {
		lex += timeIt(func() {
			toks, _ := lang.Lex(p.src)
			tokens += len(toks)
		})
		st, err := stagedRequest(ctx, tr, p, vliw.TierNative)
		if err == nil {
			err = checkResult(p, st.res.Exit, st.res.Output, nil)
		}
		if err != nil {
			return fmt.Errorf("staged request for %s: %w", p.name, err)
		}
		sts[i] = st
	}
	total, self := layerTotals(tr.spans, from)
	var ops, layers, optRun, compile time.Duration
	for name, d := range total {
		switch {
		case strings.HasPrefix(name, "op:"):
			ops += d
		case strings.HasPrefix(name, "opt."):
			optRun += d
			fallthrough
		default:
			layers += self[name]
			if !strings.HasPrefix(name, "vliw.") && !strings.HasPrefix(name, "schedcheck.") && !strings.HasPrefix(name, "safecheck.") {
				compile += d
			}
		}
	}
	out.set("bench.layer_cover_ratio", float64(layers)/float64(ops), "ratio")
	out.set("lang.lex_us", us(lex), "us")
	out.set("lang.parse_us", us(total["lang.Parse"]-lex), "us") // Parse lexes first
	out.set("lang.lower_us", us(total["lang.Lower"]), "us")
	out.set("lang.tokens", float64(tokens), "count")
	out.set("opt.run_us", us(optRun), "us")
	for _, pass := range []string{"inline", "cleanup", "licm", "unroll", "taildup", "post-cleanup", "dce"} {
		out.set("opt.pass_us."+pass, us(total["opt."+pass]), "us")
	}
	out.set("profile.static_us", us(total["profile.Static"]), "us")
	out.set("tsched.compile_us", us(total["tsched.CompileParallel"]), "us")
	out.set("isa.link_us", us(total["isa.Link"]), "us")
	out.set("schedcheck.check_us", us(total["schedcheck.Check"]), "us")
	out.set("safecheck.analyze_us", us(total["safecheck.Analyze"]), "us")
	out.set("vliw.new_us", us(total["vliw.New"]), "us")
	out.set("vliw.translate_us", us(total["vliw.UseNativeCertificate"]), "us")

	var irOps, opsIn, opsOut, instrs, compOps, specLoads, copies, retries, words, warnings, sites, proven int
	var fixed, packed int64
	for _, st := range sts {
		irOps += pipeline.CountOps(st.prog)
		opsIn += st.opsIn
		opsOut += pipeline.CountOps(st.work)
		retries += st.retries
		for _, c := range st.codes {
			instrs += len(c.Instrs)
			compOps += c.CompOps
			specLoads += c.SpecLoads
			copies += c.CopyOps
		}
		f, pk, _ := st.img.CodeSizes()
		fixed += f
		packed += pk
		words += st.lint.Words
		warnings += len(st.lint.Warnings())
		sites += st.safety.Total()
		proven += st.safety.Proven()
	}
	out.set("lang.ir_ops", float64(irOps), "count")
	out.set("opt.ops_in", float64(opsIn), "count")
	out.set("opt.ops_out", float64(opsOut), "count")
	out.set("tsched.instrs", float64(instrs), "count")
	out.set("tsched.comp_ops", float64(compOps), "count")
	out.set("tsched.spec_loads", float64(specLoads), "count")
	out.set("tsched.xbank_copies", float64(copies), "count")
	out.set("tsched.retries", float64(retries), "count")
	out.set("isa.fixed_bytes", float64(fixed), "B")
	out.set("isa.packed_bytes", float64(packed), "B")
	out.set("schedcheck.words", float64(words), "count")
	out.set("schedcheck.warnings", float64(warnings), "count")
	out.set("safecheck.sites_total", float64(sites), "count")
	out.set("safecheck.sites_proven", float64(proven), "count")
	out.set("safecheck.proven_ratio", float64(proven)/float64(max(sites, 1)), "ratio")

	if err := walkCore(ctx, progs, sts, compile, out); err != nil {
		return err
	}
	if err := walkMachine(ctx, progs, sts, out); err != nil {
		return err
	}
	var interp time.Duration
	var scalar, scoreboard int64
	for _, p := range progs {
		interp += timeIt(func() { (&ir.Interp{Prog: p.ir}).Run() }) // checked against .expect at load
		sb, _, _, err := baseline.Scoreboard(p.ir, mach.Trace28())
		if err != nil {
			return fmt.Errorf("%s: baseline.Scoreboard: %w", p.name, err)
		}
		scalar += p.scalarBeats
		scoreboard += sb.Beats
	}
	out.set("ir.interp_us", us(interp), "us")
	out.set("baseline.scalar_beats", float64(scalar), "beats")
	out.set("baseline.scoreboard_beats", float64(scoreboard), "beats")
	return walkServe(progs, out)
}

// walkCore measures the Artifact API on fresh builds: what core adds to the
// layers under it, what a first run costs on each tier, and from those the
// number of beats at which the native tier has paid for its certificate.
func walkCore(ctx context.Context, progs []*program, sts []*staged, stagedCompile time.Duration, out metrics) error {
	us := func(d time.Duration) float64 { return meanUs(d, len(progs)) }
	var build, fingerprint, certify, certifySafe, firstChecked, firstNative time.Duration
	equal := 1.0
	for i, p := range progs {
		var art *trace.Artifact
		var err error
		build += timeIt(func() { art, err = trace.Build(ctx, p.src, trace.Options{}) })
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		var fp [32]byte
		fingerprint += timeIt(func() { fp = art.Image().Fingerprint() }) // first call: not yet cached
		if fp != sts[i].img.Fingerprint() {
			equal = 0
		}
		for _, tier := range tiers {
			var res trace.ExitResult
			if tier == vliw.TierNative {
				certify += timeIt(func() { _, err = art.Certificate() })
				if err == nil {
					certifySafe += timeIt(func() { _, err = art.CertifySafe() })
				}
				if err != nil {
					return fmt.Errorf("%s: %w", p.name, err)
				}
			}
			d := timeIt(func() { res, err = art.Run(ctx, trace.RunOptions{Tier: tier}) })
			if err := checkResult(p, res.Exit, res.Output, err); err != nil {
				return fmt.Errorf("first run on tier %v: %w", tier, err)
			}
			if tier == vliw.TierChecked {
				firstChecked += d
			} else {
				firstNative += d
			}
		}
	}
	firstChecked += build
	firstNative += build + certify + certifySafe
	out.set("isa.fingerprint_us", us(fingerprint), "us")
	out.set("core.build_us", us(build), "us")
	out.set("core.build_self_us", us(build-stagedCompile), "us")
	out.set("core.certify_us", us(certify), "us")
	out.set("core.certify_safe_us", us(certifySafe), "us")
	out.set("core.first_run_us.checked", us(firstChecked), "us")
	out.set("core.first_run_us.native", us(firstNative), "us")
	out.set("core.staged_eq_build", equal, "bool")
	return nil
}

// walkMachine probes the vliw layer with the staged images and their
// certificates: construction and re-targeting costs, host time per beat on
// every tier, hardware contexts, checkpoints, and the modelled components'
// own counters.
func walkMachine(ctx context.Context, progs []*program, sts []*staged, out metrics) error {
	n := float64(len(progs))
	us := func(d time.Duration) float64 { return meanUs(d, len(progs)) }
	allTiers := []vliw.Tier{vliw.TierChecked, vliw.TierFast, vliw.TierSafe, vliw.TierNative}
	arm := func(m *vliw.Machine, st *staged, tier vliw.Tier) error {
		switch tier {
		case vliw.TierFast:
			return m.UseCertificate(st.cert)
		case vliw.TierSafe:
			return m.UseSafeCertificate(st.safe)
		case vliw.TierNative:
			return m.UseNativeCertificate(st.safe)
		}
		return nil
	}
	var plan, reset, safePlan, rearm, snapshot, restore time.Duration
	var runNs, ctx4Ns [vliw.TierNative + 1]time.Duration
	var allocs [vliw.TierNative + 1]float64
	var sum vliw.Stats
	var snapBytes, ctx4Wall, ctx4Work int64
	for i, p := range progs {
		st := sts[i]
		other := sts[(i+1)%len(sts)].img
		m := vliw.New(st.img)
		reset += medianOf(5, nil, func() { m.Reset(st.img) })
		plan += medianOf(3, func() { m.Reset(other) }, func() { m.Reset(st.img) })
		var err error
		safePlan += timeIt(func() { err = m.UseSafeCertificate(st.safe) })
		if err == nil {
			err = m.UseNativeCertificate(st.safe) // translate once, so that re-arming is cached
		}
		rearm += medianOf(5, func() { m.Reset(st.img) }, func() {
			if aerr := m.UseNativeCertificate(st.safe); aerr != nil {
				err = aerr
			}
		})
		if err != nil {
			return fmt.Errorf("%s: arming: %w", p.name, err)
		}

		var ref vliw.Stats
		for _, tier := range allTiers {
			var exit int32
			var output string
			runNs[tier] += medianOf(3, func() {
				m.Reset(st.img)
				err = arm(m, st, tier)
			}, func() {
				if err == nil {
					exit, output, err = m.RunContext(ctx)
				}
			})
			if err := checkResult(p, exit, output, err); err != nil {
				return fmt.Errorf("tier %v: %w", tier, err)
			}
			if tier == vliw.TierChecked {
				ref = m.Stats
			} else if m.Stats != ref {
				return fmt.Errorf("%s: tier %v counters differ from checked", p.name, tier)
			}
			if tier == vliw.TierChecked || tier == vliw.TierNative {
				a, _ := mallocs(func() {
					m.Reset(st.img)
					arm(m, st, tier)
					m.RunContext(ctx)
				})
				allocs[tier] += a
				// Four hardware contexts time-share the same program.
				imgs := []*isa.Image{st.img, st.img, st.img, st.img}
				var rs []vliw.ContextResult
				ctx4Ns[tier] += timeIt(func() {
					if err = m.ResetMany(imgs); err == nil {
						if err = arm(m, st, tier); err == nil {
							rs, err = m.RunMany(ctx)
						}
					}
				})
				if err != nil {
					return fmt.Errorf("%s: RunMany: %w", p.name, err)
				}
				for _, r := range rs {
					if err := checkResult(p, r.Exit, r.Output, r.Err); err != nil {
						return fmt.Errorf("RunMany context: %w", err)
					}
				}
				if tier == vliw.TierChecked {
					ctx4Wall += m.Sched.TotalBeats
					ctx4Work += 4 * ref.Beats
				}
			}
		}
		sum.Beats += ref.Beats
		sum.BankStalls += ref.BankStalls
		sum.RefillBeats += ref.RefillBeats
		sum.TrapBeats += ref.TrapBeats
		sum.ICacheMiss += ref.ICacheMiss
		sum.SpecLoads += ref.SpecLoads
		sum.MemRefs += ref.MemRefs
		sum.Branches += ref.Branches
		sum.Taken += ref.Taken

		snap, err := probeSnapshot(ctx, p, st.img, ref)
		if err != nil {
			return err
		}
		snapshot += snap.take
		restore += snap.restore
		snapBytes += snap.bytes
	}
	beats := float64(sum.Beats)
	out.set("vliw.plan_us", us(plan), "us")
	out.set("vliw.reset_us", us(reset), "us")
	out.set("vliw.safeplan_us", us(safePlan), "us")
	out.set("vliw.rearm_ns", float64(rearm)/n, "ns")
	for _, tier := range allTiers {
		out.set("vliw.run_ns_per_beat."+tier.String(), float64(runNs[tier])/beats, "ns")
	}
	for _, tier := range tiers {
		out.set("vliw.run_allocs_per_op."+tier.String(), allocs[tier]/n, "count")
		out.set("vliw.ctx4_ns_per_beat."+tier.String(), float64(ctx4Ns[tier])/(4*beats), "ns")
	}
	out.set("vliw.ctx4_wall_per_work", float64(ctx4Wall)/float64(ctx4Work), "ratio")
	out.set("vliw.snapshot_us", us(snapshot), "us")
	out.set("vliw.restore_us", us(restore), "us")
	out.set("vliw.snapshot_bytes", float64(snapBytes), "B")
	out.set("vliw.bank_stall_beats", float64(sum.BankStalls), "beats")
	out.set("vliw.refill_beats", float64(sum.RefillBeats), "beats")
	out.set("vliw.tlb_trap_beats", float64(sum.TrapBeats), "beats")
	out.set("vliw.icache_miss", float64(sum.ICacheMiss), "count")
	out.set("vliw.spec_loads", float64(sum.SpecLoads), "count")
	out.set("vliw.mem_refs", float64(sum.MemRefs), "count")
	out.set("vliw.taken_ratio", float64(sum.Taken)/float64(max(sum.Branches, 1)), "ratio")

	// At how many beats, and after how many sweeps over these programs, has
	// the native tier earned back what its first run cost over checked?
	extraUs := out["core.first_run_us.native"].Value - out["core.first_run_us.checked"].Value
	savedNsPerBeat := out["vliw.run_ns_per_beat.checked"].Value - out["vliw.run_ns_per_beat.native"].Value
	out.set("core.breakeven_beats.native", extraUs*1000/savedNsPerBeat, "beats")
	out.set("core.breakeven_runs.native", extraUs*1000/savedNsPerBeat/(beats/n), "count")
	return nil
}

// snapshotCost is what one checkpoint and its restore took.
type snapshotCost struct {
	take, restore time.Duration
	bytes         int64
}

// probeSnapshot checkpoints a run half way, restores it onto a second
// machine and finishes it there; the resumed run must match the reference.
func probeSnapshot(ctx context.Context, p *program, img *isa.Image, ref vliw.Stats) (c snapshotCost, err error) {
	m := vliw.New(img)
	m.StopBeat = ref.Beats / 2
	var stopped *vliw.ErrStopped
	if _, _, err := m.RunContext(ctx); !errors.As(err, &stopped) {
		return c, fmt.Errorf("%s: run did not stop at beat %d: %v", p.name, m.StopBeat, err)
	}
	var snap []byte
	c.take = timeIt(func() { snap, err = m.Contexts()[0].Snapshot() })
	if err != nil {
		return c, fmt.Errorf("%s: snapshot: %w", p.name, err)
	}
	c.bytes = int64(len(snap))
	m2 := vliw.New(img)
	c.restore = timeIt(func() { err = m2.Contexts()[0].Restore(snap) })
	if err != nil {
		return c, fmt.Errorf("%s: restore: %w", p.name, err)
	}
	exit, output, err := m2.RunContext(ctx)
	if err := checkResult(p, exit, output, err); err != nil {
		return c, fmt.Errorf("resumed run: %w", err)
	}
	if m2.Stats != ref {
		return c, fmt.Errorf("%s: resumed run's counters differ", p.name)
	}
	return c, nil
}

// walkServe measures the service on the last four programs of the set (the
// safety analysis makes posting more of them at the native tier too slow):
// the pieces of a memoised /run hit one by one, the hit through the handler
// alone and over loopback, a short round of the request mix, the cold /run
// that posting made on each tier, and the server's own counters at the end.
func walkServe(progs []*program, out metrics) error {
	progs = progs[max(0, len(progs)-4):]
	s, err := openServe(progs, nil)
	if err != nil {
		return err
	}
	ss := s.(*serveSession)
	defer ss.close()
	ts := ss.servers[vliw.TierNative]
	const reps = 200
	perRep := func(f func()) float64 {
		return float64(timeIt(func() {
			for range reps {
				f()
			}
		})) / float64(time.Microsecond) / reps
	}
	body := ts.bodies[classHit][0]
	raw, err := ss.send(ts, 0, classHit, 0, 0)
	if err != nil {
		return err
	}
	var reply serve.RunResponse
	if err := json.Unmarshal(raw, &reply); err != nil {
		return err
	}
	out.set("serve.key_us", perRep(func() { serve.Key(progs[0].src, serve.Options{}) }), "us")
	out.set("serve.req_unmarshal_us", perRep(func() { json.Unmarshal(body, new(serve.RunRequest)) }), "us")
	out.set("serve.resp_marshal_us", perRep(func() { json.Marshal(reply) }), "us")
	handle := func() {
		ts.srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
	}
	handler := perRep(handle)
	allocs, size := mallocs(func() { perRep(handle) })
	overHTTP := perRep(func() {
		if _, herr := ss.send(ts, 0, classHit, 0, 0); herr != nil {
			err = herr
		}
	})
	if err != nil {
		return err
	}
	out.set("serve.handler_hit_us", handler, "us")
	out.set("serve.http_hit_us", overHTTP, "us")
	out.set("serve.net_share", 1-handler/overHTTP, "ratio")
	out.set("serve.hit_allocs", allocs/reps, "count")
	out.set("serve.hit_bytes", size/reps, "B")

	rec := &recorder{}
	ss.round(vliw.TierNative, 50*reps, rand.New(rand.NewSource(1)), rec, nil)
	if rec.failed > 0 {
		return fmt.Errorf("serve probe: %w", rec.firstErr)
	}
	byClass := map[int][]float64{}
	for _, sm := range rec.samples {
		byClass[sm.class] = append(byClass[sm.class], float64(sm.d)/float64(time.Microsecond))
	}
	for c, name := range classNames {
		out.set("serve."+name+"_p50_us", median(byClass[c]), "us")
	}
	for _, tier := range tiers {
		out.set("serve.cold_run_ms."+tier.String(), float64(ss.coldRun[tier])/float64(time.Millisecond)/float64(len(progs)), "ms")
	}
	m := ts.srv.Metrics()
	out.set("serve.artifact_hits", float64(m.ArtifactHits.Value()), "count")
	out.set("serve.artifact_misses", float64(m.ArtifactMisses.Value()), "count")
	out.set("serve.memo_hits", float64(m.RunHits.Value()), "count")
	out.set("serve.rejected", float64(m.Saturated.Value()), "count")
	out.set("serve.machines_in_use_end", float64(m.MachinesInUse.Value()), "count")
	return nil
}
