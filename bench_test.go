// Benchmarks regenerating the paper's figures and results, one per entry in
// DESIGN.md's per-experiment index. Each benchmark reports the paper-shape
// metric (speedups, overheads, sizes) via b.ReportMetric, so `go test
// -bench=. -benchmem` reproduces the evaluation; `cmd/tracebench` prints the
// same data as tables.
package trace

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/fuzz"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/tsched"
	"github.com/multiflow-repro/trace/internal/xp"
)

const daxpyBench = `
var x [256]float
var y [256]float
func main() int {
	for (var i int = 0; i < 256; i = i + 1) { x[i] = float(i); y[i] = 1.0 }
	var a float = 2.5
	for (var r int = 0; r < 8; r = r + 1) {
		for (var i int = 0; i < 256; i = i + 1) { y[i] = y[i] + a * x[i] }
	}
	var s float = 0.0
	for (var i int = 0; i < 256; i = i + 1) { s = s + y[i] }
	return int(s) & 65535
}`

const branchyBench = `
var text [512]int
var counts [8]int
func kind(c int) int {
	if (c < 16) { return 0 }
	if (c < 32) { if (c % 2 == 0) { return 1 } return 2 }
	if (c < 96) { return 3 }
	if (c % 3 == 0) { return 4 }
	if (c % 5 == 0) { return 5 }
	return 6
}
func main() int {
	for (var i int = 0; i < 512; i = i + 1) { text[i] = (i * 61 + 17) % 128 }
	for (var r int = 0; r < 4; r = r + 1) {
		for (var i int = 0; i < 512; i = i + 1) {
			var k int = kind(text[i])
			counts[k] = counts[k] + 1
		}
	}
	return counts[3]
}`

func mustCompile(b *testing.B, src string, o Options) *Artifact {
	b.Helper()
	art, err := Build(context.Background(), src, o)
	if err != nil {
		b.Fatal(err)
	}
	return art
}

// runStats executes the artifact on the checked tier and returns its
// counters.
func runStats(b *testing.B, art *Artifact) Stats {
	b.Helper()
	_, _, st, err := runChecked(art)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkE1Speedup regenerates E1: trace-scheduled VLIW vs the scalar
// machine (paper §1: "ten to thirty times"; honest shape: several-fold).
func BenchmarkE1Speedup(b *testing.B) {
	for _, cfg := range []Config{Trace7(), Trace14(), Trace28()} {
		b.Run(cfg.Name, func(b *testing.B) {
			sc, _, _, err := RunScalar(daxpyBench, cfg)
			if err != nil {
				b.Fatal(err)
			}
			art := mustCompile(b, daxpyBench, Options{Config: cfg, ProfileRun: true})
			var beats int64
			for i := 0; i < b.N; i++ {
				beats = runStats(b, art).Beats
			}
			b.ReportMetric(float64(sc.Beats)/float64(beats), "speedup-vs-scalar")
			b.ReportMetric(float64(beats), "beats")
		})
	}
}

// BenchmarkE2Scoreboard regenerates E2: the Acosta 2-3x basic-block ceiling.
func BenchmarkE2Scoreboard(b *testing.B) {
	cfg := Trace28()
	sc, _, _, err := RunScalar(daxpyBench, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sb BaselineResult
	for i := 0; i < b.N; i++ {
		sb, _, _, err = RunScoreboard(daxpyBench, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sc.Beats)/float64(sb.Beats), "speedup-vs-scalar")
}

// BenchmarkE3CodeSize regenerates E3 (§9): packed vs VAX-model size and the
// mask-word savings.
func BenchmarkE3CodeSize(b *testing.B) {
	vax, err := VAXBytes(daxpyBench)
	if err != nil {
		b.Fatal(err)
	}
	var fixed, packed int64
	for i := 0; i < b.N; i++ {
		art := mustCompile(b, daxpyBench, Options{})
		fixed, packed, _ = art.Image().CodeSizes()
	}
	b.ReportMetric(float64(packed)/float64(vax), "packed/vax")
	b.ReportMetric(100*(1-float64(packed)/float64(fixed)), "noop-savings-%")
}

// BenchmarkE4Memory regenerates E4: bank-stall behaviour of the interleaved
// memory under a worst-case stride.
func BenchmarkE4Memory(b *testing.B) {
	src := `
var a [4096]float
func sweep(p []float) float {
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + p[i * 64] }
	return s
}
func main() int {
	var s float = 0.0
	for (var r int = 0; r < 8; r = r + 1) { s = s + sweep(a) }
	return int(s)
}`
	for _, dice := range []bool{true, false} {
		name := "dice"
		if !dice {
			name = "conservative"
		}
		b.Run(name, func(b *testing.B) {
			art := mustCompile(b, src, Options{ProfileRun: true, Conservative: !dice})
			var stalls, beats int64
			for i := 0; i < b.N; i++ {
				st := runStats(b, art)
				stalls, beats = st.BankStalls, st.Beats
			}
			b.ReportMetric(float64(beats), "beats")
			b.ReportMetric(float64(stalls), "bank-stall-beats")
		})
	}
}

// BenchmarkE5Peak regenerates E5: achieved vs peak rates (§6.3's 215 MIPS /
// 60 MFLOPS arithmetic is checked in internal/mach's tests).
func BenchmarkE5Peak(b *testing.B) {
	art := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	var mips, mflops float64
	for i := 0; i < b.N; i++ {
		st := runStats(b, art)
		mips, mflops = st.MIPS(), st.MFLOPS()
	}
	b.ReportMetric(mips, "MIPS")
	b.ReportMetric(mflops, "MFLOPS")
	b.ReportMetric(Trace28().PeakMIPS(), "peak-MIPS")
}

// BenchmarkE6ICache regenerates E6: cold-miss rates and mask-word refill
// cost of the 8K-instruction cache.
func BenchmarkE6ICache(b *testing.B) {
	art := mustCompile(b, branchyBench, Options{ProfileRun: true})
	var missPct, refillPct float64
	for i := 0; i < b.N; i++ {
		st := runStats(b, art)
		total := st.ICacheHits + st.ICacheMiss
		missPct = 100 * float64(st.ICacheMiss) / float64(total)
		refillPct = 100 * float64(st.RefillBeats) / float64(st.Beats)
	}
	b.ReportMetric(missPct, "miss-%")
	b.ReportMetric(refillPct, "refill-beats-%")
}

// BenchmarkE8Multiway regenerates E8: packing several branch tests per
// instruction (§6.5.2) on branchy code.
func BenchmarkE8Multiway(b *testing.B) {
	for _, multiway := range []bool{true, false} {
		name := "multiway"
		if !multiway {
			name = "single-branch"
		}
		b.Run(name, func(b *testing.B) {
			art := mustCompile(b, branchyBench, Options{ProfileRun: true, DisableMultiway: !multiway})
			var beats int64
			for i := 0; i < b.N; i++ {
				beats = runStats(b, art).Beats
			}
			b.ReportMetric(float64(beats), "beats")
		})
	}
}

// BenchmarkE9Speculation regenerates E9: the §7 non-trapping loads.
func BenchmarkE9Speculation(b *testing.B) {
	for _, spec := range []bool{true, false} {
		name := "speculative"
		if !spec {
			name = "no-speculation"
		}
		b.Run(name, func(b *testing.B) {
			art := mustCompile(b, daxpyBench, Options{ProfileRun: true, DisableSpeculation: !spec})
			var beats, loads int64
			for i := 0; i < b.N; i++ {
				st := runStats(b, art)
				beats, loads = st.Beats, st.SpecLoads
			}
			b.ReportMetric(float64(beats), "beats")
			b.ReportMetric(float64(loads), "spec-loads")
		})
	}
}

// BenchmarkE10Compensation regenerates E10: code growth vs unroll factor.
func BenchmarkE10Compensation(b *testing.B) {
	for _, c := range []struct {
		lvl  OptLevel
		name string
	}{{OptNone, "no-unroll"}, {OptLight, "unroll4"}, {OptFull, "unroll8"}} {
		lvl := c.lvl
		b.Run(c.name, func(b *testing.B) {
			var growth, comp float64
			for i := 0; i < b.N; i++ {
				art := mustCompile(b, daxpyBench, Options{OptLevel: lvl, ProfileRun: true})
				var schedOps, compOps int
				for _, fc := range art.Result().Funcs {
					schedOps += fc.Ops
					compOps += fc.CompOps
				}
				growth = 100 * (float64(schedOps)/float64(art.Result().Opt.OpsBefore) - 1)
				comp = float64(compOps)
			}
			b.ReportMetric(growth, "growth-%")
			b.ReportMetric(comp, "comp-ops")
		})
	}
}

// BenchmarkE12Systems regenerates E12: systems code on the VLIW (§8.4).
func BenchmarkE12Systems(b *testing.B) {
	sc, _, _, err := RunScalar(branchyBench, Trace28())
	if err != nil {
		b.Fatal(err)
	}
	art := mustCompile(b, branchyBench, Options{ProfileRun: true})
	var beats int64
	for i := 0; i < b.N; i++ {
		beats = runStats(b, art).Beats
	}
	b.ReportMetric(float64(sc.Beats)/float64(beats), "speedup-vs-scalar")
}

// BenchmarkE13Ablation regenerates E13: how much of the win is trace
// scheduling (inter-block motion) vs. basic-block compaction plus the
// universal optimizations (Section 10's proposed quantification).
func BenchmarkE13Ablation(b *testing.B) {
	sc, _, _, err := RunScalar(daxpyBench, Trace28())
	if err != nil {
		b.Fatal(err)
	}
	blocks := mustCompile(b, daxpyBench, Options{BasicBlockOnly: true, ProfileRun: true})
	traces := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	var bBeats, tBeats int64
	for i := 0; i < b.N; i++ {
		bBeats = runStats(b, blocks).Beats
		tBeats = runStats(b, traces).Beats
	}
	b.ReportMetric(float64(sc.Beats)/float64(bBeats), "blocks-only-speedup")
	b.ReportMetric(float64(sc.Beats)/float64(tBeats), "trace-speedup")
	b.ReportMetric(100*(1-float64(tBeats)/float64(bBeats)), "trace-win-%")
}

// BenchmarkE7ContextSwitch regenerates E7c: timeslicing on the tagged
// machine vs. one that purges caches and TLBs at every switch (§8.1).
func BenchmarkE7ContextSwitch(b *testing.B) {
	art := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	run := func(flush bool) *Stats {
		m := art.Machine()
		m.InterruptEvery = 2000
		m.InterruptBeats = 60
		m.FlushOnSwitch = flush
		m.OnInterrupt = func(mm *Machine) {
			mm.ContextSwitch(1)
			mm.ContextSwitch(0)
		}
		if _, _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		return &m.Stats
	}
	var tagged, purged *Stats
	for i := 0; i < b.N; i++ {
		tagged = run(false)
		purged = run(true)
	}
	b.ReportMetric(float64(tagged.Beats), "tagged-beats")
	b.ReportMetric(float64(purged.Beats), "purged-beats")
	b.ReportMetric(float64(purged.ICacheMiss-tagged.ICacheMiss), "misses-saved-by-tags")
}

// BenchmarkFigure1IdealVsReal regenerates F1: the partitioning cost against
// the Figure-1 central-register-file machine.
func BenchmarkFigure1IdealVsReal(b *testing.B) {
	ideal := mustCompile(b, daxpyBench, Options{Config: Ideal(4), ProfileRun: true})
	real := mustCompile(b, daxpyBench, Options{Config: Trace28(), ProfileRun: true})
	var iBeats, rBeats int64
	for i := 0; i < b.N; i++ {
		iBeats = runStats(b, ideal).Beats
		rBeats = runStats(b, real).Beats
	}
	b.ReportMetric(100*(float64(rBeats)/float64(iBeats)-1), "partition-cost-%")
}

// BenchmarkFigure3EncodeDecode measures the Figure-3 round trip itself.
func BenchmarkFigure3EncodeDecode(b *testing.B) {
	prog, err := lang.Compile(daxpyBench)
	if err != nil {
		b.Fatal(err)
	}
	art := mustCompile(b, daxpyBench, Options{})
	cfg := mach.Trace28()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range art.Image().Instrs {
			words, err := isa.Encode(&art.Image().Instrs[j], cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := isa.Decode(words, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(art.Image().Instrs)), "instrs/op")
	_ = prog
	_ = baseline.VAXSize
}

// BenchmarkCompiler measures end-to-end compilation speed (not a paper
// figure; a health metric for the compiler itself).
func BenchmarkCompiler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustCompile(b, daxpyBench, Options{ProfileRun: true})
	}
}

// coldPrograms are the programs the two cold-path micro-benchmarks run: the
// largest numeric kernel, a mid-sized one, the branchy systems kernel and one
// generated program, all for the 4-pair machine at full optimization.
func coldPrograms() []xp.Workload {
	var out []xp.Workload
	for _, w := range xp.AllWorkloads() {
		switch w.Name {
		case "fft", "matmul", "scanner":
			out = append(out, w)
		}
	}
	return append(out, xp.Workload{Name: "gen07", Kind: "generated", Src: fuzz.Gen(7)})
}

// BenchmarkSafecheckAnalyze measures the safety analysis on a linked image.
// B/op is the tracked number (scripts/bench.sh holds a ceiling on it): the
// analyzer owns its states, so an analysis allocates O(block exits × named
// registers) however many visits the fixpoint makes.
func BenchmarkSafecheckAnalyze(b *testing.B) {
	for _, w := range coldPrograms() {
		b.Run(w.Name, func(b *testing.B) {
			art := mustCompile(b, w.Src, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			var rep *safecheck.Report
			for i := 0; i < b.N; i++ {
				rep = safecheck.Analyze(art.Image(), safecheck.Options{})
			}
			b.ReportMetric(float64(rep.Transfers), "transfers")
			b.ReportMetric(float64(len(art.Image().Instrs)), "words")
		})
	}
}

// BenchmarkTschedCompile measures the per-function backend (lowering, trace
// selection, list scheduling over the reservation tables, register
// allocation, emission) on already-optimized IR, sequentially.
func BenchmarkTschedCompile(b *testing.B) {
	ctx := context.Background()
	for _, w := range coldPrograms() {
		b.Run(w.Name, func(b *testing.B) {
			file, err := lang.Parse(w.Src)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := lang.Lower(file)
			if err != nil {
				b.Fatal(err)
			}
			pctx := pipeline.NewContext()
			passes := append(opt.Passes(opt.Default()), profile.Pass(false))
			if err := pipeline.Run(ctx, prog, pctx, passes...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := prog.Clone() // the backend inserts call spills
				b.StartTimer()
				_, err := tsched.CompileParallel(ctx, work, mach.Trace28(), pctx.Profile, tsched.CompileOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReference times the reference machines every benchmark set-up
// rebuilds, one pass over the ledger programs per op: the IR interpreter
// alone, the scalar baseline and the scoreboard (TRACE 28) on top of it.
// allocs/op is gated in scripts/bench.sh (a call allocates nothing, so it
// does not grow with the number of calls), and so is the scalar baseline's
// time against the bare interpreter's.
func BenchmarkReference(b *testing.B) {
	var progs []*ir.Program
	for _, p := range testmatrix.Ledger(b) {
		prog, err := lang.Compile(p.Src)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for _, m := range []struct {
		name string
		run  func(*ir.Program) error
	}{
		{"interp", func(p *ir.Program) error { _, _, err := (&ir.Interp{Prog: p}).Run(); return err }},
		{"scalar", func(p *ir.Program) error { _, _, _, err := baseline.Scalar(p, mach.Trace28()); return err }},
		{"scoreboard", func(p *ir.Program) error { _, _, _, err := baseline.Scoreboard(p, mach.Trace28()); return err }},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					if err := m.run(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSimulator measures raw simulation speed of the checked tier in
// beats/second: every dynamic check live, the words the run keeps coming back
// to in regions of the base plan like any tier's. One machine is reused across
// iterations via Reset and the regions are built outside the timed loop, so the
// number measures execution, not memory allocation.
func BenchmarkSimulator(b *testing.B) {
	benchWarmRuns(b, mustCompile(b, daxpyBench, Options{ProfileRun: true}), TierChecked, false)
}

// BenchmarkSimulatorFastCtx measures the certified fast path driven through
// RunContext with a live (Background) context — the configuration every
// server-side run uses. The delta against BenchmarkSimulatorFast is the
// total cost of beat-granularity cancellation checks; the contract is that
// it stays under 2%.
func BenchmarkSimulatorFastCtx(b *testing.B) {
	art, err := Build(context.Background(), daxpyBench, Options{ProfileRun: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := art.Certificate(); err != nil {
		b.Fatal(err)
	}
	m := art.Machine()
	ctx := context.Background()
	var beats int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := art.RunOn(ctx, m, RunOptions{Tier: TierFast})
		if err != nil {
			b.Fatal(err)
		}
		beats += res.Stats.Beats
	}
	b.ReportMetric(float64(beats)/b.Elapsed().Seconds(), "beats/s")
}

// BenchmarkSimulatorContexts measures the checked interpreter time-sharing
// four copies of the workload as hardware contexts on one machine. The
// reported beats/s counts per-context (architectural) beats, so it is
// directly comparable to BenchmarkSimulator: the gap between the two is the
// whole cost of the context scheduler, and wall-clock/work tracks how much
// stall time the machine hid by rotating contexts.
func BenchmarkSimulatorContexts(b *testing.B) {
	art := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	imgs := []*isa.Image{art.Image(), art.Image(), art.Image(), art.Image()}
	m := art.Machine()
	ctx := context.Background()
	var work, wall int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ResetMany(imgs); err != nil {
			b.Fatal(err)
		}
		rs, err := m.RunMany(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			work += r.Stats.Beats
		}
		wall += m.Sched.TotalBeats
	}
	b.ReportMetric(float64(work)/b.Elapsed().Seconds(), "beats/s")
	b.ReportMetric(float64(wall)/float64(work), "wall-beats/work-beat")
	b.ReportMetric(4, "contexts")
}

// BenchmarkSimulatorFast measures the certified fast path on the same
// workload: the image is certified once (outside the timed region) and the
// machine skips the per-beat dynamic resource and race checks.
func BenchmarkSimulatorFast(b *testing.B) {
	art := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	cert, err := art.Certificate()
	if err != nil {
		b.Fatal(err)
	}
	m := art.Machine()
	var beats int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(art.Image())
		if err := m.UseCertificate(cert); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		beats += m.Stats.Beats
	}
	b.ReportMetric(float64(beats)/b.Elapsed().Seconds(), "beats/s")
}

// BenchmarkSimulatorSafe measures the guard-free safe tier: everything the
// fast path skips, plus deleted bounds/alignment/divide guards at every
// memory and divide site the safety analysis proved. The graded certificate
// is minted once outside the timed region; the per-iteration arming cost is
// one cache hit (the derived guard-free plan is reused across Reset).
func BenchmarkSimulatorSafe(b *testing.B) {
	art := mustCompile(b, daxpyBench, Options{ProfileRun: true})
	cert, err := art.CertifySafe()
	if err != nil {
		b.Fatal(err)
	}
	m := art.Machine()
	var beats int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(art.Image())
		if err := m.UseSafeCertificate(cert); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		beats += m.Stats.Beats
	}
	b.ReportMetric(float64(beats)/b.Elapsed().Seconds(), "beats/s")
}

// BenchmarkSimulatorNative measures the native tier on the same workload: the
// same graded certificate and the same path as the safe tier — regions of the
// re-kinded plan, no guards at proven sites, neither verdict. The regions are
// built outside the timed loop and cached across Reset; scripts/bench.sh holds
// it to its own committed baseline. Its distance from BenchmarkSimulator is
// what the two certificates are worth on this kernel (EXPERIMENTS.md has all
// fourteen).
func BenchmarkSimulatorNative(b *testing.B) {
	benchWarmRuns(b, mustCompile(b, daxpyBench, Options{ProfileRun: true}), TierNative, false)
}

// BenchmarkSimulatorKernels times the two kernels that are most of
// numeric-hot's words (bench/), on the checked and on the native tier: tridiag, recurrence-bound, two words in five empty and three micro-ops
// a word; fir, eight micro-ops a word and a bank stall on one word in sixteen.
// (A benchmark of their own rather than sub-benchmarks of the two above: those
// two names are what scripts/bench.sh's baseline and its A/B ratio floor key
// on, and a benchmark with sub-benchmarks reports no number itself.)
func BenchmarkSimulatorKernels(b *testing.B) {
	for _, w := range xp.NumericSuite() {
		if w.Name != "tridiag" && w.Name != "fir" {
			continue
		}
		art := mustCompile(b, w.Src, Options{})
		b.Run(w.Name+"/checked", func(b *testing.B) { benchWarmRuns(b, art, TierChecked, false) })
		b.Run(w.Name+"/native", func(b *testing.B) { benchWarmRuns(b, art, TierNative, false) })
	}
}

// BenchmarkImageSwitch times what a pooled machine pays to be pointed at another
// program: one machine runs four artifacts round-robin — fib, sieve, vsum and
// daxpy of bench/programs, the shortest kernels, where the switch is the
// largest share of a run — through RunOn, as tracesrv's pool and the fuzz
// oracle do. An artifact owns its plan, so once the four are warm a switch
// builds nothing and allocates nothing beyond the output of the two that print
// (under one allocation a run: scripts/bench.sh holds allocs/op at 0); while the
// machine kept the one plan of its last image, every run here decoded its image
// again, derived the certified copy again and grew its regions from nothing.
func BenchmarkImageSwitch(b *testing.B) {
	var arts []*Artifact
	for _, name := range []string{"fib", "sieve", "vsum", "daxpy"} {
		src, err := os.ReadFile(filepath.Join("bench", "programs", name+".mf"))
		if err != nil {
			b.Fatal(err)
		}
		arts = append(arts, mustCompile(b, string(src), Options{}))
	}
	ctx := context.Background()
	for _, tier := range []Tier{TierChecked, TierNative} {
		b.Run(tier.String(), func(b *testing.B) {
			m := arts[0].Machine()
			run := func(i int) {
				if _, err := arts[i%len(arts)].RunOn(ctx, m, RunOptions{Tier: tier}); err != nil {
					b.Fatal(err)
				}
			}
			for i := range 3 * len(arts) {
				run(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
		})
	}
}

// BenchmarkCertificateWorth puts a number on what each static authority
// deletes: the fourteen kernels of bench/programs (the numeric-hot and
// systems-hot workloads, Trace 28, O2), each on four machines that run the same
// records — per-word (a checked machine under a hook that does nothing: fetch,
// prescan, drain, ring push and counters per word), uncertified regions (the
// checked tier: every guard and both verdicts), schedcheck-certified (fast:
// the verdicts gone) and safecheck-certified (native: the proven guards gone
// too) — in ns per simulated beat. The certified arm also reports what is left
// of the guards, in sites of the image: guards kept of its references, checks
// kept of its divides (all of them on the other three). EXPERIMENTS.md holds
// the table.
func BenchmarkCertificateWorth(b *testing.B) {
	paths, err := filepath.Glob("bench/programs/*.mf")
	if err != nil || len(paths) == 0 {
		b.Fatalf("no kernels found: %v", err)
	}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".mf")
		if strings.HasPrefix(name, "gen") {
			continue // cold-build's generated programs
		}
		src, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		art := mustCompile(b, string(src), Options{})
		b.Run(name+"/per-word", func(b *testing.B) { benchWarmRuns(b, art, TierChecked, true) })
		b.Run(name+"/checked", func(b *testing.B) { benchWarmRuns(b, art, TierChecked, false) })
		b.Run(name+"/fast", func(b *testing.B) { benchWarmRuns(b, art, TierFast, false) })
		b.Run(name+"/native", func(b *testing.B) {
			benchWarmRuns(b, art, TierNative, false)
			var refs, divs, guards, checks float64
			for _, s := range art.Safety().Sites {
				if !s.Exec() {
					continue
				}
				sites, kept := &refs, &guards
				if s.Kind == ir.Div || s.Kind == ir.Rem {
					sites, kept = &divs, &checks
				}
				if *sites++; !s.Proven {
					*kept++
				}
			}
			b.ReportMetric(guards, "guards")
			b.ReportMetric(refs, "refs")
			b.ReportMetric(checks, "div-checks")
			b.ReportMetric(divs, "divs")
		})
	}
}

// benchWarmRuns times runs of art on one machine armed for tier — on the
// per-word path if asked, under a hook that does nothing — after three untimed
// ones: a tier builds its regions on the first runs, and the floor on its
// allocs/op (scripts/bench.sh) is on the steady state after them.
func benchWarmRuns(b *testing.B, art *Artifact, tier Tier, perWord bool) {
	m := art.Machine()
	run := func() {
		m.Reset(art.Image())
		if err := art.Arm(m, tier); err != nil {
			b.Fatal(err)
		}
		if perWord {
			m.TraceFn = func(int, int64) {}
		}
		if _, _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	for range 3 {
		run()
	}
	var beats int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
		beats += m.Stats.Beats
	}
	b.ReportMetric(float64(beats)/b.Elapsed().Seconds(), "beats/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(beats), "ns/beat")
}
