// Command bench is the repository's benchmark: four workloads, each run on
// the checked and the native tier, every op's result verified, end-to-end
// metrics from an untraced run and per-layer metrics from a separate traced
// run. BENCHMARK.json at the repository root declares the metrics; README.md
// in this directory explains each one.
//
//	bash bench/run.sh                       the whole ledger, all workloads
//	bash bench/run.sh --workload cold-build one workload, one result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/multiflow-repro/trace/internal/vliw"
)

// nproc is the load shape every workload is sized for.
const nproc = 2

// setups is how often a run sets the workload up; setup_s is the median.
const setups = 3

// outDir receives trace files and profiles; .gitignore names it.
const outDir = "bench/out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric once. A value that is not finite would make the
// result line unprintable, so it is reported and recorded as 0.
func (m metrics) set(name string, v float64, unit string) {
	if _, dup := m[name]; dup {
		panic("metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "bench: %s is %v; recorded as 0\n", name, v)
		v = 0
	}
	m[name] = metric{v, unit}
}

// result is the line a single-workload run prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the flags shared by a single-workload run and the ledger.
type options struct {
	seed     int64
	seconds  float64
	programs int
	setups   int
}

func main() {
	runtime.GOMAXPROCS(nproc)
	o := options{setups: setups}
	workloadName := flag.String("workload", "", "run this one workload in this process and print its result line; empty runs the whole ledger, one child process per workload")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op order and the request sequence")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the fixed op list, in seconds on the reference host")
	traced := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics (the ledger makes both unless told --trace 0)")
	flag.IntVar(&o.programs, "programs", 0, "smoke runs: use only the last N programs of each workload, the cheapest to set up (0 = all)")
	selfcheck := flag.Bool("selfcheck", false, "ledger: run everything twice and fail if a metric differs by more than its bound")
	record := flag.Bool("record", false, "ledger: append the end-to-end metrics to bench/history.jsonl")
	regen := flag.Bool("regen-expect", false, "rewrite bench/programs/*.expect from the reference interpreter and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the workload to this file (ledger: this prefix + workload name)")
	memprofile := flag.String("memprofile", "", "write a heap profile of the workload to this file (ledger: this prefix + workload name)")
	flag.Parse()
	traceSet := false
	flag.Visit(func(f *flag.Flag) { traceSet = traceSet || f.Name == "trace" })

	switch {
	case *regen:
		if err := regenExpect("bench/programs"); err != nil {
			fatal(err)
		}
	case *workloadName == "":
		l := ledger{o: o, traced: !traceSet || *traced == 1, cpuprofile: *cpuprofile, memprofile: *memprofile}
		if err := l.main(*selfcheck, *record); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		stop, err := startProfiles(*cpuprofile, *memprofile)
		if err != nil {
			fatal(err)
		}
		var res result
		if *traced == 1 {
			res, err = runTraced(w, o)
		} else {
			res, err = runUntraced(w, o)
		}
		stop()
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, w.name, res.Metrics)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// startProfiles starts the CPU profile and returns the function that stops
// it and writes the heap profile.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}, nil
}

// programsOf loads the workload's programs, all or the last o.programs.
func programsOf(w *workload, o options) ([]*program, error) {
	names := w.programs
	if o.programs > 0 && o.programs < len(names) {
		names = names[len(names)-o.programs:]
	}
	return loadPrograms(names)
}

// setUp is everything before the first timed op: loading the programs,
// checking each expectation against a fresh reference interpretation, and
// the workload's own preparation.
func setUp(w *workload, o options, tr *tracer) ([]*program, session, error) {
	progs, err := programsOf(w, o)
	if err != nil {
		return nil, nil, err
	}
	s, err := w.open(progs, tr)
	return progs, s, err
}

// tally adds one tier's verdicts to the result and reports its first failure.
func (res *result) tally(w *workload, tier vliw.Tier, rec *recorder) {
	res.Attempted += len(rec.samples)
	res.Failed += rec.failed
	if rec.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure on tier %v: %v\n", w.name, tier, rec.firstErr)
	}
	res.Correct = res.Failed == 0
}

// roundResult is one round of one tier: its samples and its throughput.
type roundResult struct {
	samples []sample
	opsPerS float64
}

// pass runs the workload's rounds, interleaving the tiers, and returns each
// tier's recorder and its rounds.
func pass(w *workload, s session, o options, nRounds int, tr *tracer) (recs map[vliw.Tier]*recorder, perRound map[vliw.Tier][]roundResult) {
	recs = map[vliw.Tier]*recorder{}
	perRound = map[vliw.Tier][]roundResult{}
	for _, tier := range tiers {
		recs[tier] = &recorder{}
	}
	order := rand.New(rand.NewSource(o.seed))
	for range nRounds {
		for _, tier := range tiers {
			rec := recs[tier]
			before := len(rec.samples)
			runtime.GC() // every round starts from the same heap state
			t0 := time.Now()
			s.round(tier, w.units(o.seconds), order, rec, tr)
			d := time.Since(t0).Seconds()
			got := rec.samples[before:]
			perRound[tier] = append(perRound[tier], roundResult{got, float64(len(got)) / d})
		}
	}
	return recs, perRound
}

// quietest reports a timing metric from the round the host disturbed least:
// the extreme over rounds of f, towards better.
func quietest(rs []roundResult, better func(a, b float64) float64, f func(roundResult) float64) float64 {
	best := f(rs[0])
	for _, r := range rs[1:] {
		best = better(best, f(r))
	}
	return best
}

// runUntraced is the run the end-to-end metrics come from.
func runUntraced(w *workload, o options) (result, error) {
	var s session
	setupTimes := make([]float64, o.setups)
	for i := range setupTimes {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if _, s, err = setUp(w, o, nil); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupTimes[i] = time.Since(t0).Seconds()
	}
	defer s.close()
	recs, perRound := pass(w, s, o, w.rounds, nil)

	out := metrics{}
	res := result{Metrics: out}
	out.set("setup_s", median(setupTimes), "s")
	for _, tier := range tiers {
		res.tally(w, tier, recs[tier])
		rs := perRound[tier]
		out.set("ops_per_s."+tier.String(), quietest(rs, math.Max, func(r roundResult) float64 { return r.opsPerS }), "1/s")
		out.set("op_p50_ms."+tier.String(), quietest(rs, math.Min, func(r roundResult) float64 { return quantileMs(r.samples, w.poolP50, 0.5) }), "ms")
		out.set("op_tail_ms."+tier.String(), quietest(rs, math.Min, func(r roundResult) float64 { return quantileMs(r.samples, w.poolTail, w.tail) }), "ms")
	}
	out.set("ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	sim := s.sim()
	sort.Float64s(sim.speedups) // a fixed order of summation, whatever order the ops ran in
	out.set("sim_beats", float64(sim.beats), "beats")
	out.set("sim_ops_per_instr", float64(sim.ops)/float64(sim.instrs), "ratio")
	out.set("sim_speedup_vs_scalar", geomean(sim.speedups), "ratio")
	out.set("code_bytes", float64(sim.codeBytes), "B")
	out.set("peak_rss_mb", peakRSSMiB(), "MiB")
	fmt.Printf("%s: %d rounds of %d ops per tier, %d ops in all\n",
		w.name, w.rounds, len(perRound[vliw.TierChecked][0].samples), res.Attempted)
	return res, nil
}

// runTraced is the run the per-layer metrics come from: one short round
// untraced and the same round traced, which gives the tracing overhead, then
// a walk through every layer on the workload's programs. The spans go to
// bench/out/<workload>.trace.json.
func runTraced(w *workload, o options) (result, error) {
	tr := newTracer()
	progs, s, err := setUp(w, o, tr)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer s.close()
	short := o
	short.seconds = math.Min(1, o.seconds)
	plainRecs, plain := pass(w, s, short, 1, nil)
	tracedRecs, traced := pass(w, s, short, 1, tr)

	out := metrics{}
	res := result{Metrics: out}
	overhead := 0.0
	for _, tier := range tiers {
		res.tally(w, tier, plainRecs[tier])
		res.tally(w, tier, tracedRecs[tier])
		overhead += plain[tier][0].opsPerS / traced[tier][0].opsPerS / float64(len(tiers))
	}
	out.set("bench.trace_overhead_ratio", overhead, "ratio")
	if err := layerWalk(tr, progs, out); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	path := filepath.Join(outDir, w.name+".trace.json")
	if err := tr.writeTrace(path); err != nil {
		return result{}, err
	}
	fmt.Printf("%s: %d spans written to %s; untraced/traced throughput %.3f\n", w.name, len(tr.spans), path, overhead)
	return res, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printMetrics lists metrics by name with their units.
func printMetrics(f *os.File, workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(f, "%-12s %-34s %16.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}
