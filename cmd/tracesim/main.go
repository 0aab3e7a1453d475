// Command tracesim compiles and executes MF source on the TRACE simulator,
// reporting performance counters (and optionally a PC trace).
//
// Usage:
//
//	tracesim [-pairs N] [-O level] [-profile] [-verify] [-time-passes]
//	         [-trace] [-baselines] [-tier T] [-max-cycles N]
//	         [-snapshot-at N] [-snapshot-file F] [-resume F]
//	         [-contexts K] [-quantum N] [-switch-beats N] [-beats N]
//	         [-cpuprofile F] [-memprofile F] prog.mf [prog2.mf ...]
//
// -cpuprofile and -memprofile write pprof profiles of the whole command —
// compile, certify (with -tier) and run — so a cold request can
// be profiled without a test harness.
//
// With -contexts K (or several source files), the programs time-share one
// simulated CPU on K hardware contexts: each context's results and stats
// are identical to a solo run, and the scheduler summary shows how much
// stall latency the time-sharing hid. A single file with -contexts K runs
// K copies of that program.
//
// The execution tier is -tier=checked (per-beat dynamic resource checking,
// the default), -tier=fast (statically certified, resource/race checks
// skipped), -tier=safe (fast plus guard-free execution of every memory and
// divide site the value-range safety analysis proves can never fault), or
// -tier=native (the safe grade with the runs of words the program keeps
// returning to fused into regions, one micro-op stream each — no per-slot dispatch, operand
// re-decode or per-beat bookkeeping; a summary of the regions goes to stderr). All
// tiers produce bit-identical results; only speed and how much dynamic
// checking remains differ.
//
// With -beats N it also prints the N words that took the most beats: how
// often each issued, its beats split into issue beats and beats the schedule
// did not plan (bank stalls, TLB traps, icache refills), its function and the
// source lines of its ops. The accounting runs through the per-word trace hook,
// so every word takes the per-word path; the counters are those of a run
// without the flag.
//
// With -snapshot-at N the run pauses at beat N and serializes the complete
// machine-context state to -snapshot-file; a later invocation with the same
// source and -resume continues it bit-identically — same output, same exit,
// same counters as the uninterrupted run. A run that completes before beat N
// finishes normally and writes no snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/prof"
	"github.com/multiflow-repro/trace/internal/vliw"
)

func main() {
	pairs := flag.Int("pairs", 4, "I-F board pairs (1, 2, or 4)")
	olevel := flag.Int("O", 2, "optimization level (0-2)")
	profRun := flag.Bool("profile", false, "profile-guided trace selection")
	traceExec := flag.Bool("trace", false, "print taken control transfers")
	baselines := flag.Bool("baselines", false, "also run the scalar and scoreboard baselines")
	verify := flag.Bool("verify", false, "validate the IR after every compiler pass")
	timePasses := flag.Bool("time-passes", false, "print per-pass compile timing to stderr")
	maxCycles := flag.Int64("max-cycles", 50_000_000, "beat budget before a runaway program is killed")
	tierName := flag.String("tier", "", "execution tier: checked (default), fast, safe, or native")
	snapshotAt := flag.Int64("snapshot-at", 0, "pause at this beat and serialize the context to -snapshot-file")
	snapshotFile := flag.String("snapshot-file", "tracesim.snap", "where -snapshot-at writes the checkpoint")
	resume := flag.String("resume", "", "restore the context from this snapshot file and continue the run")
	contexts := flag.Int("contexts", 0, "hardware contexts: time-share K programs (or K copies of one) on one machine")
	quantum := flag.Int64("quantum", 0, "context-scheduler timeslice in beats (0 = default)")
	switchBeats := flag.Int64("switch-beats", 0, "wall-clock beats charged per context rotation")
	topBeats := flag.Int("beats", 0, "print the N words that took the most beats (issue vs stall, function, source lines)")
	profiles := prof.Register()
	flag.Parse()
	tier, err := vliw.ParseTier(*tierName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tracesim [flags] prog.mf [prog2.mf ...]")
		os.Exit(2)
	}
	if err := checkCounts(counts{
		maxCycles: *maxCycles, quantum: *quantum, switchBeats: *switchBeats,
		snapshotAt: *snapshotAt, beats: *topBeats, contexts: *contexts,
	}, flag.NArg()); err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	stop, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	if err := mach.CheckPairs(*pairs); err != nil {
		fmt.Fprintf(os.Stderr, "tracesim: -pairs: %v\n", err)
		os.Exit(2)
	}
	cfg := mach.NewConfig(*pairs)
	lvl, err := opt.Level(*olevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracesim: -O: %v\n", err)
		os.Exit(2)
	}
	// SIGINT cancels the compile at the next pass boundary and the
	// simulation within one beat-check interval.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	copts := core.Options{Config: cfg, Opt: lvl, ProfileRun: *profRun, Verify: *verify}
	build := func(name string, src []byte) *core.Artifact {
		art, err := core.BuildFile(ctx, name, string(src), copts)
		if err != nil {
			fatal(err)
		}
		if *timePasses {
			fmt.Fprint(os.Stderr, art.Result().Report.String())
		}
		return art
	}
	art := build(flag.Arg(0), src)

	if k := max(*contexts, flag.NArg()); k > 1 {
		if *snapshotAt > 0 || *resume != "" || *topBeats > 0 {
			fmt.Fprintln(os.Stderr, "tracesim: -snapshot-at/-resume/-beats apply to single-context runs only")
			os.Exit(2)
		}
		runContexts(ctx, art, k, build, runManyFlags{
			tier: tier, maxCycles: *maxCycles,
			quantum: *quantum, switchBeats: *switchBeats,
		})
		return
	}

	m := art.Machine()
	if *maxCycles > 0 {
		m.CycleLimit = *maxCycles
	}
	if err := art.Arm(m, tier); err != nil {
		fatal(err)
	}
	reportProven(art, tier, "")
	var beats *beatProfile
	switch {
	case *topBeats > 0 && *traceExec:
		fmt.Fprintln(os.Stderr, "tracesim: -beats and -trace both take the trace hook; pick one")
		os.Exit(2)
	case *topBeats > 0:
		beats = profileBeats(m, art.Image())
	case *traceExec:
		last := -2
		m.TraceFn = func(pc int, beat int64) {
			if pc != last+1 {
				fmt.Fprintf(os.Stderr, "  -> %d @ beat %d\n", pc, beat)
			}
			last = pc
		}
	}
	if *resume != "" {
		snap, err := os.ReadFile(*resume)
		if err != nil {
			fatal(err)
		}
		if err := m.Contexts()[0].Restore(snap); err != nil {
			fatal(err)
		}
	}
	if *snapshotAt > 0 {
		m.StopBeat = *snapshotAt
	}
	v, out, err := m.RunContext(ctx)
	fmt.Print(out)
	if err != nil {
		var stop *vliw.ErrStopped
		if errors.As(err, &stop) {
			snap, serr := m.Contexts()[0].Snapshot()
			if serr != nil {
				fatal(serr)
			}
			if werr := os.WriteFile(*snapshotFile, snap, 0o644); werr != nil {
				fatal(werr)
			}
			fmt.Fprintf(os.Stderr, "tracesim: checkpointed at beat %d -> %s (continue with -resume %s)\n",
				stop.Beat, *snapshotFile, *snapshotFile)
			return
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tracesim: interrupted:", err)
			os.Exit(130)
		}
		fatal(err)
	}
	st := &m.Stats
	reportRegions(m)
	fmt.Printf("exit:        %d\n", v)
	fmt.Printf("machine:     %s\n", cfg.Name)
	fmt.Printf("beats:       %d (%.2f ms at %d ns/beat)\n", st.Beats,
		float64(st.Beats)*mach.BeatNs/1e6, mach.BeatNs)
	fmt.Printf("instrs:      %d   ops: %d (%.2f ops/instr)\n", st.Instrs, st.Ops,
		float64(st.Ops)/float64(st.Instrs))
	fmt.Printf("rates:       %.1f MIPS, %.1f MFLOPS (peak %.1f / %.1f)\n",
		st.MIPS(), st.MFLOPS(), cfg.PeakMIPS(), cfg.PeakMFLOPS())
	fmt.Printf("memory:      %d refs, %d bank-stall beats\n", st.MemRefs, st.BankStalls)
	fmt.Printf("speculation: %d speculative loads, %d funny numbers\n", st.SpecLoads, st.SpecFaults)
	fmt.Printf("icache:      %d misses / %d fetches, %d refill beats\n",
		st.ICacheMiss, st.ICacheMiss+st.ICacheHits, st.RefillBeats)
	fmt.Printf("tlb:         %d misses, %d trap beats\n", st.TLBMisses, st.TrapBeats)
	fmt.Printf("branches:    %d executed, %d taken\n", st.Branches, st.Taken)
	if beats != nil {
		beats.finish()
		beats.report(os.Stdout, *topBeats, art.Image(), art.Result().Funcs)
	}

	if *baselines {
		prog, err := lang.CompileFile(flag.Arg(0), string(src))
		if err != nil {
			fatal(err)
		}
		sc, _, _, err := baseline.Scalar(prog, cfg)
		if err != nil {
			fatal(err)
		}
		prog2, _ := lang.CompileFile(flag.Arg(0), string(src))
		sb, _, _, err := baseline.Scoreboard(prog2, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scalar:      %d beats (TRACE speedup %.2fx)\n", sc.Beats,
			float64(sc.Beats)/float64(st.Beats))
		fmt.Printf("scoreboard:  %d beats (speedup over scalar %.2fx)\n", sb.Beats,
			float64(sc.Beats)/float64(sb.Beats))
	}
}

// counts are tracesim's numeric flags.
type counts struct {
	maxCycles, quantum, switchBeats, snapshotAt int64
	beats, contexts                             int
}

// checkCounts refuses a count no run can honour: a negative beat count, which
// the run would otherwise replace by its default without a word, and a
// -contexts out of range or at odds with the number of source files.
func checkCounts(c counts, files int) error {
	names := [...]string{"-max-cycles", "-quantum", "-switch-beats", "-snapshot-at", "-beats"}
	for i, v := range [...]int64{c.maxCycles, c.quantum, c.switchBeats, c.snapshotAt, int64(c.beats)} {
		if v < 0 {
			return fmt.Errorf("%s must not be negative (got %d)", names[i], v)
		}
	}
	if c.contexts < 0 || c.contexts > 255 {
		return errors.New("-contexts out of range (0-255)")
	}
	if c.contexts > 0 && files > 1 && c.contexts != files {
		return fmt.Errorf("-contexts %d does not match %d source files", c.contexts, files)
	}
	return nil
}

// reportProven says on stderr (stdout is the same on every tier) how many of
// art's guarded sites the safe and native tiers run without their guards; of
// is " (file)" when several programs are resident.
func reportProven(art *core.Artifact, tier vliw.Tier, of string) {
	if tier < vliw.TierSafe {
		return
	}
	cert, _ := art.CertifySafe() // minted (and cached) when the tier was armed
	proven, total := cert.ProvenSites()
	fmt.Fprintf(os.Stderr, "tracesim: %s tier%s: %d/%d guarded sites proven, guards deleted\n", tier, of, proven, total)
}

// reportRegions prints the region counters of the run m has just finished,
// whichever tier it ran on, on stderr.
func reportRegions(m *vliw.Machine) {
	fmt.Fprintf(os.Stderr, "tracesim: regions: %s\n", m.RegionSummary())
}

// runManyFlags carries the time-sharing knobs into runContexts.
type runManyFlags struct {
	tier        vliw.Tier
	maxCycles   int64
	quantum     int64
	switchBeats int64
}

// runContexts executes k programs on k hardware contexts of one machine:
// the files named on the command line, or k copies of the single file. It
// prints each context's output, a per-context stats table (each row is
// exactly what a solo run of that program would report), and the machine
// scheduler's summary.
func runContexts(ctx context.Context, first *core.Artifact, k int, build func(string, []byte) *core.Artifact, rf runManyFlags) {
	names := make([]string, k)
	arts := make([]*core.Artifact, k)
	if flag.NArg() == 1 {
		for i := range arts {
			names[i] = flag.Arg(0)
			arts[i] = first
		}
	} else {
		built := map[string]*core.Artifact{flag.Arg(0): first}
		for i := 0; i < k; i++ {
			name := flag.Arg(i)
			names[i] = name
			if a, ok := built[name]; ok {
				arts[i] = a
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				fatal(err)
			}
			a := build(name, src)
			built[name] = a
			arts[i] = a
		}
	}

	m := arts[0].Machine()
	if rf.maxCycles > 0 {
		m.CycleLimit = rf.maxCycles
	}
	rs, sched, err := core.RunManyOn(ctx, m, arts, core.RunManyOptions{
		Tier: rf.tier, Quantum: rf.quantum, SwitchBeats: rf.switchBeats,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tracesim: interrupted:", err)
			os.Exit(130)
		}
		fatal(err)
	}

	for i, a := range arts {
		if slices.Index(arts, a) == i { // once a program
			of := ""
			if flag.NArg() > 1 {
				of = " (" + names[i] + ")"
			}
			reportProven(a, rf.tier, of)
		}
	}
	reportRegions(m)

	for i, r := range rs {
		if r.Output != "" {
			fmt.Printf("--- context %d: %s ---\n%s", i, names[i], r.Output)
		}
	}
	fmt.Printf("ctx  program               exit      beats     instrs  ops/instr   MIPS  stalls  status\n")
	var sum int64
	failed := false
	for i, r := range rs {
		st := r.Stats
		sum += st.Beats
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
			failed = true
		}
		opi := 0.0
		if st.Instrs > 0 {
			opi = float64(st.Ops) / float64(st.Instrs)
		}
		fmt.Printf("%3d  %-20s %5d %10d %10d %10.2f %6.1f %7d  %s\n",
			i, trunc(names[i], 20), r.Exit, st.Beats, st.Instrs, opi, st.MIPS(), st.BankStalls, status)
	}
	fmt.Printf("scheduler:   %d contexts, %d wall-clock beats (%.2f ms)\n",
		sched.Contexts, sched.TotalBeats, float64(sched.TotalBeats)*mach.BeatNs/1e6)
	fmt.Printf("             %d busy, %d stall beats hidden, %d switches costing %d beats\n",
		sched.BusyBeats, sched.HiddenBeats, sched.Switches, sched.SwitchBeats)
	if sched.TotalBeats > 0 {
		fmt.Printf("             sequential sum %d beats -> %.3fx wall-clock speedup\n",
			sum, float64(sum)/float64(sched.TotalBeats))
	}
	if failed {
		os.Exit(1)
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n+3:]
}

// stopProfiles finishes the -cpuprofile/-memprofile files; fatal runs it too,
// so a failing command still leaves its profile behind.
var stopProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracesim:", err)
	stopProfiles()
	os.Exit(1)
}
