// Command tracecc compiles MF source for a TRACE configuration and reports
// on the compilation: IR, schedules, disassembly, code sizes, and the pass
// pipeline (per-pass timings, per-pass IR dumps, boundary verification).
//
// Usage:
//
//	tracecc [-pairs N] [-O level] [-profile] [-verify] [-time-passes]
//	        [-dump-ir] [-disasm] [-stats] [-cpuprofile F] [-memprofile F] prog.mf
//
// -cpuprofile and -memprofile write pprof profiles of the whole command, so a
// cold compile can be profiled without a test harness.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/prof"
)

func main() {
	pairs := flag.Int("pairs", 4, "I-F board pairs (1, 2, or 4)")
	olevel := flag.Int("O", 2, "optimization level (0-2)")
	profRun := flag.Bool("profile", false, "profile-guided trace selection")
	dumpIR := flag.Bool("dump-ir", false, "print the IR after every compiler pass")
	disasm := flag.Bool("disasm", false, "print the linked disassembly")
	stats := flag.Bool("stats", true, "print code-size statistics")
	ideal := flag.Bool("ideal", false, "target the Figure-1 ideal VLIW")
	verify := flag.Bool("verify", false, "validate the IR after every compiler pass")
	lint := flag.Bool("lint", false, "statically verify the linked schedule (schedcheck) after linking")
	timePasses := flag.Bool("time-passes", false, "print per-pass timing and IR-size report")
	profiles := prof.Register()
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecc [flags] prog.mf")
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
		fmt.Fprintf(os.Stderr, "tracecc: -pairs: %v\n", err)
		os.Exit(2)
	}
	cfg := mach.NewConfig(*pairs)
	if *ideal {
		cfg = mach.IdealConfig(*pairs)
	}
	lvl, err := opt.Level(*olevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecc: -O: %v\n", err)
		os.Exit(2)
	}
	copts := core.Options{
		Config: cfg, Opt: lvl, ProfileRun: *profRun,
		Verify: *verify, Lint: *lint,
	}
	if *dumpIR {
		copts.DumpIR = os.Stdout
	}
	// SIGINT cancels the build at the next pass or function boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	art, err := core.BuildFile(ctx, flag.Arg(0), string(src), copts)
	if err != nil {
		fatal(err)
	}
	res := art.Result()

	if *timePasses {
		fmt.Print(res.Report.String())
	}
	if *disasm {
		for i := range res.Image.Instrs {
			fmt.Println(res.Image.Disassemble(i))
		}
	}
	if *stats {
		fixed, packed, ops := res.Image.CodeSizes()
		prog, _ := lang.CompileFile(flag.Arg(0), string(src))
		vax := baseline.VAXSize(prog)
		fmt.Printf("target:            %s (%d ops/instr, %d-bit word)\n", cfg.Name, cfg.OpsPerInstr(), cfg.InstrBits())
		fmt.Printf("instructions:      %d\n", len(res.Image.Instrs))
		fmt.Printf("operations:        %d (IR before opt: %d, after: %d)\n", ops, res.Opt.OpsBefore, res.Opt.OpsAfter)
		fmt.Printf("fixed-width size:  %d bytes\n", fixed)
		if packed > 0 {
			fmt.Printf("packed size:       %d bytes (%.0f%% of fixed; §6.5.1 mask format)\n",
				packed, 100*float64(packed)/float64(fixed))
		}
		fmt.Printf("VAX-model size:    %d bytes (packed/VAX = %.2fx)\n", vax, float64(packed)/float64(vax))
		fmt.Printf("opt pipeline:      %d inlined, %d loops unrolled, %d hoisted\n",
			res.Opt.Inlined, res.Opt.Unrolled, res.Opt.Hoisted)
		fmt.Printf("constant divides:  %d rewritten, %d kept (%d dividend unbounded, %d bound too wide)\n",
			res.Opt.DivRewritten, res.Opt.DivNoBound+res.Opt.DivTooWide, res.Opt.DivNoBound, res.Opt.DivTooWide)
		var comp, spec, copies, pads, serial int
		for _, fc := range res.Funcs {
			comp += fc.CompOps
			spec += fc.SpecLoads
			copies += fc.CopyOps
			pads += fc.PadInstrs
			serial += fc.SerialInstrs
		}
		fmt.Printf("trace scheduling:  %d compensation ops, %d speculative loads, %d cross-bank copies, %d serialized instrs (%d entry-pad)\n",
			comp, spec, copies, serial, pads)
	}
}

// stopProfiles finishes the -cpuprofile/-memprofile files; fatal runs it too,
// so a failing command still leaves its profile behind.
var stopProfiles = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecc:", err)
	stopProfiles()
	os.Exit(1)
}
