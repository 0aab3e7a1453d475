// Package core is the compiler driver: it runs the full pipeline from MF
// source (or IR) through classical optimization, profiling, trace
// scheduling, register allocation, and linking, producing an executable
// image for the vliw simulator. This is the public engine behind the
// top-level trace package and the cmd tools.
//
// The driver is structured as an explicit pass pipeline (internal/pipeline):
// the classical optimizations and profile estimation run as registered
// passes with per-pass timing, IR-size deltas, optional IR dumps, and — in
// verify mode — an IR validation at every pass boundary. The per-function
// backend (trace scheduling and machine lowering) then compiles each
// function in turn, and linking joins them.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/tsched"
)

// Options configures a compilation.
type Options struct {
	Config mach.Config
	Opt    opt.Options
	// ProfileRun executes the program in the IR interpreter first and feeds
	// the measured edge counts to trace selection; otherwise static
	// loop-depth heuristics estimate them (§4: "heuristics or profiling").
	ProfileRun bool
	// MaxTraceBlocks caps trace length (0 = unlimited). 1 restricts the
	// code generator to basic-block compaction — the ablation §10 proposes
	// ("quantifying the speedups due to trace scheduling vs. those achieved
	// by more universal compiler optimizations").
	MaxTraceBlocks int

	// Verify validates the IR after every pipeline pass, so a broken pass
	// fails at its own boundary instead of as a mystery scheduler error.
	Verify bool
	// Lint statically verifies the linked image against the no-interlock
	// schedule contract (internal/schedcheck) as a final pipeline stage.
	// Any error-severity finding fails the compilation; the report is
	// returned as Result.Lint either way.
	Lint bool
	// DumpIR, when non-nil, receives a printout of the IR after every pass.
	DumpIR io.Writer
}

// DefaultOptions compiles for the 4-pair TRACE 28/200 at full optimization
// with heuristic profiles.
func DefaultOptions() Options {
	return Options{Config: mach.Trace28(), Opt: opt.Default()}
}

// Ablate turns off what the ablation switches of a compile request name:
// the §7 speculative loads (noSpeculation), the §6.5.2 multiway branch
// (noMultiway), the §6.4.4 bank-stall gamble (conservative) and, with
// basicBlockOnly, trace scheduling beyond one basic block (§10: "quantifying
// the speedups due to trace scheduling"). trace.Options and the service's
// wire options both apply their switches through it.
func (o *Options) Ablate(noSpeculation, noMultiway, conservative, basicBlockOnly bool) {
	if noSpeculation {
		o.Config.SpeculativeLoads = false
	}
	if noMultiway {
		o.Config.MultiwayBranch = false
	}
	if conservative {
		o.Config.RollTheDice = false
	}
	if basicBlockOnly {
		o.MaxTraceBlocks = 1
	}
}

// Result is a completed compilation.
type Result struct {
	Image    *isa.Image
	Funcs    []*tsched.FuncCode
	Opt      opt.Stats
	Profile  ir.Profile
	OptIR    *ir.Program // the optimized IR actually scheduled
	SourceIR *ir.Program // the unoptimized reference IR

	// Lint is the schedcheck report when Options.Lint was set.
	Lint *schedcheck.Report

	// Report is the per-pass timing and IR-size record of the successful
	// attempt (classical passes, profiling, scheduling, linking).
	Report pipeline.Report
	// Attempts counts compilation attempts: 1 plus one per §8.4
	// pressure-driven retry with gentler optimization settings.
	Attempts int
	// OptUsed is the optimization configuration of the successful attempt —
	// it differs from Options.Opt when register pressure forced a retry
	// with halved unrolling or inlining disabled.
	OptUsed opt.Options
}

// pipelineRuns counts completed pipeline executions process-wide (one per
// CompileIR call that reaches the pass pipeline). The serving layer's cache
// tests use it to prove that a cache-hit request performed zero compilations
// — the counter is incremented here, beneath every entry point, so no
// caching layer above can fake it.
var pipelineRuns atomic.Int64

// PipelineRuns reports how many compilations have executed the pass
// pipeline since process start.
func PipelineRuns() int64 { return pipelineRuns.Load() }

// Compile compiles MF source text. The context is honored at every pass
// boundary, between per-function backend jobs, and at backend stage
// boundaries: a canceled compile returns an error satisfying
// errors.Is(err, ctx.Err()) without finishing the remaining work.
func Compile(ctx context.Context, src string, opts Options) (*Result, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	return CompileIR(ctx, prog, opts)
}

// CompileFile compiles MF source read from a named file; frontend
// diagnostics render as "name:line:col: message".
func CompileFile(ctx context.Context, name, src string, opts Options) (*Result, error) {
	prog, err := lang.CompileFile(name, src)
	if err != nil {
		return nil, err
	}
	return CompileIR(ctx, prog, opts)
}

// CompileIR compiles an IR program (which is not modified).
func CompileIR(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	pipelineRuns.Add(1)
	res := &Result{SourceIR: prog}

	// Retry with gentler unrolling if a register bank overflows: the
	// paper's compiler tunes its heuristics for exactly this reason (§8.4).
	optCfg := opts.Opt
	for attempt := 0; ; attempt++ {
		work := prog.Clone()
		pctx := pipeline.NewContext()
		pctx.Verify = opts.Verify
		pctx.DumpIR = opts.DumpIR

		// Front half: classical optimization then profile estimation, as
		// registered passes.
		opsBefore := pipeline.CountOps(work)
		passes := append(opt.Passes(optCfg), profile.Pass(opts.ProfileRun))
		if err := pipeline.Run(ctx, work, pctx, passes...); err != nil {
			return nil, err
		}
		res.Opt = opt.StatsFrom(pctx, opsBefore, pipeline.CountOps(work))
		res.Profile = pctx.Profile

		// Back half: per-function trace scheduling, then linking.
		var codes []*tsched.FuncCode
		err := pctx.Stage(ctx, "tsched", work, func() error {
			var err error
			codes, err = tsched.CompileParallel(ctx, work, opts.Config, res.Profile, tsched.CompileOptions{
				MaxTraceBlocks: opts.MaxTraceBlocks,
			})
			return err
		})
		if err != nil {
			var ep *tsched.ErrPressure
			var es *tsched.ErrScheduleSize
			capacity := errors.As(err, &ep) || errors.As(err, &es)
			if capacity && optCfg.UnrollFactor > 1 {
				optCfg.UnrollFactor /= 2
				continue
			}
			if capacity && optCfg.Inline {
				optCfg.Inline = false
				continue
			}
			if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
				return nil, fmt.Errorf("compilation canceled in the backend: %w", err)
			}
			return nil, fmt.Errorf("schedule: %w", err)
		}
		var img *isa.Image
		if err := pctx.Stage(ctx, "link", work, func() error {
			var err error
			img, err = isa.Link(work, codes, opts.Config)
			return err
		}); err != nil {
			return nil, err
		}
		if opts.Lint {
			if err := pctx.Stage(ctx, "lint", work, func() error {
				res.Lint = schedcheck.Check(img, schedcheck.Options{
					Src: schedcheck.NewSourceMap(img, codes),
				})
				return res.Lint.Err()
			}); err != nil {
				return nil, err
			}
		}
		res.Funcs = codes
		res.OptIR = work
		res.Image = img
		res.Report = pctx.Report
		res.Attempts = attempt + 1
		res.OptUsed = optCfg
		return res, nil
	}
}

// Interpret runs the reference interpreter on the unoptimized IR.
func Interpret(res *Result) (int32, string, error) {
	in := &ir.Interp{Prog: res.SourceIR}
	return in.Run()
}
