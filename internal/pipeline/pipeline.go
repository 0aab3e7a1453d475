// Package pipeline is the compiler's pass manager. The paper describes the
// Trace Scheduling compiler as a sequence of distinct phases — classical
// optimization, trace selection, list scheduling, register-bank allocation,
// encoding (§4, §8) — and this package makes that structure explicit: every
// phase is a named Pass run by an instrumented driver that records per-pass
// wall-clock time and IR-size deltas, can dump the IR after every pass, and
// in verify mode re-validates the IR at each pass boundary so a broken pass
// fails at its own boundary instead of as a mystery scheduler error.
//
// The driver is deliberately small so alternative schedulers (SMT- or
// ASP-based optimal pipelining, per PAPERS.md) can later slot in as passes
// without touching the driver.
package pipeline

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"github.com/multiflow-repro/trace/internal/ir"
)

// Pass is one named phase of the compiler operating on a whole program.
type Pass interface {
	Name() string
	Run(p *ir.Program, ctx *Context) error
}

// Context threads instrumentation and inter-pass artifacts through one
// pipeline execution. A Context is not safe for concurrent use; the driver
// runs passes sequentially.
type Context struct {
	// Verify runs ir.Validate after every pass and fails the pipeline at
	// the first pass whose output is malformed.
	Verify bool
	// DumpIR, when non-nil, receives a printout of the IR after every pass.
	DumpIR io.Writer
	// Profile is the edge-weight profile produced by the profiling pass for
	// downstream trace selection.
	Profile ir.Profile
	// Report accumulates per-pass timings and size deltas.
	Report Report

	metrics map[string]int
}

// NewContext returns an empty Context.
func NewContext() *Context {
	return &Context{metrics: map[string]int{}}
}

// Add bumps a named metric counter (e.g. "inlined", "hoisted"). Passes use
// it to report what they did without widening the Pass interface.
func (ctx *Context) Add(name string, n int) {
	if ctx.metrics == nil {
		ctx.metrics = map[string]int{}
	}
	ctx.metrics[name] += n
}

// Metric reads a named counter; missing counters read as zero.
func (ctx *Context) Metric(name string) int { return ctx.metrics[name] }

// PassTiming is one pass's entry in the report.
type PassTiming struct {
	Name      string
	Duration  time.Duration
	OpsBefore int
	OpsAfter  int
}

// Report is the -time-passes output: one entry per executed pass or stage,
// in execution order.
type Report struct {
	Passes []PassTiming
	Total  time.Duration
}

// String renders the report as the classic per-pass timing table.
func (r Report) String() string {
	if len(r.Passes) == 0 {
		return "pipeline: no passes recorded\n"
	}
	out := fmt.Sprintf("%-14s %12s %8s %8s %8s\n", "pass", "time", "ops-in", "ops-out", "delta")
	for _, p := range r.Passes {
		delta := p.OpsAfter - p.OpsBefore
		out += fmt.Sprintf("%-14s %12s %8d %8d %+8d\n",
			p.Name, p.Duration.Round(time.Microsecond), p.OpsBefore, p.OpsAfter, delta)
	}
	out += fmt.Sprintf("%-14s %12s\n", "total", r.Total.Round(time.Microsecond))
	return out
}

// record appends one timing entry and keeps Total in sync.
func (r *Report) record(name string, d time.Duration, before, after int) {
	r.Passes = append(r.Passes, PassTiming{Name: name, Duration: d, OpsBefore: before, OpsAfter: after})
	r.Total += d
}

// PanicError is a compiler crash converted into a diagnosable error: the
// driver recovers panics at every pass and stage boundary so a bug in one
// phase fails the compilation with attribution instead of killing the
// process with a Go stack trace. The trace is retained for bug reports but
// kept out of Error() so user-facing diagnostics stay one line.
type PanicError struct {
	Pass  string // pass or stage name that crashed
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() at the point of recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal compiler error in pass %s: %v", e.Pass, e.Value)
}

// guard runs fn, converting a panic into a *PanicError attributed to name.
func guard(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Pass: name, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// funcPass adapts a name + function to the Pass interface.
type funcPass struct {
	name string
	run  func(*ir.Program, *Context) error
}

func (p funcPass) Name() string                             { return p.name }
func (p funcPass) Run(prog *ir.Program, ctx *Context) error { return p.run(prog, ctx) }

// New builds a Pass from a name and a run function.
func New(name string, run func(*ir.Program, *Context) error) Pass {
	return funcPass{name: name, run: run}
}

// PerFunc builds a whole-program Pass from a per-function transform that
// returns a count of changes; the count is added to the named metric.
func PerFunc(name, metric string, fn func(*ir.Func) int) Pass {
	return New(name, func(p *ir.Program, ctx *Context) error {
		n := 0
		for _, f := range p.Funcs {
			n += fn(f)
		}
		ctx.Add(metric, n)
		return nil
	})
}

// Run executes the passes in order over p, recording a timing entry per
// pass. With ctx.Verify set, the IR is validated after every pass and the
// first failure is attributed to the pass that produced it.
//
// The driver checks cctx at every pass boundary: a canceled compilation
// stops before the next pass starts and returns an error satisfying
// errors.Is(err, cctx.Err()). Passes themselves are not interrupted — a
// pass either completes or never runs, so cancellation can never leave the
// IR half-transformed.
func Run(cctx context.Context, p *ir.Program, ctx *Context, passes ...Pass) error {
	for _, ps := range passes {
		if err := cctx.Err(); err != nil {
			return fmt.Errorf("compilation canceled before pass %s: %w", ps.Name(), err)
		}
		before := CountOps(p)
		start := time.Now()
		err := guard(ps.Name(), func() error { return ps.Run(p, ctx) })
		ctx.Report.record(ps.Name(), time.Since(start), before, CountOps(p))
		if err != nil {
			if _, crashed := err.(*PanicError); crashed {
				return err // already pass-attributed
			}
			return fmt.Errorf("pass %s: %w", ps.Name(), err)
		}
		if ctx.DumpIR != nil {
			fmt.Fprintf(ctx.DumpIR, "; ---- IR after pass %s ----\n%s", ps.Name(), p.String())
		}
		if ctx.Verify {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("verify: IR invalid after pass %s: %w", ps.Name(), err)
			}
		}
	}
	return nil
}

// Stage times a non-IR backend stage (scheduling, linking) into the same
// report. The op counts of the program are recorded unchanged on both sides
// since stages operate past the IR. Like Run, it checks cctx at the stage
// boundary, so a canceled compilation never starts the next backend stage.
func (ctx *Context) Stage(cctx context.Context, name string, p *ir.Program, fn func() error) error {
	if err := cctx.Err(); err != nil {
		return fmt.Errorf("compilation canceled before stage %s: %w", name, err)
	}
	ops := CountOps(p)
	start := time.Now()
	err := guard(name, fn)
	ctx.Report.record(name, time.Since(start), ops, ops)
	return err
}

// CountOps counts real IR operations across the program — the size metric
// reported per pass.
func CountOps(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Ops)
		}
	}
	return n
}
