package opt

import (
	"context"
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/pipeline"
)

// Options configures the classical-optimization pipeline.
type Options struct {
	// Inline enables inline substitution of subroutines.
	Inline bool
	// UnrollFactor replicates innermost loop bodies this many times total
	// (0 or 1 = no unrolling).
	UnrollFactor int
	// TailDup duplicates small merge blocks so traces can run through
	// if-chains without side entrances (see TailDup).
	TailDup bool
}

// The §8.4 growth budgets every level shares.
const (
	inlineThreshold = 60   // the largest callee inlined, in ops
	inlineGrowthCap = 2000 // the largest a caller grows to by inlining, in ops
	unrollMaxOps    = 400  // the most ops unrolling adds to one loop
	tailDupBlockOps = 12   // the largest merge block duplicated, in ops
	tailDupBudget   = 200  // the most ops tail duplication adds to one function
)

// Default returns the optimization options the compiler driver uses at -O2:
// inlining on, unroll by 8 — comparable in spirit to the heuristics the
// paper says are "now in place" (§8.4).
func Default() Options {
	return Options{Inline: true, UnrollFactor: 8, TailDup: true}
}

// None returns options that disable every optional transformation (cleanup
// passes still run so the IR reaching the scheduler is canonical).
func None() Options { return Options{UnrollFactor: 1} }

// Level returns the options of optimization level n, the one spelling every
// front end shares (-O, the service's "O", trace.OptLevel): 0 is None, 1
// inlines and unrolls by 4, 2 is Default.
func Level(n int) (Options, error) {
	switch n {
	case 0:
		return None(), nil
	case 1:
		return Options{Inline: true, UnrollFactor: 4}, nil
	case 2:
		return Default(), nil
	}
	return Options{}, fmt.Errorf("opt: level must be 0, 1, or 2 (got %d)", n)
}

// Stats reports what the pipeline did, for the code-growth experiments.
type Stats struct {
	Inlined    int
	Unrolled   int
	Hoisted    int
	TailDups   int
	Simplified int
	Removed    int
	// Divides by a non-zero constant: rewritten into shifts, masks and
	// multiplies, or kept on the divider because the dividend has no bound
	// (DivNoBound) or its bound lets the product leave 32 bits (DivTooWide).
	DivRewritten int
	DivNoBound   int
	DivTooWide   int
	OpsBefore    int
	OpsAfter     int
}

// Run applies the full classical pipeline to the program and returns stats.
// It is a thin wrapper over Passes executed by the pipeline driver; callers
// that want per-pass instrumentation run Passes through pipeline.Run
// themselves (as the core driver does).
func Run(p *ir.Program, opts Options) Stats {
	ctx := pipeline.NewContext()
	before := pipeline.CountOps(p)
	// Classical passes never fail without verify mode enabled.
	if err := pipeline.Run(context.Background(), p, ctx, Passes(opts)...); err != nil {
		panic("opt: classical pass failed: " + err.Error())
	}
	return StatsFrom(ctx, before, pipeline.CountOps(p))
}

// cleanup iterates the cheap local passes to a fixed point.
func cleanup(f *ir.Func) int {
	total := 0
	for i := 0; i < 10; i++ {
		n := LVN(f)
		n += CopyProp(f)
		n += FoldBranches(f)
		n += DCE(f)
		total += n
		if n == 0 {
			break
		}
	}
	return total
}
