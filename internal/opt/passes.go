package opt

import (
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/pipeline"
)

// Metric names the classical passes report through pipeline.Context.
const (
	MetricInlined    = "inlined"
	MetricUnrolled   = "unrolled"
	MetricHoisted    = "hoisted"
	MetricTailDups   = "taildups"
	MetricSimplified = "simplified"
	MetricRemoved    = "removed"

	// The constant divides DivConst rewrote, and those it left on the
	// divider because the dividend has no bound or too wide a one.
	MetricDivRewritten = "div-rewritten"
	MetricDivNoBound   = "div-nobound"
	MetricDivTooWide   = "div-toowide"
)

// Passes returns the classical-optimization pipeline as registered passes,
// in the order Run has always applied them: inline → cleanup
// (LVN/copyprop/branch-fold/DCE to a fixed point) → divconst → LICM →
// unroll → tail-dup → cleanup → DCE. Divides by constants are rewritten
// before LICM so the constants of their replacements are hoisted with the
// rest. Each stage is per-function and functions are
// independent, so running each stage across the whole program preserves the
// IR the fused driver produced. Unrolling runs after LICM so invariants are
// hoisted once, not per copy.
func Passes(o Options) []pipeline.Pass {
	var ps []pipeline.Pass
	if o.Inline {
		ps = append(ps, pipeline.New("inline", func(p *ir.Program, ctx *pipeline.Context) error {
			ctx.Add(MetricInlined, Inline(p, inlineThreshold, inlineGrowthCap))
			return nil
		}))
	}
	ps = append(ps,
		pipeline.PerFunc("cleanup", MetricSimplified, cleanup),
		pipeline.New("divconst", func(p *ir.Program, ctx *pipeline.Context) error {
			for _, f := range p.Funcs {
				rewritten, noBound, tooWide := DivConst(f)
				ctx.Add(MetricDivRewritten, rewritten)
				ctx.Add(MetricDivNoBound, noBound)
				ctx.Add(MetricDivTooWide, tooWide)
			}
			return nil
		}),
		pipeline.PerFunc("licm", MetricHoisted, LICM),
	)
	if o.UnrollFactor > 1 {
		ps = append(ps, pipeline.PerFunc("unroll", MetricUnrolled, func(f *ir.Func) int {
			return Unroll(f, o.UnrollFactor, unrollMaxOps)
		}))
	}
	if o.TailDup {
		ps = append(ps, pipeline.PerFunc("taildup", MetricTailDups, func(f *ir.Func) int {
			return TailDup(f, tailDupBlockOps, tailDupBudget)
		}))
	}
	ps = append(ps,
		pipeline.PerFunc("post-cleanup", MetricSimplified, cleanup),
		pipeline.PerFunc("dce", MetricRemoved, DCE),
	)
	return ps
}

// StatsFrom collects the counters the passes left in ctx into the Stats the
// pre-pipeline API reported, with op counts from before/after the classical
// passes.
func StatsFrom(ctx *pipeline.Context, opsBefore, opsAfter int) Stats {
	return Stats{
		Inlined:      ctx.Metric(MetricInlined),
		Unrolled:     ctx.Metric(MetricUnrolled),
		Hoisted:      ctx.Metric(MetricHoisted),
		TailDups:     ctx.Metric(MetricTailDups),
		Simplified:   ctx.Metric(MetricSimplified),
		Removed:      ctx.Metric(MetricRemoved),
		DivRewritten: ctx.Metric(MetricDivRewritten),
		DivNoBound:   ctx.Metric(MetricDivNoBound),
		DivTooWide:   ctx.Metric(MetricDivTooWide),
		OpsBefore:    opsBefore,
		OpsAfter:     opsAfter,
	}
}
