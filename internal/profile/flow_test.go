package profile_test

import (
	"context"
	"math"
	"testing"

	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// TestStaticConservesFlow: on every function of the golden matrix, as the
// optimiser leaves it at O0 and O2, the static weights of a reachable block's
// in-edges sum to its frequency, LoopWeight^depth. A loop header entered by
// several latches weighs what its body does, not a multiple of it.
func TestStaticConservesFlow(t *testing.T) {
	for _, p := range testmatrix.Programs(t, testmatrix.Matrix...) {
		t.Run(p.Key(), func(t *testing.T) {
			t.Parallel()
			for _, lv := range testmatrix.MatrixLevels {
				prog, err := lang.Compile(p.Src)
				if err != nil {
					t.Fatal(err)
				}
				if err := pipeline.Run(context.Background(), prog, pipeline.NewContext(), opt.Passes(lv.Opt)...); err != nil {
					t.Fatal(err)
				}
				prof := profile.Static(prog)
				for _, f := range prog.Funcs {
					depth := make([]int, len(f.Blocks))
					for _, l := range f.NaturalLoops() {
						for b := range l.Body {
							depth[b]++
						}
					}
					in := make([]float64, len(f.Blocks))
					entered := make([]bool, len(f.Blocks))
					for e, w := range prof[f.Name] {
						in[e[1]] += w
						entered[e[1]] = true
					}
					reach := make([]bool, len(f.Blocks))
					work := []int{0}
					reach[0] = true
					for len(work) > 0 {
						b := work[len(work)-1]
						work = work[:len(work)-1]
						for _, s := range f.Blocks[b].Succs() {
							if !reach[s] {
								reach[s] = true
								work = append(work, s)
							}
						}
					}
					for b := range f.Blocks {
						if !reach[b] || b == 0 && !entered[b] {
							continue
						}
						want := math.Pow(profile.LoopWeight, float64(depth[b]))
						if math.Abs(in[b]-want) > 1e-9*want {
							t.Errorf("%s %s b%d (depth %d): in-edges sum to %g, want %g", lv.Name, f.Name, b, depth[b], in[b], want)
						}
					}
				}
			}
		})
	}
}
