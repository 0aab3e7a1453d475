package tsched_test

import (
	"context"
	"slices"
	"testing"

	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/tsched"
)

// TestLoopHeaderSharesItsLoopTrace: under the static profile, the header of
// sort's innermost loop — unrolled, so four latches enter it — is selected
// into one trace with blocks of its body. With a weight per latch it seeded a
// one-block trace that every iteration jumped out of and back into.
func TestLoopHeaderSharesItsLoopTrace(t *testing.T) {
	prog, err := lang.Compile(testmatrix.Ledger.Get(t, "sort").Src)
	if err != nil {
		t.Fatal(err)
	}
	pctx := pipeline.NewContext()
	passes := append(opt.Passes(opt.Default()), profile.Pass(false))
	if err := pipeline.Run(context.Background(), prog, pctx, passes...); err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	vf, err := tsched.LowerFunc(prog, f, true)
	if err != nil {
		t.Fatal(err)
	}
	traces := tsched.SelectTraces(vf, pctx.Profile["main"], 0)
	loops := f.NaturalLoops()
	checked := 0
	for _, l := range loops {
		innermost := true
		for _, o := range loops {
			innermost = innermost && (o == l || !l.Body[o.Head])
		}
		if !innermost || len(l.Latches) < 2 {
			continue
		}
		checked++
		for _, tr := range traces {
			if !slices.Contains(tr.Blocks, l.Head+1) { // vblock i+1 mirrors IR block i
				continue
			}
			shared := false
			for _, b := range tr.Blocks {
				shared = shared || b != l.Head+1 && l.Body[b-1]
			}
			if !shared {
				t.Errorf("header b%d of a loop with %d latches is in trace %v, which holds none of its body", l.Head, len(l.Latches), tr.Blocks)
			}
		}
	}
	if checked == 0 {
		t.Fatal("sort has no innermost loop with several latches: the test exercises nothing")
	}
}
