package lang_test

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// TestEveryOpHasALine: every op the frontend emits for the ledger, examples
// and testdata programs carries the source line it was lowered from — the
// builder's arithmetic, constants and addresses as much as the ops the
// lowerer builds itself — so a beat profile or a fault can name the line.
func TestEveryOpHasALine(t *testing.T) {
	ops, missing := 0, map[ir.OpKind]int{}
	for _, p := range testmatrix.Programs(t, testmatrix.Ledger, testmatrix.Examples, testmatrix.Testdata) {
		prog, err := lang.Compile(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for _, o := range b.Ops {
					ops++
					if o.Line <= 0 {
						missing[o.Kind]++
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("ops without a line, by kind: %v (of %d ops)", missing, ops)
	}
}
