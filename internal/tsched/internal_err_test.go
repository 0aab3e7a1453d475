package tsched

import (
	"context"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// TestWorkerPanicBecomesErrInternal: a backend crash on one function must
// surface as a function-attributed *ErrInternal from CompileParallel, not a
// process-killing panic.
func TestWorkerPanicBecomesErrInternal(t *testing.T) {
	// A function with a nil block is malformed in a way the backend has no
	// check for — exactly the shape of a real compiler bug.
	prog := &ir.Program{Funcs: []*ir.Func{
		{Name: "poisoned", Blocks: []*ir.Block{nil}},
	}}
	_, err := CompileParallel(context.Background(), prog, mach.Trace7(), ir.Profile{}, CompileOptions{})
	if err == nil {
		t.Fatal("poisoned function compiled without error")
	}
	ie, ok := err.(*ErrInternal)
	if !ok {
		t.Fatalf("want *ErrInternal, got %T: %v", err, err)
	}
	if ie.Func != "poisoned" {
		t.Errorf("ErrInternal.Func = %q, want poisoned", ie.Func)
	}
	if len(ie.Stack) == 0 {
		t.Error("ErrInternal carries no stack")
	}
	if !strings.Contains(err.Error(), "internal scheduler error") {
		t.Errorf("diagnostic: %v", err)
	}
}
