package tsched

import (
	"context"
	"errors"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/profile"
)

const manyFuncsSrc = `
func f0(n int) int { return n + 1 }
func f1(n int) int { return f0(n) * 2 }
func f2(n int) int { return f1(n) + f0(n) }
func f3(n int) int { return f2(n) - 1 }
func main() int { return f3(5) }
`

// TestCompileParallelCanceled: a canceled context stops the backend before
// it schedules any (more) functions, and the error satisfies errors.Is.
// Function compilations are atomic — a function either compiles completely
// or is never started.
func TestCompileParallelCanceled(t *testing.T) {
	prog, err := lang.Compile(manyFuncsSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.Static(prog)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CompileParallel(ctx, prog, mach.Trace28(), prof, CompileOptions{})
	if err == nil {
		t.Fatal("pre-canceled backend returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, Canceled) = false: %v", err)
	}
}

// TestCompileParallelRealErrorWinsOverCancel: when a function fails for a
// real reason and the context is canceled afterwards, the real error is
// reported — cancellation must not mask genuine diagnostics.
func TestCompileParallelRealErrorWinsOverCancel(t *testing.T) {
	prog := &ir.Program{Funcs: []*ir.Func{
		{Name: "poisoned", Blocks: []*ir.Block{nil}},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := CompileParallel(ctx, prog, mach.Trace7(), ir.Profile{}, CompileOptions{})
	if err == nil {
		t.Fatal("poisoned function compiled without error")
	}
	var ie *ErrInternal
	if !errors.As(err, &ie) {
		t.Fatalf("want *ErrInternal, got %T: %v", err, err)
	}
}
