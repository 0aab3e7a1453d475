package tsched

import (
	"context"
	"fmt"
	"runtime/debug"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// ErrInternal is a per-function backend crash converted into an error: a
// panic in lowering, trace selection, scheduling, or register allocation
// fails that function's compilation unit with attribution instead of
// tearing down the process with a stack trace.
type ErrInternal struct {
	Func  string // function whose compilation crashed
	Value any    // recovered panic value
	Stack []byte // debug.Stack() at recovery
}

func (e *ErrInternal) Error() string {
	return fmt.Sprintf("internal scheduler error compiling %s: %v", e.Func, e.Value)
}

// CompileOptions configures a whole-program backend run.
type CompileOptions struct {
	// MaxTraceBlocks caps trace length (0 = unlimited; 1 = basic-block
	// compaction only).
	MaxTraceBlocks int
}

// CompileParallel lowers and schedules every function of the program for
// the given machine (lowering, trace selection, list scheduling,
// register-bank allocation, emission), one function after another. It
// modifies prog (call spills); callers pass a private copy. Functions whose
// register demand overflows a bank are retried with shorter traces before
// the error is surfaced. After inlining a program compiles one or two
// functions, so there is nothing worth fanning out; the name stays because
// the benchmark's layer timings call it.
//
// ctx is checked before each function: once canceled, no further function
// compilation starts (a function either compiles completely or not at all)
// and the ctx error is returned. The first failing function ends the run
// with its own error, so cancellation never masks a real diagnosis.
func CompileParallel(ctx context.Context, prog *ir.Program, cfg mach.Config, prof ir.Profile, o CompileOptions) ([]*FuncCode, error) {
	layout, _ := ir.LayoutGlobals(prog)
	ladder := retryLadder(o.MaxTraceBlocks)
	out := make([]*FuncCode, len(prog.Funcs))
	for i, f := range prog.Funcs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fc, err := compileOne(cfg, prog, f, prof[f.Name], layout, ladder)
		if err != nil {
			return nil, err
		}
		out[i] = fc
	}
	return out, nil
}

// compileOne runs the whole backend on a single function, descending the
// trace-length retry ladder on register pressure. Panics anywhere in the
// per-function backend are recovered into *ErrInternal so one poisoned
// function cannot kill the process.
func compileOne(cfg mach.Config, prog *ir.Program, f *ir.Func, prof ir.EdgeWeights, layout map[string]int64, ladder []int) (fc *FuncCode, err error) {
	defer func() {
		if r := recover(); r != nil {
			fc, err = nil, &ErrInternal{Func: f.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	vf, err := LowerFunc(prog, f, f.Name == "main")
	if err != nil {
		return nil, err
	}
	for _, maxBlocks := range ladder {
		fc, err = CompileFunc(cfg, vf, prof, layout, maxBlocks)
		if err == nil {
			fc.TraceCap = maxBlocks
			return fc, nil
		}
		if !isCapacityErr(err) {
			return nil, err
		}
	}
	return nil, err
}

// isCapacityErr reports whether err is a structured capacity rejection
// (register pressure or schedule-size blowup) that shorter traces may fix.
func isCapacityErr(err error) bool {
	switch err.(type) {
	case *ErrPressure, *ErrScheduleSize:
		return true
	}
	return false
}

// retryLadder returns the descending trace-length caps tried on register
// pressure: unlimited, then 6, 2, 1 blocks; with an explicit cap, the caps
// at or below it.
func retryLadder(maxTraceBlocks int) []int {
	if maxTraceBlocks <= 0 {
		return []int{0, 6, 2, 1}
	}
	ladder := []int{}
	for _, m := range []int{maxTraceBlocks, 2, 1} {
		if m <= maxTraceBlocks {
			ladder = append(ladder, m)
		}
	}
	return ladder
}
