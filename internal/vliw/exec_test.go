package vliw

import (
	"errors"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// notValueOps are the opcodes the ALU/F/memory datapath executes that are
// not a function of their operands alone, so they have no entry in the
// shared value table (mach.ValueOf) and keep a case of their own in execOp
// and compileExec.
var notValueOps = map[ir.OpKind]bool{
	ir.Nop: true, ir.ConstI: true, ir.ConstF: true,
	ir.Mov: true, mach.OpMovSF: true, ir.Select: true,
	ir.Load: true, ir.LoadSpec: true, ir.Store: true,
}

// TestEveryExecutedOpcodeHasSemantics: an opcode either has value semantics
// in the shared table or is on the explicit structural list above, and both
// executors accept exactly that set. An opcode added to the IR without
// semantics fails here instead of reaching TrapBadOp at run time.
func TestEveryExecutedOpcodeHasSemantics(t *testing.T) {
	img := build(t, `func main() int { return 0 }`, mach.Trace7())
	m := New(img)
	c := m.cur
	badOp := func(err error) bool {
		var f *Fault
		return errors.As(err, &f) && f.Code == TrapBadOp
	}
	for k := ir.OpKind(0); k < opPure; k++ {
		// Operands every accepted opcode executes cleanly on: an aligned
		// in-range address for the memory ops, a non-zero divisor.
		op := mach.Op{Kind: k, Type: ir.I32,
			A: mach.ImmArg(ir.GlobalBase), B: mach.ImmArg(8), C: mach.ImmArg(1)}
		known := mach.ValueOf(k) != nil
		if known && notValueOps[k] {
			t.Errorf("%s is both in the value table and on the structural list", mach.OpName(k))
		}
		known = known || notValueOps[k]

		kind, fn := planKind(k)
		err := m.execOp(&planOp{op: &op, kind: kind, fn: fn, lat: 1})
		if err != nil && !badOp(err) {
			t.Fatalf("%s: execOp: %v", mach.OpName(k), err)
		}
		if accepted := err == nil; accepted != known {
			t.Errorf("%s: execOp accepts it = %v, has semantics = %v", mach.OpName(k), accepted, known)
		}

		err = nil
		b := regionBuilder{p: c.plan, r: new(region)}
		if f := b.compileExec(&planOp{op: &op, kind: kind, fn: fn, lat: 1, unitName: "test"}); f != nil {
			err = f(m, c)
		}
		if err != nil && !badOp(err) {
			t.Fatalf("%s: native closure: %v", mach.OpName(k), err)
		}
		if accepted := err == nil; accepted != known {
			t.Errorf("%s: the native translator accepts it = %v, has semantics = %v", mach.OpName(k), accepted, known)
		}
	}
}
