package vliw

import (
	"errors"
	"slices"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// notValueOps are the opcodes the ALU/F/memory datapath executes that are
// not a function of their operands alone, so they have no entry in the
// shared value table (mach.ValueOf) and keep a case of their own in translate
// — with the micro-op kind that runs each in a region (no record at all for a
// Nop; the guarded kind for the memory operations, which this test does not
// certify).
var notValueOps = map[ir.OpKind][]uint8{
	ir.Nop: {}, ir.ConstI: {uConst}, ir.ConstF: {uConst},
	ir.Mov: {uMov}, mach.OpMovSF: {uMov}, ir.Select: {uSelect},
	ir.Load: {uLoad}, ir.LoadSpec: {uLoad}, ir.Store: {uStore},
}

// inlineValueOps are the opcodes of the value table with a case of their own
// in runRegion's switch; the rest of the table runs as uValue, and a Div or
// Rem behind its guard as uDiv.
var inlineValueOps = map[ir.OpKind]uint8{
	ir.FAdd: uFAdd, ir.FSub: uFSub, ir.FMul: uFMul, ir.Add: uAdd, ir.Sub: uSub,
	ir.CmpLT: uCmpLT, ir.CmpGE: uCmpGE, ir.CmpEQ: uCmpEQ, ir.CmpNE: uCmpNE, ir.Shl: uShl,
	ir.Div: uDiv, ir.Rem: uDiv,
}

// TestEveryExecutedOpcodeHasSemantics: an opcode either has value semantics
// in the shared table or is on the explicit structural list above, and the
// one translation accepts exactly that set — its record runs clean through
// exec, as the interpreter runs it, and a region lays it out as the micro-op
// kind named here. An opcode added to the IR without semantics fails here
// instead of reaching TrapBadOp at run time; so does a record kind added to the
// enumeration without a case in exec.
func TestEveryExecutedOpcodeHasSemantics(t *testing.T) {
	img := build(t, `func main() int { return 0 }`, mach.Trace7())
	m := New(img)
	c := m.cur
	badOp := func(err error) bool {
		var f *Fault
		return errors.As(err, &f) && f.Code == TrapBadOp
	}
	for k := ir.OpKind(0); k < 128; k++ { // every IR and machine opcode, and the unassigned ones between and above
		// Operands every accepted opcode executes cleanly on: an aligned
		// in-range address for the memory ops, a non-zero divisor.
		op := mach.Op{Kind: k, Type: ir.I32,
			A: mach.ImmArg(ir.GlobalBase), B: mach.ImmArg(8), C: mach.ImmArg(1)}
		known := mach.ValueOf(k) != nil
		want, structural := notValueOps[k]
		if known && structural {
			t.Errorf("%s is both in the value table and on the structural list", mach.OpName(k))
		}
		if known {
			want = []uint8{uValue}
			if u, ok := inlineValueOps[k]; ok {
				want[0] = u
			}
		}
		known = known || structural

		s := translate(0, &mach.SlotOp{Unit: mach.Unit{Kind: mach.UIALU}, Op: op}, &img.Cfg)
		s.unitName = "test"
		err := m.exec(c, &s, &s.uop)
		if err != nil && !badOp(err) {
			t.Fatalf("%s: exec: %v", mach.OpName(k), err)
		}
		if accepted := err == nil; accepted != known {
			t.Errorf("%s: exec accepts it = %v, has semantics = %v", mach.OpName(k), accepted, known)
		}

		r := new(region)
		b := regionBuilder{p: c.plan, r: r}
		b.issue(&s)
		var got []uint8
		for _, u := range r.uops {
			got = append(got, u.kind)
		}
		if !known {
			want = []uint8{uBadOp}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: the native translator emits micro-op kinds %v, want %v", mach.OpName(k), got, want)
		}
		if len(r.info) != len(r.uops) {
			t.Errorf("%s: %d records, %d fault infos", mach.OpName(k), len(r.uops), len(r.info))
		}
	}
	// Every kind a plan or a region's stream can hold has its case in exec, but
	// for the ones runRegion alone runs. The operands are the registers of an
	// idle machine and the zero cell: nothing to trap on but the kind itself.
	regionOnly := map[uint8]bool{uBeat: true, uLand: true}
	for _, u := range fastShapes {
		regionOnly[u] = u != uValue
	}
	s := translate(0, &mach.SlotOp{Unit: mach.Unit{Kind: mach.UBR}, Op: mach.Op{Kind: mach.OpSyscall, Type: ir.I32, Sym: "print_i"}}, &img.Cfg)
	s.fn = mach.ValueOf(ir.Add).Fn
	for k := uint8(0); k < numKinds; k++ {
		u := uop{kind: k, d: noDest, a: zeroCell, b: zeroCell, k1: ir.GlobalBase}
		if err := m.exec(c, &s, &u); !regionOnly[k] && k != uBadOp && badOp(err) {
			t.Errorf("micro-op kind %d has no case in exec: %v", k, err)
		}
	}
}
