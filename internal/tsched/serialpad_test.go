package tsched

import (
	"reflect"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/profile"
)

const fibSrc = `
func fib(n int) int {
	if (n < 2) { return n }
	return fib(n - 1) + fib(n - 2)
}
func main() int { return fib(10) }
`

// TestSerialReturnKeepsWAROrder: fib's return block starts at instruction 0
// (nothing is in flight on the edges into it), and there placeSerial once
// forgot the read of sp by "load lr ← [sp+k]" — a read at index 0 compared
// against the map's zero value — and packed "add sp ← sp+frame" into the
// same instruction, where the early-beat add lands before the late-beat load
// reads its base.
func TestSerialReturnKeepsWAROrder(t *testing.T) {
	prog, vf := lower(t, fibSrc, "fib")
	sf, err := Assemble(mach.Trace28(), vf, profile.Static(prog)["fib"], map[string]int64{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sf.Blocks {
		load, add, ret := -1, -1, false
		for i, in := range b.Instrs {
			for _, s := range in.Slots {
				switch {
				case s.Op.Kind == ir.Load && s.Op.Dst == vf.LR:
					load = i
				case s.Op.Kind == ir.Add && s.Op.Dst == vf.SP:
					add = i
				case s.Op.Kind == mach.OpJmpR:
					ret = true
				}
			}
		}
		if !ret {
			continue
		}
		if !b.Serial || load != 0 {
			t.Fatalf("return block: serial=%v, link reload at instruction %d; the test wants an unpadded block reloading at 0", b.Serial, load)
		}
		if add <= load {
			t.Fatalf("sp is popped in instruction %d, before or with the link reload reading it in %d", add, load)
		}
		return
	}
	t.Fatal("fib has no return block")
}

// TestSerialPadCoversTheFlight stitches blocks by hand and holds each
// serialized block's pad to the flight its entering edges carry: a split
// and a final jump of one trace, a trace entered with a write still in
// flight, a fallthrough, and the prologue, which calls enter with only their
// link write airborne.
func TestSerialPadCoversTheFlight(t *testing.T) {
	const v, lr = VReg(1), VReg(2)
	slot := func(kind ir.OpKind, beat uint8, dst VReg, target int) SSlot {
		u := mach.Unit{Kind: mach.UIALU}
		if kind == mach.OpJmp || kind == mach.OpBrT || kind == mach.OpCall || kind == mach.OpHalt {
			u = mach.Unit{Kind: mach.UBR}
		}
		return SSlot{Unit: u, Beat: beat, Op: VOp{Kind: kind, Type: ir.I32, Dst: dst}, TargetBlock: target}
	}
	instr := func(ss ...SSlot) SInstr { return SInstr{Slots: ss} }
	load := func(beat uint8) SSlot { return slot(ir.Load, beat, v, 0) } // 7 beats on every TRACE
	halt := instr(slot(mach.OpHalt, 0, VNone, 0))
	sf := &SFunc{Entry: 0, Blocks: []*SBlock{
		// prologue → trace 1
		{Serial: true, Instrs: []SInstr{instr(slot(mach.OpJmp, 0, VNone, 1))}},
		// trace 1: a late-beat load lands at +8; the split leaves with it
		// 6 beats out, the final jump 4 beats out into trace 4
		{Instrs: []SInstr{
			instr(load(1), slot(mach.OpBrT, 0, VNone, 3)),
			instr(slot(mach.OpJmp, 0, VNone, 4)),
		}},
		// call block, entered from trace 4 with the load 2 beats out
		{Serial: true, Instrs: []SInstr{instr(slot(mach.OpCall, 0, lr, 0)), halt}},
		// split target: 6 beats → 3 instructions
		{Serial: true, Instrs: []SInstr{halt}},
		// trace 4: carries trace 1's load on
		{Instrs: []SInstr{instr(slot(mach.OpJmp, 0, VNone, 2))}},
		// trace 5 falls off its end with an early-beat load 5 beats out
		{Instrs: []SInstr{instr(load(0))}},
		{Serial: true, Instrs: []SInstr{halt}},
	}}
	instrs := make([][]SInstr, len(sf.Blocks))
	for i, b := range sf.Blocks {
		b.ID = i
		instrs[i] = b.Instrs
	}
	cfg := mach.Trace28()
	st := &stitcher{cfg: cfg, sf: sf}
	st.padSerial()
	for id, want := range map[int]int{0: 0, 2: 1, 3: 3, 6: 3} {
		if pad := len(sf.Blocks[id].Instrs) - len(instrs[id]); pad != want || !reflect.DeepEqual(sf.Blocks[id].Instrs[pad:], instrs[id]) {
			t.Errorf("block %d: padded by %d instructions, want %d in front of its own", id, pad, want)
		}
	}
	if sf.PadInstrs != 7 {
		t.Errorf("PadInstrs = %d, want 7", sf.PadInstrs)
	}
}
