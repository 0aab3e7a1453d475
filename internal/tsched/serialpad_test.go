package tsched

import (
	"reflect"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

const fibSrc = `
func fib(n int) int {
	if (n < 2) { return n }
	return fib(n - 1) + fib(n - 2)
}
func main() int { return fib(10) }
`

// compStitcher returns a stitcher of vf with nothing stitched yet, for
// calling compBlock directly.
func compStitcher(vf *VFunc, cfg mach.Config) *stitcher {
	sf := &SFunc{VF: vf, home: make(homes, vf.NumRegs())}
	for r, p := range vf.precolor {
		sf.home.set(r, p.Board)
	}
	return &stitcher{cfg: cfg, vf: vf, sf: sf, lv: vf.ComputeLiveness(),
		sched: &scheduler{cfg: cfg, vf: vf, home: &sf.home, gen: 1}}
}

// issueBeat returns the beat a slot of instruction i issues at.
func issueBeat(i int, s SSlot) int { return 2*i + int(s.Beat) }

// TestSerialReturnKeepsWAROrder: the serial packer that once placed
// compensation code forgot a read at instruction 0 — compared against the
// map's zero value — and packed "add sp ← sp+frame" into the instruction of
// the "load lr ← [sp+k]" reading sp, where the early-beat add lands before
// the late-beat load reads its base. A compensation block is scheduled as a
// trace now, and its graph orders the write after the read.
func TestSerialReturnKeepsWAROrder(t *testing.T) {
	_, vf := lower(t, fibSrc, "fib")
	st := compStitcher(vf, mach.Trace28())
	cb, _, err := st.compBlock([]VOp{
		{Kind: ir.Load, Type: ir.I32, Dst: vf.LR, A: VRegArg(vf.SP), B: VImmArg(16)},
		{Kind: ir.Add, Type: ir.I32, Dst: vf.SP, A: VRegArg(vf.SP), B: VImmArg(24)},
	})
	if err != nil {
		t.Fatal(err)
	}
	load, add := -1, -1
	for i, in := range cb.Instrs {
		for _, s := range in.Slots {
			switch s.Op.Kind {
			case ir.Load:
				load = issueBeat(i, s)
			case ir.Add:
				add = issueBeat(i, s)
			}
		}
	}
	if load < 0 || add < load {
		t.Fatalf("sp is popped at beat %d, before the link reload reads it at beat %d", add, load)
	}
}

// compRegs returns n fresh I registers of vf homed on board 0.
func compRegs(st *stitcher, n int) []VReg {
	rs := make([]VReg, n)
	for i := range rs {
		rs[i] = st.vf.NewReg(ClassI, ir.I32)
		st.sf.home.set(rs[i], 0)
	}
	return rs
}

// TestCompBlockHonoursDivideOccupancy: an iterative divide holds its I ALU
// for its whole latency, and compensation code is placed by the scheduler
// that reserves the hold — the serial packer did not, and put other ops on
// the held ALU. Two divides never hold both ALUs of one pair at once, so a
// pair always has an ALU for the copies that move work elsewhere.
func TestCompBlockHonoursDivideOccupancy(t *testing.T) {
	_, vf := lower(t, fibSrc, "fib")
	cfg := mach.Trace28()
	st := compStitcher(vf, cfg)
	r := compRegs(st, 12)
	ops := []VOp{
		{Kind: ir.Div, Type: ir.I32, Dst: r[0], A: VRegArg(r[1]), B: VRegArg(r[2])},
		{Kind: ir.Rem, Type: ir.I32, Dst: r[3], A: VRegArg(r[1]), B: VRegArg(r[2])},
	}
	for i := 4; i < len(r); i++ {
		ops = append(ops, VOp{Kind: ir.Add, Type: ir.I32, Dst: r[i], A: VRegArg(r[1]), B: VImmArg(int32(i))})
	}
	cb, _, err := st.compBlock(ops)
	if err != nil {
		t.Fatal(err)
	}
	type hold struct {
		unit     mach.Unit
		from, to int // beats [from, to)
	}
	var holds []hold
	for i, in := range cb.Instrs {
		for _, s := range in.Slots {
			if s.Op.Kind == ir.Div || s.Op.Kind == ir.Rem {
				b := issueBeat(i, s)
				holds = append(holds, hold{s.Unit, b, b + opLatency(&cfg, &s.Op)})
			}
		}
	}
	if len(holds) != 2 {
		t.Fatalf("%d divides in the block, want 2", len(holds))
	}
	if h, g := holds[0], holds[1]; h.unit.Pair == g.unit.Pair && h.from < g.to && g.from < h.to {
		t.Errorf("divides on %s [%d,%d) and %s [%d,%d) hold both ALUs of pair %d at once",
			h.unit, h.from, h.to, g.unit, g.from, g.to, h.unit.Pair)
	}
	for i, in := range cb.Instrs {
		for _, s := range in.Slots {
			b := issueBeat(i, s)
			for _, h := range holds {
				if s.Unit == h.unit && b > h.from && b < h.to {
					t.Errorf("%s issues on %s at beat %d, inside the divide's hold [%d,%d)",
						mach.OpName(s.Op.Kind), s.Unit, b, h.from, h.to)
				}
			}
		}
	}
}

// TestCompBlockReadsNoSameWordWrite: no op of a compensation block reads a
// value in the word that writes it. The allocator's liveness is per word: a
// late-beat read of an early-beat write in one word counts the value as
// live into that word, and a value a compensation block computes would then
// be live from its function's entry.
func TestCompBlockReadsNoSameWordWrite(t *testing.T) {
	_, vf := lower(t, fibSrc, "fib")
	st := compStitcher(vf, mach.Trace28())
	r := compRegs(st, 5)
	cb, _, err := st.compBlock([]VOp{
		{Kind: ir.Add, Type: ir.I32, Dst: r[1], A: VRegArg(r[0]), B: VImmArg(1)},
		{Kind: ir.Add, Type: ir.I32, Dst: r[2], A: VRegArg(r[1]), B: VImmArg(2)},
		{Kind: ir.Mov, Type: ir.I32, Dst: r[3], A: VRegArg(r[2])},
		{Kind: ir.Sub, Type: ir.I32, Dst: r[4], A: VRegArg(r[3]), B: VRegArg(r[1])},
	})
	if err != nil {
		t.Fatal(err)
	}
	wrote := map[VReg]int{} // register -> instruction writing it
	for i, in := range cb.Instrs {
		for _, s := range in.Slots {
			if s.Op.Dst != VNone {
				wrote[s.Op.Dst] = i
			}
		}
	}
	for i, in := range cb.Instrs {
		for _, s := range in.Slots {
			for _, u := range s.Op.Uses() {
				if w, ok := wrote[u]; ok && w >= i {
					t.Errorf("%s in instruction %d reads v%d, written in instruction %d", mach.OpName(s.Op.Kind), i, u, w)
				}
			}
		}
	}
}

// TestSerialPadCoversTheFlight stitches blocks by hand and holds each
// serialized block's pad to the flight its entering edges carry: a split
// and a final jump of one trace, a trace entered with a write still in
// flight, a fallthrough, and the entry, which no edge of the function
// enters (a call's link write lands before the callee's first word).
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
		// entry → trace 1
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
