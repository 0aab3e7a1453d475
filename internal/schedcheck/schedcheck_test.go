package schedcheck

import (
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Synthetic-image tests: each check is exercised by a hand-built decoded
// image whose single defect is the one under test, so the diagnosis (and
// its word/beat/unit attribution) is deterministic.

func ireg(idx uint8) mach.PReg { return mach.PReg{Bank: mach.BankI, Board: 0, Idx: idx} }
func freg(idx uint8) mach.PReg { return mach.PReg{Bank: mach.BankF, Board: 0, Idx: idx} }

func regArg(r mach.PReg) mach.Arg { return mach.Arg{Reg: r} }
func immArg(v int32) mach.Arg     { return mach.Arg{IsImm: true, Imm: v} }

func ialuSlot(idx uint8, beat uint8, op mach.Op) mach.SlotOp {
	return mach.SlotOp{Unit: mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: idx}, Beat: beat, Op: op}
}

func brSlot(op mach.Op) mach.SlotOp {
	return mach.SlotOp{Unit: mach.Unit{Kind: mach.UBR, Pair: 0}, Beat: 0, Op: op}
}

func haltInstr() mach.Instr {
	return mach.Instr{Slots: []mach.SlotOp{brSlot(mach.Op{Kind: mach.OpHalt})}}
}

// image wraps instructions as a one-function ("main") linked image.
func image(cfg mach.Config, instrs ...mach.Instr) *isa.Image {
	return &isa.Image{
		Cfg:      cfg,
		Instrs:   instrs,
		Entry:    0,
		FuncBase: map[string]int{"main": 0},
		FuncLen:  map[string]int{"main": len(instrs)},
	}
}

// defRVI defines the halt convention register so clean-image tests are
// clean: ConstI 0 -> i0.3 with latency 1.
func defRVI() mach.Instr {
	return mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: mach.RegRVI, A: immArg(0)}),
	}}
}

func counts(t *testing.T, rep *Report, check string) int {
	t.Helper()
	return rep.Counts[check]
}

func wantError(t *testing.T, rep *Report, check string) Finding {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Check == check {
			if f.Sev != Error {
				t.Fatalf("%s reported as %s, want error", check, f.Sev)
			}
			return f
		}
	}
	t.Fatalf("expected a %s finding; got %v", check, rep.Findings)
	return Finding{}
}

func TestCleanTinyImage(t *testing.T) {
	img := image(mach.Trace7(), defRVI(), haltInstr())
	rep := Check(img, Options{})
	if len(rep.Findings) != 0 {
		t.Fatalf("clean image produced findings: %v", rep.Findings)
	}
	if rep.Words != 2 || rep.Reachable != 2 {
		t.Fatalf("words=%d reachable=%d, want 2/2", rep.Words, rep.Reachable)
	}
}

func TestStaleRead(t *testing.T) {
	// Load i0.5 (latency 7) then read it in the very next word: the read
	// issues 5 beats before the write retires.
	load := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(-8)}),
	}}
	use := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: mach.RegRVI, A: regArg(ireg(5)), B: immArg(1)}),
	}}
	img := image(mach.Trace7(), load, use, haltInstr())
	rep := Check(img, Options{})
	f := wantError(t, rep, CheckStaleRead)
	if f.Word != 1 || f.Beat != 0 || f.Unit != "ialu0.0" {
		t.Fatalf("stale-read attribution = word=%d beat=%d unit=%s, want word=1 beat=0 unit=ialu0.0", f.Word, f.Beat, f.Unit)
	}
	if !strings.Contains(f.Msg, "i0.5") {
		t.Fatalf("message does not name the register: %s", f.Msg)
	}
}

func TestStaleReadHealsAfterLatency(t *testing.T) {
	// The same read four words later: 8 beats have elapsed, the load (7
	// beats) has retired, and the schedule is legal.
	load := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(-8)}),
	}}
	use := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: mach.RegRVI, A: regArg(ireg(5)), B: immArg(1)}),
	}}
	img := image(mach.Trace7(), load, mach.Instr{}, mach.Instr{}, mach.Instr{}, use, haltInstr())
	rep := Check(img, Options{})
	if n := counts(t, rep, CheckStaleRead); n != 0 {
		t.Fatalf("legal latency spacing flagged: %v", rep.Findings)
	}
	// One word earlier the write is still one beat in flight.
	img2 := image(mach.Trace7(), load, mach.Instr{}, mach.Instr{}, use, haltInstr())
	rep2 := Check(img2, Options{})
	if n := counts(t, rep2, CheckStaleRead); n == 0 {
		t.Fatalf("read one beat inside the shadow not flagged")
	}
}

func TestWriteRaceAndWAWOverlap(t *testing.T) {
	// Two same-latency writes to one register in one beat: race.
	race := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(1)}),
		ialuSlot(1, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(2)}),
	}}
	img := image(mach.Trace7(), defRVI(), race, haltInstr())
	f := wantError(t, Check(img, Options{}), CheckWriteRace)
	if f.Word != 1 || f.Unit == "" {
		t.Fatalf("write-race attribution: %+v", f)
	}

	// A multiply (4 beats) already in flight when an add (1 beat) writes
	// the same register: overlap, convertible to a race by any stall.
	waw := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Mul, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(3)}),
		ialuSlot(1, 1, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(4)}),
	}}
	img2 := image(mach.Trace7(), defRVI(), waw, haltInstr())
	wantError(t, Check(img2, Options{}), CheckWAWOverlap)
}

func TestUndefRead(t *testing.T) {
	use := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: mach.RegRVI, A: regArg(ireg(9)), B: immArg(1)}),
	}}
	img := image(mach.Trace7(), use, haltInstr())
	f := wantError(t, Check(img, Options{}), CheckUndefRead)
	if !strings.Contains(f.Msg, "i0.9") {
		t.Fatalf("message does not name the register: %s", f.Msg)
	}
}

func TestUndefReadJoinIsPathSensitive(t *testing.T) {
	// i0.5 defined on only one side of a diamond and read after the join:
	// must-defined intersects away the definition.
	cond := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.CmpEQ, Type: ir.I32, Dst: mach.PReg{Bank: mach.BankB, Board: 0, Idx: 0},
			A: regArg(mach.RegSP), B: immArg(0)}),
	}}
	branch := mach.Instr{Slots: []mach.SlotOp{
		brSlot(mach.Op{Kind: mach.OpBrT, A: regArg(mach.PReg{Bank: mach.BankB, Board: 0, Idx: 0}), Target: 4}),
	}}
	def := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: ireg(5), A: immArg(7)}),
	}}
	// word 3 falls through to the join at word 4; the branch skips the def.
	join := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: mach.RegRVI, A: regArg(ireg(5)), B: immArg(0)}),
	}}
	img := image(mach.Trace7(), cond, branch, def, mach.Instr{}, join, haltInstr())
	wantError(t, Check(img, Options{}), CheckUndefRead)

	// With the definition hoisted above the branch, both paths define it.
	img2 := image(mach.Trace7(), cond, def, branch, mach.Instr{}, join, haltInstr())
	img2.Instrs[2].Slots[0].Op.Target = 4
	rep := Check(img2, Options{})
	if n := counts(t, rep, CheckUndefRead); n != 0 {
		t.Fatalf("dominating definition still flagged: %v", rep.Findings)
	}
}

func TestUnitConflict(t *testing.T) {
	in := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: ireg(5), A: immArg(1)}),
		ialuSlot(0, 0, mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: ireg(6), A: immArg(2)}),
	}}
	img := image(mach.Trace7(), defRVI(), in, haltInstr())
	f := wantError(t, Check(img, Options{}), CheckUnitConflict)
	if f.Unit != "ialu0.0" || f.Word != 1 {
		t.Fatalf("unit-conflict attribution: %+v", f)
	}
}

func TestReadPortOverflow(t *testing.T) {
	// Both I ALUs plus both F units read two registers each in the early
	// beat: eight crossbar reads against four ports.
	add := func(idx uint8, dst uint8) mach.SlotOp {
		return ialuSlot(idx, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(dst),
			A: regArg(mach.RegSP), B: regArg(mach.RegSP)})
	}
	fslot := func(k mach.UnitKind, kind ir.OpKind, dst uint8) mach.SlotOp {
		return mach.SlotOp{Unit: mach.Unit{Kind: k, Pair: 0}, Beat: 0, Op: mach.Op{
			Kind: kind, Type: ir.F64, Dst: freg(dst), A: regArg(freg(2)), B: regArg(freg(2))}}
	}
	in := mach.Instr{Slots: []mach.SlotOp{
		add(0, 5), add(1, 6),
		fslot(mach.UFA, ir.FAdd, 4), fslot(mach.UFM, ir.FMul, 5),
	}}
	img := image(mach.Trace7(), defRVI(), in, haltInstr())
	f := wantError(t, Check(img, Options{}), CheckReadPorts)
	if f.Word != 1 || f.Beat != 0 {
		t.Fatalf("read-ports attribution: %+v", f)
	}
}

func TestWritePortOverflow(t *testing.T) {
	// Eight adds across the four pairs of a Trace 28, all retiring into
	// board 0 one beat later: eight write ports against four.
	var in mach.Instr
	for p := uint8(0); p < 4; p++ {
		for idx := uint8(0); idx < 2; idx++ {
			in.Slots = append(in.Slots, mach.SlotOp{
				Unit: mach.Unit{Kind: mach.UIALU, Pair: p, Idx: idx}, Beat: 0,
				Op: mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: ireg(10 + p*2 + idx), A: immArg(1)},
			})
		}
	}
	img := image(mach.Trace28(), defRVI(), in, haltInstr())
	wantError(t, Check(img, Options{}), CheckWritePorts)
}

func TestMemPerBoardAndBuses(t *testing.T) {
	// Two loads initiated on one I board in one beat.
	in := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(-8)}),
		ialuSlot(1, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(6), A: regArg(mach.RegSP), B: immArg(-16)}),
	}}
	img := image(mach.Trace7(), defRVI(), in, haltInstr())
	wantError(t, Check(img, Options{}), CheckMemRefs)
}

func TestBadBranchAndFallOff(t *testing.T) {
	jmp := mach.Instr{Slots: []mach.SlotOp{brSlot(mach.Op{Kind: mach.OpJmp, Target: 99})}}
	img := image(mach.Trace7(), defRVI(), jmp)
	rep := Check(img, Options{})
	f := wantError(t, rep, CheckBadBranch)
	if f.Word != 1 {
		t.Fatalf("bad-branch attribution: %+v", f)
	}

	noHalt := image(mach.Trace7(), defRVI(), mach.Instr{})
	wantError(t, Check(noHalt, Options{}), CheckFallOff)
}

func TestUnreachableWarning(t *testing.T) {
	jmp := mach.Instr{Slots: []mach.SlotOp{brSlot(mach.Op{Kind: mach.OpJmp, Target: 2})}}
	dead := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: ireg(5), A: immArg(1)}),
	}}
	img := image(mach.Trace7(), jmp, dead, defRVI(), haltInstr())
	rep := Check(img, Options{})
	if len(rep.Errors()) != 0 {
		t.Fatalf("unexpected errors: %v", rep.Errors())
	}
	ws := rep.Warnings()
	if len(ws) != 1 || ws[0].Check != CheckUnreachable || ws[0].Word != 1 {
		t.Fatalf("want one unreachable warning at word 1, got %v", ws)
	}
}

func TestFUOccupancyWarning(t *testing.T) {
	cf := func(dst uint8, v float64) mach.Instr {
		return mach.Instr{Slots: []mach.SlotOp{{
			Unit: mach.Unit{Kind: mach.UFA, Pair: 0}, Beat: 0,
			Op: mach.Op{Kind: ir.ConstF, Type: ir.F64, Dst: freg(dst), FImm: v},
		}}}
	}
	fdiv := mach.Instr{Slots: []mach.SlotOp{{
		Unit: mach.Unit{Kind: mach.UFM, Pair: 0}, Beat: 0,
		Op: mach.Op{Kind: ir.FDiv, Type: ir.F64, Dst: freg(4), A: regArg(freg(2)), B: regArg(freg(3))},
	}}}
	fmul := mach.Instr{Slots: []mach.SlotOp{{
		Unit: mach.Unit{Kind: mach.UFM, Pair: 0}, Beat: 0,
		Op: mach.Op{Kind: ir.FMul, Type: ir.F64, Dst: freg(5), A: regArg(freg(2)), B: regArg(freg(3))},
	}}}
	img := image(mach.Trace7(), cf(2, 1), cf(3, 2), mach.Instr{}, fdiv, fmul, defRVI(), haltInstr())
	rep := Check(img, Options{})
	if len(rep.Errors()) != 0 {
		t.Fatalf("unexpected errors: %v", rep.Errors())
	}
	found := false
	for _, w := range rep.Warnings() {
		if w.Check == CheckFUOccupancy && w.Word == 4 && w.Unit == "fm0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want fu-occupancy warning at word 4 on fm0, got %v", rep.Warnings())
	}
}

func TestShadowPropagatesThroughBranch(t *testing.T) {
	// A branch jumps into a word that reads a register whose write is
	// still in flight along the branch path — the hazard is only visible
	// across the CFG edge.
	load := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(5), A: regArg(mach.RegSP), B: immArg(-8)}),
	}}
	jmp := mach.Instr{Slots: []mach.SlotOp{brSlot(mach.Op{Kind: mach.OpJmp, Target: 3})}}
	use := mach.Instr{Slots: []mach.SlotOp{
		ialuSlot(0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: mach.RegRVI, A: regArg(ireg(5)), B: immArg(1)}),
	}}
	img := image(mach.Trace7(), load, jmp, mach.Instr{}, use, haltInstr())
	f := wantError(t, Check(img, Options{}), CheckStaleRead)
	if f.Word != 3 {
		t.Fatalf("shadow read attributed to word %d, want 3", f.Word)
	}
}

// TestWriteLatencyAgreesWithTheMachine: the verifier's own latency model and
// mach.Config.Latency — the one the scheduler and simulator share — are two
// implementations kept apart on purpose; this is where they are compared.
func TestWriteLatencyAgreesWithTheMachine(t *testing.T) {
	cfg := mach.Trace28()
	cfg.LatIALU, cfg.LatIMul, cfg.LatIDiv = 2, 11, 41
	cfg.LatFAdd, cfg.LatFMul, cfg.LatFDiv, cfg.LatLoad, cfg.LatMove = 13, 17, 43, 19, 3
	for k := ir.OpKind(0); k <= mach.OpHalt; k++ {
		if k == ir.Store {
			continue // writes no register; only the scheduler asks
		}
		for _, typ := range []ir.Type{ir.I32, ir.F64} {
			op := mach.Op{Kind: k, Type: typ}
			if got, want := writeLatency(cfg, &op), cfg.Latency(k, typ); got != want {
				t.Errorf("%s.%s: schedcheck says %d beats, mach.Config.Latency says %d", mach.OpName(k), typ, got, want)
			}
		}
	}
}

// TestSerialPadOneBeatShort holds the verifier to the stitcher's entry
// padding. Code shaped like a stitched call: a trace word issues a load
// (7 beats) and jumps to a serialized call block, whose first op moves the
// loaded value into an argument register. Three pad words are exact — the
// load lands at beat 5 of the block, inside the last pad word — and verify
// clean; with two, the write lands one beat past the pad, in the late beat
// of the argument move, and the move reads the stale value. Without the
// move, a write still in flight when the call issues crosses into the
// callee, which reads it in its first word.
func TestSerialPadOneBeatShort(t *testing.T) {
	val, arg := ireg(20), ireg(uint8(mach.ArgIBase))
	callImage := func(pad int, argMove bool) *isa.Image {
		instrs := []mach.Instr{{Slots: []mach.SlotOp{
			ialuSlot(0, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: val, A: regArg(mach.RegSP), B: immArg(-8)}),
			brSlot(mach.Op{Kind: mach.OpJmp, Target: 1}),
		}}}
		instrs = append(instrs, make([]mach.Instr, pad)...)
		if argMove {
			instrs = append(instrs, mach.Instr{Slots: []mach.SlotOp{
				ialuSlot(0, 0, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: arg, A: regArg(val)}),
			}})
		}
		callee := len(instrs) + 3
		instrs = append(instrs,
			mach.Instr{Slots: []mach.SlotOp{brSlot(mach.Op{Kind: mach.OpCall, Dst: mach.RegLR, Target: callee})}},
			defRVI(), haltInstr(),
			mach.Instr{Slots: []mach.SlotOp{
				ialuSlot(0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(21), A: regArg(val), B: immArg(1)}),
			}},
			mach.Instr{Slots: []mach.SlotOp{brSlot(mach.Op{Kind: mach.OpJmpR, A: regArg(mach.RegLR)})}},
		)
		img := image(mach.Trace7(), instrs...)
		img.FuncLen["main"] = callee
		img.FuncBase["f"], img.FuncLen["f"] = callee, 2
		return img
	}
	for _, argMove := range []bool{true, false} {
		if rep := Check(callImage(3, argMove), Options{}); len(rep.Errors()) != 0 {
			t.Fatalf("exact pad (argument move %v): %v", argMove, rep.Errors())
		}
	}
	f := wantError(t, Check(callImage(2, true), Options{}), CheckStaleRead)
	if f.Word != 3 || f.Beat != 0 {
		t.Fatalf("one beat short: stale read attributed to word %d beat %d, want the argument move (word 3, beat 0)", f.Word, f.Beat)
	}
	img := callImage(1, false)
	f = wantError(t, Check(img, Options{}), CheckStaleRead)
	if f.Word != img.FuncBase["f"] {
		t.Fatalf("a write across the call: stale read attributed to word %d, want the callee's first word %d", f.Word, img.FuncBase["f"])
	}
}
