package isa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

func oneSlot(u mach.Unit, beat uint8, op mach.Op) *mach.Instr {
	return &mach.Instr{Slots: []mach.SlotOp{{Unit: u, Beat: beat, Op: op}}}
}

func roundTrip(t *testing.T, in *mach.Instr, cfg mach.Config) *mach.Instr {
	t.Helper()
	words, err := Encode(in, cfg)
	if err != nil {
		t.Fatalf("encode %s: %v", in.String(), err)
	}
	dec, err := Decode(words, cfg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	re, err := Encode(dec, cfg)
	if err != nil {
		t.Fatalf("re-encode %s: %v", dec.String(), err)
	}
	for i := range words {
		if words[i] != re[i] {
			t.Fatalf("word %d mismatch: %08x vs %08x\nin:  %s\nout: %s",
				i, words[i], re[i], in.String(), dec.String())
		}
	}
	return dec
}

func TestEncodeALUOps(t *testing.T) {
	cfg := mach.Trace28()
	r := func(b mach.Bank, board, idx uint8) mach.PReg { return mach.PReg{Bank: b, Board: board, Idx: idx} }
	cases := []struct {
		name string
		unit mach.Unit
		beat uint8
		op   mach.Op
	}{
		{"add rr", mach.Unit{Kind: mach.UIALU, Pair: 1, Idx: 0}, 0,
			mach.Op{Kind: ir.Add, Type: ir.I32, Dst: r(mach.BankI, 1, 5),
				A: mach.RegArg(r(mach.BankI, 1, 6)), B: mach.RegArg(r(mach.BankI, 1, 7))}},
		{"add imm6", mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: 1}, 1,
			mach.Op{Kind: ir.Add, Type: ir.I32, Dst: r(mach.BankI, 2, 9),
				A: mach.RegArg(r(mach.BankI, 0, 1)), B: mach.ImmArg(-32)}},
		{"add imm32 late", mach.Unit{Kind: mach.UIALU, Pair: 3, Idx: 0}, 1,
			mach.Op{Kind: ir.Add, Type: ir.I32, Dst: r(mach.BankI, 3, 63),
				A: mach.RegArg(r(mach.BankI, 3, 0)), B: mach.ImmArg(123456)}},
		{"cmp to branch bank", mach.Unit{Kind: mach.UIALU, Pair: 2, Idx: 1}, 0,
			mach.Op{Kind: ir.CmpLT, Type: ir.I32, Dst: r(mach.BankB, 2, 6),
				A: mach.RegArg(r(mach.BankI, 2, 10)), B: mach.RegArg(r(mach.BankI, 2, 11))}},
		{"load f64", mach.Unit{Kind: mach.UIALU, Pair: 1, Idx: 0}, 0,
			mach.Op{Kind: ir.Load, Type: ir.F64, Dst: r(mach.BankF, 1, 12),
				A: mach.RegArg(r(mach.BankI, 1, 3)), B: mach.ImmArg(16)}},
		{"speculative load", mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: 0}, 0,
			mach.Op{Kind: ir.LoadSpec, Type: ir.I32, Dst: r(mach.BankI, 2, 30), Spec: true,
				A: mach.RegArg(r(mach.BankI, 0, 3)), B: mach.ImmArg(-8)}},
		{"store via store file", mach.Unit{Kind: mach.UIALU, Pair: 2, Idx: 1}, 1,
			mach.Op{Kind: ir.Store, Type: ir.F64,
				A: mach.RegArg(r(mach.BankI, 2, 3)), B: mach.ImmArg(24),
				C: mach.RegArg(r(mach.BankSF, 2, 7))}},
		{"movsf", mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: 1}, 0,
			mach.Op{Kind: mach.OpMovSF, Type: ir.I32, Dst: r(mach.BankSF, 0, 3),
				A: mach.RegArg(r(mach.BankI, 0, 22))}},
		{"fadd", mach.Unit{Kind: mach.UFA, Pair: 2}, 0,
			mach.Op{Kind: ir.FAdd, Type: ir.F64, Dst: r(mach.BankF, 2, 8),
				A: mach.RegArg(r(mach.BankF, 2, 1)), B: mach.RegArg(r(mach.BankF, 2, 2))}},
		{"fmul", mach.Unit{Kind: mach.UFM, Pair: 3}, 0,
			mach.Op{Kind: ir.FMul, Type: ir.F64, Dst: r(mach.BankF, 3, 30),
				A: mach.RegArg(r(mach.BankF, 3, 4)), B: mach.RegArg(r(mach.BankF, 3, 5))}},
		{"ftoi cross write", mach.Unit{Kind: mach.UFA, Pair: 1}, 0,
			mach.Op{Kind: ir.FtoI, Type: ir.I32, Dst: r(mach.BankI, 0, 17),
				A: mach.RegArg(r(mach.BankF, 1, 9))}},
		{"cross-board F move (tagged bus)", mach.Unit{Kind: mach.UFM, Pair: 0}, 0,
			mach.Op{Kind: ir.Mov, Type: ir.F64, Dst: r(mach.BankF, 3, 11),
				A: mach.RegArg(r(mach.BankF, 0, 2))}},
		{"select", mach.Unit{Kind: mach.UIALU, Pair: 1, Idx: 1}, 0,
			mach.Op{Kind: ir.Select, Type: ir.I32, Dst: r(mach.BankI, 1, 20),
				A: mach.RegArg(r(mach.BankB, 1, 3)),
				B: mach.RegArg(r(mach.BankI, 1, 21)), C: mach.ImmArg(9)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec := roundTrip(t, oneSlot(c.unit, c.beat, c.op), cfg)
			got := dec.Find(c.unit, c.beat)
			if got == nil {
				t.Fatalf("slot lost: %s", dec.String())
			}
			if got.Op.Kind != c.op.Kind || got.Op.Dst != c.op.Dst {
				t.Errorf("decoded %s, want kind=%s dst=%s", got.Op.String(),
					mach.OpName(c.op.Kind), c.op.Dst)
			}
		})
	}
}

func TestEncodeBranches(t *testing.T) {
	cfg := mach.Trace14()
	cases := []mach.Op{
		{Kind: mach.OpBrT, A: mach.RegArg(mach.PReg{Bank: mach.BankB, Board: 1, Idx: 4}), Target: 1234, Prio: 2},
		{Kind: mach.OpJmp, Target: 777},
		{Kind: mach.OpCall, Target: 99, Dst: mach.RegLR},
		{Kind: mach.OpJmpR, A: mach.RegArg(mach.PReg{Bank: mach.BankI, Board: 0, Idx: 2})},
		{Kind: mach.OpHalt},
		{Kind: mach.OpSyscall, Sym: "print_i"},
		{Kind: mach.OpSyscall, Sym: "print_f"},
	}
	for _, op := range cases {
		pair := uint8(0)
		if op.Kind == mach.OpBrT {
			pair = 1
		}
		in := oneSlot(mach.Unit{Kind: mach.UBR, Pair: pair}, 0, op)
		dec := roundTrip(t, in, cfg)
		got := dec.Find(mach.Unit{Kind: mach.UBR, Pair: pair}, 0)
		if got == nil {
			t.Fatalf("branch lost: %s", dec.String())
		}
		if got.Op.Kind != op.Kind || got.Op.Target != op.Target || got.Op.Prio != op.Prio {
			t.Errorf("decoded %s, want %s", got.Op.String(), op.String())
		}
	}
}

func TestEncodeConstF(t *testing.T) {
	cfg := mach.Trace7()
	for _, v := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), 1e-300} {
		op := mach.Op{Kind: ir.ConstF, Type: ir.F64, FImm: v,
			Dst: mach.PReg{Bank: mach.BankF, Board: 0, Idx: 9}}
		dec := roundTrip(t, oneSlot(mach.Unit{Kind: mach.UFA, Pair: 0}, 0, op), cfg)
		got := dec.Find(mach.Unit{Kind: mach.UFA, Pair: 0}, 0)
		if got.Op.FImm != v {
			t.Errorf("constf %g decoded as %g", v, got.Op.FImm)
		}
	}
}

func TestEncodeRejectsIllegal(t *testing.T) {
	cfg := mach.Trace14()
	r := func(b mach.Bank, board, idx uint8) mach.PReg { return mach.PReg{Bank: b, Board: board, Idx: idx} }
	bad := []struct {
		name string
		in   *mach.Instr
	}{
		{"non-local read", oneSlot(mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: 0}, 0,
			mach.Op{Kind: ir.Add, Type: ir.I32, Dst: r(mach.BankI, 0, 1),
				A: mach.RegArg(r(mach.BankI, 1, 2)), B: mach.ImmArg(1)})},
		{"wrong-side read", oneSlot(mach.Unit{Kind: mach.UFA, Pair: 0}, 0,
			mach.Op{Kind: ir.FAdd, Type: ir.F64, Dst: r(mach.BankF, 0, 1),
				A: mach.RegArg(r(mach.BankI, 0, 2)), B: mach.RegArg(r(mach.BankF, 0, 3))})},
		{"cross SF write", oneSlot(mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: 0}, 0,
			mach.Op{Kind: mach.OpMovSF, Type: ir.I32, Dst: r(mach.BankSF, 1, 1),
				A: mach.RegArg(r(mach.BankI, 0, 2))})},
		{"cross BB write", oneSlot(mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: 0}, 0,
			mach.Op{Kind: ir.CmpEQ, Type: ir.I32, Dst: r(mach.BankB, 1, 1),
				A: mach.RegArg(r(mach.BankI, 0, 2)), B: mach.ImmArg(0)})},
		{"branch plus early imm32", &mach.Instr{Slots: []mach.SlotOp{
			{Unit: mach.Unit{Kind: mach.UBR, Pair: 0}, Beat: 0, Op: mach.Op{Kind: mach.OpJmp, Target: 5}},
			{Unit: mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: 0}, Beat: 0,
				Op: mach.Op{Kind: ir.Add, Type: ir.I32, Dst: r(mach.BankI, 0, 1),
					A: mach.RegArg(r(mach.BankI, 0, 2)), B: mach.ImmArg(100000)}},
		}}},
		{"two ops one unit slot", &mach.Instr{Slots: []mach.SlotOp{
			{Unit: mach.Unit{Kind: mach.UFA, Pair: 0}, Beat: 0, Op: mach.Op{Kind: ir.FNeg, Type: ir.F64,
				Dst: r(mach.BankF, 0, 1), A: mach.RegArg(r(mach.BankF, 0, 2))}},
			{Unit: mach.Unit{Kind: mach.UFA, Pair: 0}, Beat: 0, Op: mach.Op{Kind: ir.FNeg, Type: ir.F64,
				Dst: r(mach.BankF, 0, 3), A: mach.RegArg(r(mach.BankF, 0, 4))}},
		}}},
		{"pair out of range", oneSlot(mach.Unit{Kind: mach.UIALU, Pair: 3, Idx: 0}, 0,
			mach.Op{Kind: ir.Add, Type: ir.I32, Dst: r(mach.BankI, 3, 1),
				A: mach.RegArg(r(mach.BankI, 3, 2)), B: mach.ImmArg(1)})},
	}
	for _, c := range bad {
		if _, err := Encode(c.in, cfg); err == nil {
			t.Errorf("%s: encoded without error: %s", c.name, c.in.String())
		}
	}
}

func TestNopIsAllZero(t *testing.T) {
	cfg := mach.Trace28()
	words, err := Encode(&mach.Instr{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if w != 0 {
			t.Fatalf("empty instruction has nonzero word %d: %08x", i, w)
		}
	}
	dec, err := Decode(words, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Slots) != 0 {
		t.Errorf("all-zero words decoded to %s", dec.String())
	}
}

// TestUnpackRejectsMalformed: a stream Pack could not have written is an
// error, not a panic or a silently different program.
func TestUnpackRejectsMalformed(t *testing.T) {
	cfg := mach.Trace7() // 8 words an instruction
	good := []uint32{0x3, 0x1, 0, 0, 7, 9, 11}
	if w, err := Unpack(good, 2, cfg); err != nil || w[0][0] != 7 || w[0][1] != 9 || w[1][0] != 11 {
		t.Fatalf("Unpack(%v) = %v, %v", good, w, err)
	}
	for name, c := range map[string]struct {
		packed []uint32
		n      int
	}{
		"truncated masks":   {good[:2], 2},
		"truncated payload": {good[:6], 2},
		"mask past words":   {[]uint32{0x100, 0, 0, 0, 5}, 1},
		"mask past count":   {[]uint32{0x1, 0x1, 0, 0, 5, 6}, 1},
		"zero payload":      {[]uint32{0x1, 0, 0, 0, 0}, 1},
		"trailing words":    {append(good[:7:7], 13), 2},
		"negative count":    {good, -1},
	} {
		if w, err := Unpack(c.packed, c.n, cfg); err == nil {
			t.Errorf("%s: Unpack(%v, %d) = %v, want an error", name, c.packed, c.n, w)
		}
	}
}

// TestPackUnpackProperty: the §6.5.1 mask format is lossless and strictly
// no larger than fixed-width plus masks, for arbitrary instruction streams.
func TestPackUnpackProperty(t *testing.T) {
	cfg := mach.Trace14()
	wpi := WordsPerPair * cfg.Pairs
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%40) + 1
		words := make([][]uint32, count)
		for i := range words {
			words[i] = make([]uint32, wpi)
			for j := range words[i] {
				if rng.Intn(3) == 0 { // sparse, like real code
					words[i][j] = rng.Uint32() | 1 // nonzero
				}
			}
		}
		packed := Pack(words, cfg)
		got, err := Unpack(packed, count, cfg)
		if err != nil || len(got) != count {
			return false
		}
		for i := range words {
			for j := range words[i] {
				if got[i][j] != words[i][j] {
					return false
				}
			}
		}
		// size bound: masks (4 words per block of 4) + payload
		blocks := (count + 3) / 4
		payload := 0
		for i := range words {
			for _, w := range words[i] {
				if w != 0 {
					payload++
				}
			}
		}
		return len(packed) == 4*blocks+payload
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedSavesOnSparseCode(t *testing.T) {
	cfg := mach.Trace28()
	wpi := WordsPerPair * cfg.Pairs
	words := make([][]uint32, 16)
	for i := range words {
		words[i] = make([]uint32, wpi)
		words[i][i%wpi] = 0xdeadbeef // one op per instruction
	}
	packed := Pack(words, cfg)
	if PackedSize(packed) >= FixedSize(16, cfg) {
		t.Errorf("mask format failed to shrink sparse code: %d vs %d",
			PackedSize(packed), FixedSize(16, cfg))
	}
}
