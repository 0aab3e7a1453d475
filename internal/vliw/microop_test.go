package vliw

import (
	"fmt"
	"math"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// One operation at a time through the native tier's regions: for every
// kind of record (uop.kind) and every operand shape the translation
// distinguishes, a hand-built word is run to its landing on the
// checked interpreter and on a native machine whose region for it is warm, and
// the two must end with the same registers, memory, in-flight writes, all 23
// counters and the same Fault text. The matrices over whole programs
// (TestExitStateMatchesChecked, TestNativeCheckedAgree) visit an operation's
// odd shapes only when a compiler happens to emit them; this visits each by
// construction, whatever the translator emits for it.

const uopTail = 20 // empty words behind the word under test: 40 beats, past the longest latency

// Functional units of pair 0, and registers of board 0 by bank.
var (
	uALU0 = mach.Unit{Kind: mach.UIALU}
	uALU1 = mach.Unit{Kind: mach.UIALU, Idx: 1}
	uFA   = mach.Unit{Kind: mach.UFA}
	uFM   = mach.Unit{Kind: mach.UFM}
	uBR   = mach.Unit{Kind: mach.UBR}
)

func ireg(n uint8) mach.PReg { return mach.PReg{Bank: mach.BankI, Idx: n} }
func freg(n uint8) mach.PReg { return mach.PReg{Bank: mach.BankF, Idx: n} }
func sreg(n uint8) mach.PReg { return mach.PReg{Bank: mach.BankSF, Idx: n} }
func breg(n uint8) mach.PReg { return mach.PReg{Bank: mach.BankB, Idx: n} }

// uopData is where the memory cases point; uopRegs is what every case finds in
// the registers, and uopMem in memory, when its word issues.
const uopData = ir.GlobalBase + 64

var uopRegs = map[mach.PReg]uint64{
	ireg(10):    100,
	ireg(11):    7,
	ireg(12):    uopData,
	ireg(13):    mach.IBits(-3),
	ireg(14):    16,
	ireg(15):    0,
	freg(10):    mach.FBits(2.5),
	freg(11):    mach.FBits(-0.75),
	sreg(3):     mach.FBits(9.25),
	sreg(4):     77,
	breg(1):     1,
	breg(2):     0,
	mach.RegRVI: 42,
	// The output syscalls' argument registers.
	{Bank: mach.BankI, Idx: uint8(mach.ArgIBase)}: mach.IBits(-31337),
	{Bank: mach.BankF, Idx: uint8(mach.ArgFBase)}: mach.FBits(6.5),
}

func uopMem(mem []byte) {
	for i := range 64 {
		mem[uopData+int64(i)] = byte(0x11 * (i + 1))
	}
}

// uopCase is one word under test. proven lists the slots (by index) a
// certificate vouches for; flight asks for a second comparison with both
// machines paused at the word's end, its writes still in flight (left out where
// the tiers file a cross-bank write differently by design: see compileExec).
type uopCase struct {
	name   string
	slots  []mach.SlotOp
	proven []int
	flight bool
}

// siteCert covers a hand-built image and proves the sites it is told to.
type siteCert struct {
	img    *isa.Image
	proven map[mach.SlotOp]bool // keyed by {Unit, Beat} of a slot of word `word`
	word   int
}

func (c *siteCert) CertifiedImage() *isa.Image { return c.img }
func (c *siteCert) SafeSite(w int, u mach.Unit, beat uint8) bool {
	return w == c.word && c.proven[mach.SlotOp{Unit: u, Beat: beat}]
}

// uopImage lays the word out behind `lead` empty words and in front of uopTail
// more and a halt, in place of the code of a freshly linked empty program.
// Branch targets in the cases are relative to the word under test.
func uopImage(t *testing.T, slots []mach.SlotOp, lead int) *isa.Image {
	img := build(t, `func main() int { return 0 }`, mach.Trace14())
	word := mach.Instr{Slots: append([]mach.SlotOp(nil), slots...)}
	for i := range word.Slots {
		if o := &word.Slots[i].Op; o.Target > 0 {
			o.Target += lead
		}
	}
	img.Instrs = make([]mach.Instr, 0, lead+uopTail+2)
	for range lead {
		img.Instrs = append(img.Instrs, mach.Instr{})
	}
	img.Instrs = append(img.Instrs, word)
	for range uopTail {
		img.Instrs = append(img.Instrs, mach.Instr{})
	}
	img.Instrs = append(img.Instrs, mach.Instr{Slots: []mach.SlotOp{{Unit: uBR, Op: mach.Op{Kind: mach.OpHalt}}}})
	img.Words, img.Packed, img.Entry = nil, nil, 0
	return img
}

const uopHalt = uopTail + 1 // the halt word, relative to the word under test

func uopCases() []uopCase {
	var cs []uopCase
	add := func(name string, flight bool, slots ...mach.SlotOp) *uopCase {
		cs = append(cs, uopCase{name: name, slots: slots, flight: flight})
		return &cs[len(cs)-1]
	}
	at := func(u mach.Unit, beat uint8, o mach.Op) mach.SlotOp { return mach.SlotOp{Unit: u, Beat: beat, Op: o} }
	R, I := mach.RegArg, mach.ImmArg

	// The value table, every opcode: each mix of register and immediate
	// operands, and one register twice, at either beat of the word.
	for k := ir.OpKind(0); k <= mach.OpHalt; k++ {
		v := mach.ValueOf(k)
		if v == nil {
			continue
		}
		unit, a, b, dst, typ := uALU0, ireg(10), ireg(11), ireg(20), ir.I32
		if v.FloatIn {
			unit, a, b, typ = uFA, freg(10), freg(11), ir.F64
		}
		switch {
		case v.FloatOut:
			dst = freg(20)
		case k.IsCompare():
			dst = breg(3)
		}
		name := mach.OpName(k)
		for beat := uint8(0); beat < 2; beat++ {
			shapes := []struct {
				name string
				a, b mach.Arg
			}{{"rr", R(a), R(b)}, {"ri", R(a), I(3)}, {"ir", I(-20), R(b)}, {"ii", I(-20), I(3)}, {"same", R(b), R(b)}}
			if v.Unary {
				shapes = shapes[:1]
				shapes[0].b = mach.Arg{}
			}
			for _, s := range shapes {
				op := mach.Op{Kind: k, Type: typ, Dst: dst, A: s.a, B: s.b}
				add(fmt.Sprintf("%s/%s/beat%d", name, s.name, beat), true, at(unit, beat, op))
				if k == ir.Div || k == ir.Rem {
					add(fmt.Sprintf("%s/%s/beat%d/proven", name, s.name, beat), true, at(unit, beat, op)).proven = []int{0}
				}
			}
		}
		// No destination: evaluated, delivered nowhere.
		add(name+"/nodst", true, at(unit, 0, mach.Op{Kind: k, Type: typ, A: R(a), B: R(b)}))
	}
	// A guarded divide by zero, register and immediate; the fault names the unit.
	for _, k := range []ir.OpKind{ir.Div, ir.Rem} {
		add(mach.OpName(k)+"/zero/reg", false, at(uALU1, 1, mach.Op{Kind: k, Type: ir.I32, Dst: ireg(20), A: R(ireg(10)), B: R(ireg(15))}))
		add(mach.OpName(k)+"/zero/imm", false, at(uALU0, 0, mach.Op{Kind: k, Type: ir.I32, Dst: ireg(20), A: R(ireg(10)), B: I(0)}))
		add(mach.OpName(k)+"/minint", true, at(uALU0, 0, mach.Op{Kind: k, Type: ir.I32, Dst: ireg(20), A: I(math.MinInt32), B: I(-1)}))
	}

	// Every bank as a destination, by the operation that naturally writes it;
	// then the two cross-bank writes whose store is canonicalised.
	add("dst/I", true, at(uALU0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(21), A: R(ireg(10)), B: R(ireg(13))}))
	add("dst/F", true, at(uFM, 0, mach.Op{Kind: ir.FMul, Type: ir.F64, Dst: freg(21), A: R(freg(10)), B: R(freg(11))}))
	add("dst/SF", true, at(uFA, 0, mach.Op{Kind: mach.OpMovSF, Type: ir.F64, Dst: sreg(5), A: R(freg(10))}))
	add("dst/SF/int", true, at(uALU0, 1, mach.Op{Kind: mach.OpMovSF, Type: ir.I32, Dst: sreg(6), A: R(ireg(10))}))
	add("dst/B", true, at(uALU0, 0, mach.Op{Kind: ir.CmpLT, Type: ir.I32, Dst: breg(4), A: R(ireg(13)), B: R(ireg(11))}))
	add("dst/float-into-I", false, at(uFA, 0, mach.Op{Kind: ir.FAdd, Type: ir.F64, Dst: ireg(22), A: R(freg(10)), B: R(freg(11))}))
	add("dst/int-into-B", false, at(uALU0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: breg(5), A: R(ireg(10)), B: R(ireg(14))}))
	add("dst/mov-float-into-I", false, at(uALU0, 1, mach.Op{Kind: ir.Mov, Type: ir.F64, Dst: ireg(22), A: R(freg(10))}))
	add("dst/mov-int-into-B", false, at(uALU0, 0, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: breg(5), A: R(ireg(14))}))

	// A straight write (latency 1 from the first beat, nothing in its way) and
	// the same operation slotted: a reader behind it in the beat, a second
	// writer, an op behind it that can fault, the second beat.
	inc := mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(10), A: R(ireg(10)), B: I(1)}
	add("straight", true, at(uALU0, 0, inc))
	add("straight/two", true, at(uALU0, 0, inc), at(uALU1, 0, mach.Op{Kind: ir.CmpGE, Type: ir.I32, Dst: breg(3), A: R(ireg(11)), B: I(7)}))
	add("slotted/read-behind", true, at(uALU0, 0, inc), at(uALU1, 0, mach.Op{Kind: ir.Sub, Type: ir.I32, Dst: ireg(23), A: R(ireg(10)), B: I(0)}))
	add("slotted/fault-behind", true, at(uALU0, 0, inc), at(uALU1, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(23), A: R(ireg(12)), B: I(0)}))
	add("slotted/faults-behind", false, at(uALU0, 0, inc), at(uALU1, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(23), A: R(ireg(12)), B: I(1 << 28)}))
	add("slotted/beat1", true, at(uALU0, 1, inc))
	add("straight-then-read", true, at(uALU0, 0, inc), at(uALU1, 1, mach.Op{Kind: ir.Shl, Type: ir.I32, Dst: ireg(23), A: R(ireg(10)), B: I(2)}))

	// Constants, moves, select, nop.
	add("nop", true, at(uALU0, 0, mach.Op{Kind: ir.Nop}))
	add("consti/imm", true, at(uALU0, 0, mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: ireg(20), A: I(-12345)}))
	add("consti/reg", true, at(uALU0, 1, mach.Op{Kind: ir.ConstI, Type: ir.I32, Dst: ireg(20), A: R(ireg(13))}))
	add("consti/nodst", true, at(uALU0, 0, mach.Op{Kind: ir.ConstI, Type: ir.I32, A: I(5)}))
	add("constf", true, at(uFA, 0, mach.Op{Kind: ir.ConstF, Type: ir.F64, Dst: freg(20), FImm: -1234.5e-3}))
	add("constf/beat1", true, at(uALU0, 1, mach.Op{Kind: ir.ConstF, Type: ir.F64, Dst: freg(20), FImm: math.Inf(1)}))
	add("mov/I", true, at(uALU0, 0, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: ireg(20), A: R(ireg(13))}))
	add("mov/I/beat1", true, at(uALU1, 1, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: ireg(20), A: R(ireg(13))}))
	add("mov/imm", true, at(uALU0, 0, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: ireg(20), A: I(-9)}))
	add("mov/none", true, at(uALU0, 0, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: ireg(10)}))
	add("mov/F", true, at(uFA, 0, mach.Op{Kind: ir.Mov, Type: ir.F64, Dst: freg(20), A: R(freg(11))}))
	add("mov/B", true, at(uALU0, 0, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: breg(6), A: R(breg(1))}))
	add("mov/SF-to-F", true, at(uFA, 0, mach.Op{Kind: ir.Mov, Type: ir.F64, Dst: freg(20), A: R(sreg(3))}))
	for _, cond := range []uint8{1, 2} {
		add(fmt.Sprintf("select/I/b%d", cond), true, at(uALU0, 0, mach.Op{Kind: ir.Select, Type: ir.I32, Dst: ireg(20), A: R(breg(cond)), B: R(ireg(10)), C: R(ireg(11))}))
		add(fmt.Sprintf("select/F/b%d", cond), true, at(uFA, 1, mach.Op{Kind: ir.Select, Type: ir.F64, Dst: freg(20), A: R(breg(cond)), B: R(freg(10)), C: R(freg(11))}))
		add(fmt.Sprintf("select/imm/b%d", cond), true, at(uALU1, 0, mach.Op{Kind: ir.Select, Type: ir.I32, Dst: ireg(20), A: R(breg(cond)), B: I(-5), C: I(6)}))
		add(fmt.Sprintf("select/nodst/b%d", cond), true, at(uALU1, 0, mach.Op{Kind: ir.Select, Type: ir.I32, A: R(breg(cond)), B: I(-5), C: I(6)}))
	}
	add("select/imm-cond", true, at(uALU0, 0, mach.Op{Kind: ir.Select, Type: ir.I32, Dst: ireg(20), A: I(1), B: R(ireg(10)), C: R(ireg(11))}))
	add("select/into-B", false, at(uALU0, 0, mach.Op{Kind: ir.Select, Type: ir.I32, Dst: breg(6), A: R(breg(1)), B: R(ireg(14)), C: I(0)}))

	// Loads: each address shape, each size, guarded and proven, and every way a
	// guarded one goes wrong.
	for _, typ := range []ir.Type{ir.I32, ir.F64} {
		dst, unit := ireg(24), uALU0
		if typ == ir.F64 {
			dst = freg(24)
		}
		for _, kind := range []ir.OpKind{ir.Load, ir.LoadSpec} {
			name := fmt.Sprintf("%s/%s", mach.OpName(kind), typ)
			shapes := []struct {
				name string
				a, b mach.Arg
			}{
				{"reg+imm", R(ireg(12)), I(8)}, {"reg+reg", R(ireg(12)), R(ireg(14))},
				{"imm+imm", I(uopData), I(24)}, {"imm+reg", I(uopData), R(ireg(14))}, {"reg", R(ireg(12)), mach.Arg{}},
			}
			for _, s := range shapes {
				op := mach.Op{Kind: kind, Type: typ, Dst: dst, A: s.a, B: s.b}
				add(name+"/"+s.name, true, at(unit, 0, op))
				add(name+"/"+s.name+"/proven", true, at(unit, 1, op)).proven = []int{0}
			}
			add(name+"/nodst", true, at(unit, 0, mach.Op{Kind: kind, Type: typ, A: R(ireg(12)), B: I(8)}))
			add(name+"/nodst/proven", true, at(unit, 0, mach.Op{Kind: kind, Type: typ, A: R(ireg(12)), B: I(8)})).proven = []int{0}
			for _, bad := range []struct {
				name string
				a, b mach.Arg
			}{
				{"unaligned", R(ireg(12)), I(2)}, {"low", I(8), I(0)}, {"negative", R(ireg(13)), I(-64)},
				{"high", R(ireg(12)), I(1 << 28)}, {"high-unaligned", R(ireg(12)), I(1<<28 + 1)}, {"nobase", mach.Arg{}, I(8)},
			} {
				add(name+"/"+bad.name, kind == ir.LoadSpec, at(unit, 1, mach.Op{Kind: kind, Type: typ, Dst: dst, A: bad.a, B: bad.b}))
			}
		}
		add("load/"+typ.String()+"/behind-ops", false,
			at(uALU0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(25), A: R(ireg(10)), B: I(1)}),
			at(uFA, 0, mach.Op{Kind: ir.FAdd, Type: ir.F64, Dst: freg(25), A: R(freg(10)), B: R(freg(11))}),
			at(uALU1, 0, mach.Op{Kind: ir.Load, Type: typ, Dst: dst, A: I(4), B: I(0)}),
			at(uFM, 0, mach.Op{Kind: ir.FMul, Type: ir.F64, Dst: freg(26), A: R(freg(10)), B: I(3)}))
	}
	add("load/f64-into-I", false, at(uALU0, 0, mach.Op{Kind: ir.Load, Type: ir.F64, Dst: ireg(24), A: R(ireg(12)), B: I(8)}))
	add("load/f64-into-I/proven", false, at(uALU0, 0, mach.Op{Kind: ir.Load, Type: ir.F64, Dst: ireg(24), A: R(ireg(12)), B: I(8)})).proven = []int{0}
	add("load/untyped", false, at(uALU0, 0, mach.Op{Kind: ir.Load, Dst: ireg(24), A: R(ireg(12)), B: I(8)}))
	add("loadspec/untyped", false, at(uALU0, 0, mach.Op{Kind: ir.LoadSpec, Dst: ireg(24), A: R(ireg(12)), B: I(8)}))

	// Stores: the data from each bank and from an immediate.
	for _, typ := range []ir.Type{ir.I32, ir.F64} {
		name := "store/" + typ.String()
		for _, d := range []struct {
			name string
			c    mach.Arg
		}{{"sf", R(sreg(3))}, {"sf-int", R(sreg(4))}, {"ireg", R(ireg(13))}, {"freg", R(freg(11))}, {"imm", I(-2)}, {"none", mach.Arg{}}} {
			op := mach.Op{Kind: ir.Store, Type: typ, A: R(ireg(12)), B: I(16), C: d.c}
			add(name+"/"+d.name, true, at(uALU0, 0, op))
			add(name+"/"+d.name+"/proven", true, at(uALU0, 1, op)).proven = []int{0}
		}
		add(name+"/reg+reg", true, at(uALU1, 1, mach.Op{Kind: ir.Store, Type: typ, A: R(ireg(12)), B: R(ireg(14)), C: R(sreg(3))}))
		add(name+"/reg+reg/proven", true, at(uALU1, 0, mach.Op{Kind: ir.Store, Type: typ, A: R(ireg(12)), B: R(ireg(14)), C: R(sreg(3))})).proven = []int{0}
		add(name+"/abs", true, at(uALU0, 0, mach.Op{Kind: ir.Store, Type: typ, A: I(uopData), B: I(32), C: R(sreg(3))}))
		for _, bad := range []struct {
			name string
			a, b mach.Arg
		}{
			{"unaligned", R(ireg(12)), I(2)}, {"low", I(8), I(0)}, {"negative", R(ireg(13)), I(-64)},
			{"high", R(ireg(12)), I(1 << 28)}, {"high-unaligned", R(ireg(12)), I(1<<28 + 1)}, {"nobase", mach.Arg{}, I(8)},
		} {
			add(name+"/"+bad.name, false, at(uALU0, 0, mach.Op{Kind: ir.Store, Type: typ, A: bad.a, B: bad.b, C: R(sreg(3))}))
		}
	}
	add("store/untyped", false, at(uALU0, 0, mach.Op{Kind: ir.Store, A: R(ireg(12)), B: I(16), C: R(sreg(3))}))
	// A store and a load of the same doubleword in one word, either order.
	add("store-then-load", true,
		at(uALU0, 0, mach.Op{Kind: ir.Store, Type: ir.I32, A: R(ireg(12)), B: I(0), C: I(-7)}),
		at(uALU0, 1, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(24), A: R(ireg(12)), B: I(0)})).proven = []int{0, 1}

	// What neither executor has semantics for.
	add("badop/branch-kind-on-alu", false, at(uALU0, 0, mach.Op{Kind: mach.OpJmp, Target: 3}))
	add("badop/unknown", false, at(uFA, 1, mach.Op{Kind: 63, Dst: ireg(20)}))
	add("badop/behind-ops", false,
		at(uALU0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(25), A: R(ireg(10)), B: I(1)}),
		at(uALU1, 0, mach.Op{Kind: 63}))

	// The branch unit.
	cmp := at(uALU0, 0, mach.Op{Kind: ir.CmpLT, Type: ir.I32, Dst: breg(3), A: R(ireg(13)), B: R(ireg(11))})
	brt := func(cond mach.Arg, target, prio int) mach.SlotOp {
		return at(uBR, 0, mach.Op{Kind: mach.OpBrT, A: cond, Target: target, Prio: prio})
	}
	add("brt/taken", true, brt(R(breg(1)), uopHalt, 0))
	add("brt/taken-near", true, brt(R(breg(1)), 5, 0))
	add("brt/not-taken", true, brt(R(breg(2)), uopHalt, 0))
	add("brt/imm", true, brt(I(1), uopHalt, 0))
	add("brt/none", true, brt(mach.Arg{}, uopHalt, 0))
	add("brt/no-target", true, brt(R(breg(1)), -1, 0))
	add("brt/beside-compare", true, cmp, brt(R(breg(3)), uopHalt, 0))
	add("brt/outside", false, brt(R(breg(1)), 1<<20, 0))
	two := func(p0, p1 int, c0, c1 uint8) []mach.SlotOp {
		b1 := brt(R(breg(c1)), 7, p1)
		b1.Unit.Pair = 1 // a second branch unit; the word is one the checked tier's resource check accepts
		return []mach.SlotOp{brt(R(breg(c0)), uopHalt, p0), b1}
	}
	add("brt/two/first-wins", true, two(0, 1, 1, 1)...)
	add("brt/two/second-wins", true, two(1, 0, 1, 1)...)
	add("brt/two/tie", true, two(2, 2, 1, 1)...)
	add("brt/two/only-second", true, two(0, 1, 2, 1)...)
	add("brt/two/neither", true, two(0, 1, 2, 2)...)
	add("jmp", true, at(uBR, 0, mach.Op{Kind: mach.OpJmp, Target: 6}))
	add("jmp/far", true, at(uBR, 0, mach.Op{Kind: mach.OpJmp, Target: uopHalt}))
	add("jmp/no-target", true, at(uBR, 0, mach.Op{Kind: mach.OpJmp, Target: -1}))
	add("jmp/outside", false, at(uBR, 0, mach.Op{Kind: mach.OpJmp, Target: 1 << 20}))
	add("jmp/beside-ops", true, at(uALU0, 0, inc), at(uBR, 0, mach.Op{Kind: mach.OpJmp, Target: 4}), at(uALU1, 1, inc))
	add("call", true, at(uBR, 0, mach.Op{Kind: mach.OpCall, Dst: mach.RegLR, Target: uopHalt}))
	add("call/near", true, at(uBR, 0, mach.Op{Kind: mach.OpCall, Dst: mach.RegLR, Target: 2}))
	add("call/no-target", true, at(uBR, 0, mach.Op{Kind: mach.OpCall, Dst: mach.RegLR, Target: -1}))
	add("call/beside-lr-write", true, at(uALU0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(20), A: R(mach.RegLR), B: I(1)}),
		at(uBR, 0, mach.Op{Kind: mach.OpCall, Dst: mach.RegLR, Target: 3}))
	add("jmpr", true, at(uBR, 0, mach.Op{Kind: mach.OpJmpR, A: R(ireg(14))}))
	add("jmpr/imm", true, at(uBR, 0, mach.Op{Kind: mach.OpJmpR, A: I(uopHalt)}))
	add("jmpr/negative", true, at(uBR, 0, mach.Op{Kind: mach.OpJmpR, A: R(ireg(13))}))
	add("jmpr/outside", false, at(uBR, 0, mach.Op{Kind: mach.OpJmpR, A: I(1 << 20)}))
	add("halt", true, at(uBR, 0, mach.Op{Kind: mach.OpHalt}))
	add("halt/beside-ops", true, at(uALU0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: mach.RegRVI, A: R(mach.RegRVI), B: I(1)}),
		at(uFA, 0, mach.Op{Kind: ir.FAdd, Type: ir.F64, Dst: freg(20), A: R(freg(10)), B: R(freg(11))}),
		at(uBR, 0, mach.Op{Kind: mach.OpHalt}))
	add("halt/with-taken-branch", true, brt(R(breg(1)), 4, 0), func() mach.SlotOp {
		h := at(uBR, 0, mach.Op{Kind: mach.OpHalt})
		h.Unit.Pair = 1
		return h
	}())
	// The argument register is written in the same word: the syscall prints
	// what it held before.
	argI := mach.PReg{Bank: mach.BankI, Idx: uint8(mach.ArgIBase)}
	add("syscall/print_i", true, at(uALU0, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: argI, A: R(ireg(13)), B: I(0)}),
		at(uBR, 0, mach.Op{Kind: mach.OpSyscall, Sym: "print_i"}))
	add("syscall/print_f", true, at(uBR, 0, mach.Op{Kind: mach.OpSyscall, Sym: "print_f"}))
	add("syscall/unknown", false, at(uALU0, 0, inc), at(uBR, 0, mach.Op{Kind: mach.OpSyscall, Sym: "launch"}))
	add("syscall/unnamed", false, at(uBR, 0, mach.Op{Kind: mach.OpSyscall}))
	add("badop/alu-kind-on-branch-unit", false, at(uALU0, 0, inc), at(uBR, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(20), A: R(ireg(10)), B: I(1)}))
	add("badop/movsf-on-branch-unit", false, at(uBR, 0, mach.Op{Kind: mach.OpMovSF, Dst: sreg(5), A: R(freg(10))}))
	return cs
}

// uopOutcome is what a run leaves that DiffState does not see.
func uopOutcome(exit int32, out string, err error) string {
	if err != nil {
		return fmt.Sprintf("err %q, out %q", err, out)
	}
	return fmt.Sprintf("exit %d, out %q", exit, out)
}

func TestMicroOpMatchesInterpreter(t *testing.T) {
	base := uopImage(t, nil, 0)
	checked, native := New(base), New(base)
	ran := 0
	for _, tc := range uopCases() {
		for lead := 0; lead < 2; lead++ {
			img := uopImage(t, tc.slots, lead)
			cert := &siteCert{img: img, word: lead, proven: map[mach.SlotOp]bool{}}
			for _, i := range tc.proven {
				cert.proven[mach.SlotOp{Unit: tc.slots[i].Unit, Beat: tc.slots[i].Beat}] = true
			}
			prepare := func(m *Machine, stop int64) {
				m.Reset(img)
				if m == native {
					if err := m.UseNativeCertificate(cert); err != nil {
						t.Fatal(err)
					}
				}
				c := m.Contexts()[0]
				for r, v := range uopRegs {
					c.writeReg(r, v)
				}
				uopMem(c.mem)
				m.StopBeat = stop
			}
			// Two runs bring the per-word path to the first word twice: the
			// second builds the region and the runs compared below find it warm.
			for range 2 {
				prepare(native, 0)
				native.Run()
			}
			stops := []int64{0}
			if tc.flight {
				// The end of the word under test, on the clock of this layout:
				// the first word of a run pays the instruction TLB's trap.
				stops = append(stops, int64(TrapEntryBeats+2*lead+2))
			}
			for _, stop := range stops {
				what := fmt.Sprintf("%s, %d empty words ahead, stop %d", tc.name, lead, stop)
				var outcome [2]string
				for i, m := range []*Machine{checked, native} {
					prepare(m, stop)
					outcome[i] = uopOutcome(m.Run())
				}
				if outcome[0] != outcome[1] {
					t.Errorf("%s: checked %s, native %s", what, outcome[0], outcome[1])
					continue
				}
				if checked.Stats != native.Stats {
					t.Errorf("%s: counters\n  checked %+v\n  native  %+v", what, checked.Stats, native.Stats)
				}
				if d := DiffState(checked.Contexts()[0], native.Contexts()[0]); d != "" {
					t.Errorf("%s: %s", what, d)
				}
				if native.regions.words == 0 {
					t.Errorf("%s: the native machine ran no word in a region", what)
				}
				ran++
			}
		}
	}
	t.Logf("%d comparisons", ran)
}
