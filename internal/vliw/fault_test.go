package vliw

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// TestTrapDivZeroTaxonomy checks that a runtime divide-by-zero surfaces as a
// structured Fault carrying the trap code, beat, and faulting unit.
func TestTrapDivZeroTaxonomy(t *testing.T) {
	img := build(t, `
var a [2]int
func main() int {
	var p []int = a
	return 7 / p[0]
}`, mach.Trace7())
	m := New(img)
	_, _, err := m.Run()
	if err == nil {
		t.Fatal("divide by zero did not fault")
	}
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if f.Code != TrapDivZero {
		t.Errorf("trap code = %s, want %s", f.Code, TrapDivZero)
	}
	if f.Beat <= 0 {
		t.Errorf("fault carries no beat: %+v", f)
	}
	if f.Unit == "" {
		t.Errorf("fault carries no functional unit: %+v", f)
	}
}

// TestTrapUnaligned drives the load/store bounds checks directly with crafted
// effective addresses: the compiler never emits unaligned references, so the
// only way to reach these traps is raw ops (exactly what a miscompile or a
// corrupted address register would produce).
func TestTrapUnaligned(t *testing.T) {
	img := build(t, `func main() int { return 0 }`, mach.Trace7())
	m := New(img)
	// A raw op as the plan would hold it, through the one executor.
	run := func(o *mach.Op) error {
		s := translate(0, &mach.SlotOp{Unit: mach.Unit{Kind: mach.UIALU}, Op: *o}, &img.Cfg)
		return m.exec(m.cur, &s, &s.uop)
	}

	store := &mach.Op{Kind: ir.Store, Type: ir.I32,
		A: mach.ImmArg(int32(ir.GlobalBase + 2)), B: mach.ImmArg(0), C: mach.ImmArg(1)}
	err := run(store)
	f, ok := err.(*Fault)
	if !ok || f.Code != TrapUnaligned {
		t.Errorf("unaligned store: got %v, want TrapUnaligned fault", err)
	}

	load := &mach.Op{Kind: ir.Load, Type: ir.F64, Dst: mach.PReg{Bank: mach.BankF},
		A: mach.ImmArg(int32(ir.GlobalBase + 4)), B: mach.ImmArg(0)}
	err = run(load)
	f, ok = err.(*Fault)
	if !ok || f.Code != TrapUnaligned {
		t.Errorf("unaligned load: got %v, want TrapUnaligned fault", err)
	}

	// A speculative load takes the §7 funny-number path instead of trapping.
	spec := &mach.Op{Kind: ir.LoadSpec, Type: ir.F64, Dst: mach.PReg{Bank: mach.BankF},
		A: mach.ImmArg(int32(ir.GlobalBase + 4)), B: mach.ImmArg(0)}
	before := m.Stats.SpecFaults
	if err := run(spec); err != nil {
		t.Errorf("unaligned speculative load trapped: %v", err)
	}
	if m.Stats.SpecFaults != before+1 {
		t.Errorf("speculative unaligned load did not count a funny number")
	}
}

// TestTrapMemBoundsCode checks out-of-range references carry TrapMemBounds.
func TestTrapMemBoundsCode(t *testing.T) {
	img := build(t, `
var a [4]int
func main() int {
	var p []int = a
	return p[1 << 20]
}`, mach.Trace7())
	m := New(img)
	_, _, err := m.Run()
	f, ok := err.(*Fault)
	if !ok || f.Code != TrapMemBounds {
		t.Fatalf("want TrapMemBounds fault, got %v", err)
	}
}

const stallSrc = `
var a [64]float
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { a[i] = a[i] + 1.5 }
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + a[i] }
	if (s < 95.9) { return 1 }
	if (s > 96.1) { return 2 }
	return 0
}`

// TestStallBankIsPureTiming injects a long stall on one memory bank and
// checks that execution slows down but computes bit-identical results: the
// bank-busy network is the one place the machine *does* interlock, so a
// stall must never change architectural state.
func TestStallBankIsPureTiming(t *testing.T) {
	img := build(t, stallSrc, mach.Trace7())

	clean := New(img)
	v0, out0, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}

	stalled := New(img)
	stalled.StallBank(ir.GlobalBase, 5_000)
	v1, out1, err := stalled.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v0 || out1 != out0 {
		t.Errorf("bank stall changed results: (%d,%q) vs (%d,%q)", v1, out1, v0, out0)
	}
	if stalled.Stats.Beats <= clean.Stats.Beats {
		t.Errorf("stall did not cost time: %d vs %d beats", stalled.Stats.Beats, clean.Stats.Beats)
	}
}

// TestInjectWriteCorrupts proves the fault hook is live: flipping a single
// register write on an interlock-free machine must change the observable
// outcome (different exit/output or a trap) — silent absorption would mean
// the hook, and therefore the differential harness built on it, tests nothing.
func TestInjectWriteCorrupts(t *testing.T) {
	img := build(t, stallSrc, mach.Trace7())

	clean := New(img)
	v0, out0, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}

	faulty := New(img)
	faulty.CycleLimit = 10 * clean.Stats.Beats
	n := int64(0)
	faulty.InjectWrite = func(beat int64, dst mach.PReg, val uint64) uint64 {
		n++
		if n != 40 { // corrupt exactly one write, mid-program
			return val
		}
		if dst.Bank == mach.BankB {
			if val == 0 {
				return 1
			}
			return 0
		}
		if dst.Bank == mach.BankF {
			return math.Float64bits(math.Float64frombits(val) + 1e6)
		}
		return val ^ 0xFFFF
	}
	v1, out1, err := faulty.Run()
	if err == nil && v1 == v0 && out1 == out0 {
		t.Errorf("single-write corruption was not observable: (%d,%q)", v1, out1)
	}
}

// What a fault in the middle of a beat leaves, in literal numbers. The slots
// of a beat issue in order: the ones ahead of the faulting slot have counted
// and their writes are in flight, the faulting slot has counted what a slot
// counts before anything can stop it, and the ones behind it never issue. The
// tier-equivalence tests hold the tiers to each other; this holds all of them
// to the numbers, on the checked interpreter, on the safe tier's, and inside a
// warm region of the native tier.

// midFault is one hand-built word (laid out by uopImage, found by the
// registers and memory of uopRegs and uopMem) and what its fault leaves.
type midFault struct {
	name   string
	slots  []mach.SlotOp
	stats  Stats // the counters a slot bumps; the clock and the memory system's are not pinned here
	code   TrapCode
	unit   string
	msg    string
	flight []mach.PReg // destinations of the writes in flight at the fault, in issue order
}

func midFaults() []midFault {
	at := func(u mach.Unit, beat uint8, o mach.Op) mach.SlotOp { return mach.SlotOp{Unit: u, Beat: beat, Op: o} }
	R, I := mach.RegArg, mach.ImmArg
	alu0p1, br1 := mach.Unit{Kind: mach.UIALU, Pair: 1}, mach.Unit{Kind: mach.UBR, Pair: 1}
	inc := mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(25), A: R(ireg(10)), B: I(1)}
	return []midFault{
		{
			name: "div by zero between a load and a store",
			slots: []mach.SlotOp{
				at(uALU0, 0, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(24), A: R(ireg(12)), B: I(8)}),
				at(uALU1, 0, mach.Op{Kind: ir.Div, Type: ir.I32, Dst: ireg(20), A: R(ireg(10)), B: R(ireg(15))}),
				at(alu0p1, 0, mach.Op{Kind: ir.Store, Type: ir.I32, A: R(ireg(12)), B: I(16), C: R(sreg(4))}),
			},
			stats: Stats{Ops: 2, MemRefs: 1, Loads: 1},
			code:  TrapDivZero, unit: "ialu0.1", msg: "integer divide by zero",
			flight: []mach.PReg{ireg(24)},
		},
		{
			// The first beat is whole: a speculative load of an unmapped address
			// and a taken-nowhere branch test; the second beat's store faults.
			name: "unaligned store behind a float add",
			slots: []mach.SlotOp{
				at(uALU0, 0, mach.Op{Kind: ir.LoadSpec, Type: ir.F64, Dst: freg(24), A: I(8), B: I(0)}),
				at(uBR, 0, mach.Op{Kind: mach.OpBrT, A: R(breg(2)), Target: 5}),
				at(uFA, 1, mach.Op{Kind: ir.FAdd, Type: ir.F64, Dst: freg(20), A: R(freg(10)), B: R(freg(11))}),
				at(uALU0, 1, mach.Op{Kind: ir.Store, Type: ir.I32, A: R(ireg(12)), B: I(2), C: R(sreg(4))}),
				at(alu0p1, 1, inc),
			},
			stats: Stats{Ops: 4, FloatOps: 1, MemRefs: 2, Loads: 1, Stores: 1, SpecLoads: 1, SpecFaults: 1, Branches: 1},
			code:  TrapUnaligned, unit: "ialu0.0", msg: "unaligned 4-byte store 0x1042",
			flight: []mach.PReg{freg(24), freg(20)},
		},
		{
			name: "unknown syscall between two ALU ops",
			slots: []mach.SlotOp{
				at(uALU0, 0, inc),
				at(uBR, 0, mach.Op{Kind: mach.OpSyscall, Sym: "launch"}),
				at(uALU1, 0, mach.Op{Kind: ir.CmpLT, Type: ir.I32, Dst: breg(3), A: R(ireg(13)), B: R(ireg(11))}),
			},
			stats: Stats{Ops: 2, Syscalls: 1},
			code:  TrapSyscall, unit: "br0", msg: `unknown syscall "launch"`,
			flight: []mach.PReg{ireg(25)},
		},
		{
			name: "an ALU opcode on a branch unit beside ALU ops",
			slots: []mach.SlotOp{
				at(uALU0, 0, inc),
				at(uBR, 0, mach.Op{Kind: mach.OpJmp, Target: 3}),
				at(br1, 0, mach.Op{Kind: ir.Add, Type: ir.I32, Dst: ireg(20), A: R(ireg(10)), B: I(1)}),
				at(uALU1, 0, mach.Op{Kind: ir.Mov, Type: ir.I32, Dst: ireg(21), A: R(ireg(13))}),
			},
			stats: Stats{Ops: 3, Branches: 1},
			code:  TrapBadOp, unit: "br1", msg: "add on branch unit",
			flight: []mach.PReg{ireg(25)},
		},
	}
}

func TestMidBeatFaultLeavesLiteralCounters(t *testing.T) {
	for _, tc := range midFaults() {
		img := uopImage(t, tc.slots, 0)
		cert := &siteCert{img: img}
		m := New(img)
		for _, tier := range []Tier{TierChecked, TierSafe, TierNative} {
			// The third run on the native tier finds the word's region warm.
			runs := 1
			if tier == TierNative {
				runs = 3
			}
			var err error
			for range runs {
				m.Reset(img)
				switch tier {
				case TierSafe:
					err = m.UseSafeCertificate(cert)
				case TierNative:
					err = m.UseNativeCertificate(cert)
				}
				if err != nil {
					t.Fatal(err)
				}
				c := m.Contexts()[0]
				for r, v := range uopRegs {
					c.writeReg(r, v)
				}
				uopMem(c.mem)
				_, _, err = m.Run()
			}
			what := fmt.Sprintf("%s, %s tier", tc.name, tier)
			f, ok := err.(*Fault)
			if !ok {
				t.Errorf("%s: got %v, want a fault", what, err)
				continue
			}
			if f.Code != tc.code || f.Unit != tc.unit || f.Msg != tc.msg || f.PC != 0 {
				t.Errorf("%s: fault %v, want [%s] at word 0 on %s: %s", what, f, tc.code, tc.unit, tc.msg)
			}
			if tier == TierNative && m.regions.by[exitFault] != 1 {
				t.Errorf("%s: the fault was not raised inside a region", what)
			}
			got := m.Stats
			slot := Stats{Ops: got.Ops, FloatOps: got.FloatOps, MemRefs: got.MemRefs, Loads: got.Loads, Stores: got.Stores,
				SpecLoads: got.SpecLoads, SpecFaults: got.SpecFaults, Branches: got.Branches, Syscalls: got.Syscalls}
			if slot != tc.stats {
				t.Errorf("%s: counters\n  got  %+v\n  want %+v", what, slot, tc.stats)
			}
			var flight []mach.PReg
			for _, w := range m.Contexts()[0].inFlight() {
				flight = append(flight, w.dst)
				if w.pc != 0 || w.due <= f.Beat {
					t.Errorf("%s: write to %s in flight from word %d, due at beat %d of a fault at beat %d", what, w.dst, w.pc, w.due, f.Beat)
				}
			}
			if !slices.Equal(flight, tc.flight) {
				t.Errorf("%s: writes in flight to %v, want %v", what, flight, tc.flight)
			}
		}
	}
}

// A contained panic — a proven site driven wild after certification, caught by
// the Go runtime where the deleted guard stood — is attributed and counted as
// the guard's own fault would have been: the checked tier runs the same
// mutated image behind its guards, and the safe and native tiers' Fault must
// name the same word, beat and unit and leave the same counters. (The mutated
// site faults the first time it issues, on the per-word path of every tier.)
func TestContainedPanicNamesUnitAndCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kinds  []ir.OpKind
		b      int32
		code   TrapCode
		guard  string // the checked tier's text
		caught string // what the containment's text begins with
	}{
		{"load out of RAM", []ir.OpKind{ir.Load, ir.LoadSpec}, 1 << 30, TrapMemBounds, "bus error: load 0x", "bus error (safe tier containment): "},
		{"store out of RAM", []ir.OpKind{ir.Store}, 1 << 30, TrapMemBounds, "bus error: store 0x", "bus error (safe tier containment): "},
		{"divisor zeroed", []ir.OpKind{ir.Div, ir.Rem}, 0, TrapDivZero, "integer divide by zero", "integer divide by zero (safe tier containment)"},
	} {
		img, cert := buildSafeCertified(t)
		provenOp(t, img, cert, tc.kinds...).B = mach.ImmArg(tc.b)

		var want *Fault
		var wantStats Stats
		for _, tier := range []Tier{TierChecked, TierSafe, TierNative} {
			m := New(img)
			var err error
			switch tier {
			case TierSafe:
				err = m.UseSafeCertificate(cert)
			case TierNative:
				err = m.UseNativeCertificate(cert)
			}
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = m.Run()
			what := fmt.Sprintf("%s, %s tier", tc.name, tier)
			f, ok := err.(*Fault)
			if !ok || f.Code != tc.code {
				t.Fatalf("%s: got %v, want a %s fault", what, err, tc.code)
			}
			if tier == TierChecked {
				if want, wantStats = f, m.Stats; f.Unit == "" || !strings.HasPrefix(f.Msg, tc.guard) || wantStats.Ops == 0 {
					t.Fatalf("%s: %v with %+v: not the guard's fault", what, f, wantStats)
				}
				continue
			}
			if !strings.HasPrefix(f.Msg, tc.caught) {
				t.Errorf("%s: %v was not a contained panic", what, f)
			}
			if f.Unit != want.Unit || f.PC != want.PC || f.Beat != want.Beat {
				t.Errorf("%s: %v, want word=%d beat=%d unit=%s as on the checked tier", what, f, want.PC, want.Beat, want.Unit)
			}
			if m.Stats != wantStats {
				t.Errorf("%s: counters\n  got  %+v\n  want %+v", what, m.Stats, wantStats)
			}
		}
	}
}
