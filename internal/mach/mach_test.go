package mach

import (
	"math"
	"testing"
)

func TestConfigGeometry(t *testing.T) {
	for _, tc := range []struct {
		pairs, ops, bits int
	}{{1, 7, 256}, {2, 14, 512}, {4, 28, 1024}} {
		c := NewConfig(tc.pairs)
		if err := c.Validate(); err != nil {
			t.Fatalf("pairs=%d: %v", tc.pairs, err)
		}
		if c.OpsPerInstr() != tc.ops {
			t.Errorf("pairs=%d: ops/instr = %d, want %d", tc.pairs, c.OpsPerInstr(), tc.ops)
		}
		if c.InstrBits() != tc.bits {
			t.Errorf("pairs=%d: bits = %d, want %d", tc.pairs, c.InstrBits(), tc.bits)
		}
		if got := len(c.Units()); got != tc.pairs*5 {
			t.Errorf("pairs=%d: units = %d, want %d", tc.pairs, got, tc.pairs*5)
		}
	}
}

// TestPaperPeakNumbers checks §6.3's headline rates fall out of the model:
// 215 "VLIW MIPS", 60 MFLOPS, 492 MB/s for the 4-pair machine.
func TestPaperPeakNumbers(t *testing.T) {
	c := Trace28()
	if m := c.PeakMIPS(); math.Abs(m-215) > 1 {
		t.Errorf("peak MIPS = %.1f, paper says 215", m)
	}
	if m := c.PeakMFLOPS(); math.Abs(m-61.5) > 1 {
		t.Errorf("peak MFLOPS = %.1f, paper says ~60", m)
	}
	if bw := c.PeakMemBandwidth() / 1e6; math.Abs(bw-492) > 1 {
		t.Errorf("peak bandwidth = %.0f MB/s, paper says 492", bw)
	}
}

func TestBankInterleave(t *testing.T) {
	c := Trace28() // 8 controllers x 8 banks
	if c.Banks() != 64 {
		t.Fatalf("banks = %d, want 64", c.Banks())
	}
	// consecutive 64-bit words hit consecutive controllers
	seen := map[int]bool{}
	for w := int64(0); w < 8; w++ {
		ctrl, _ := c.BankOf(w * 8)
		seen[ctrl] = true
	}
	if len(seen) != 8 {
		t.Errorf("8 consecutive words hit %d controllers, want 8", len(seen))
	}
	// same controller repeats every Controllers words, advancing the bank
	c0a, b0a := c.BankOf(0)
	c0b, b0b := c.BankOf(8 * 8)
	if c0a != c0b {
		t.Errorf("stride-8-words addresses on different controllers")
	}
	if b0a == b0b {
		t.Errorf("stride-8-words addresses share a bank")
	}
	// two addresses in the same 64-bit word share a bank
	ca, ba := c.BankOf(16)
	cb, bb := c.BankOf(20)
	if ca != cb || ba != bb {
		t.Errorf("same-word addresses on different banks")
	}
}

func TestInvalidConfigs(t *testing.T) {
	for _, f := range []func() Config{
		func() Config { c := Trace7(); c.Pairs = 5; return c },
		func() Config { c := Trace7(); c.Controllers = 0; return c },
		func() Config { c := Trace7(); c.BanksPerController = 9; return c },
		func() Config { c := Trace7(); c.IRegsPerBank = 2; return c },
	} {
		if err := f().Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", f())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewConfig(3) did not panic")
		}
	}()
	NewConfig(3)
}

func TestOpStrings(t *testing.T) {
	o := Op{Kind: OpBrT, A: RegArg(PReg{BankB, 0, 3}), Target: 42, Prio: 1}
	if s := o.String(); s == "" {
		t.Error("empty op string")
	}
	in := Instr{Slots: []SlotOp{{Unit: Unit{UIALU, 0, 0}, Beat: 1, Op: o}}}
	if in.String() == "(nop)" {
		t.Error("non-empty instr prints as nop")
	}
	if in.Find(Unit{UIALU, 0, 0}, 1) == nil {
		t.Error("Find missed the slot")
	}
	if in.Find(Unit{UIALU, 0, 0}, 0) != nil {
		t.Error("Find matched wrong beat")
	}
	empty := Instr{}
	if empty.String() != "(nop)" {
		t.Error("empty instruction should print (nop)")
	}
}

func TestIdealConfig(t *testing.T) {
	c := IdealConfig(4)
	if !c.Ideal || c.OpsPerInstr() != 28 {
		t.Errorf("ideal config wrong: %+v", c)
	}
}

func TestPRegAndArgs(t *testing.T) {
	if RegSP.String() != "i0.1" {
		t.Errorf("SP prints as %s", RegSP)
	}
	if !RegSP.Valid() || (PReg{}).Valid() {
		t.Error("validity wrong")
	}
	if ImmArg(7).String() != "#7" || SymArg("g").String() != "@g" {
		t.Error("arg strings wrong")
	}
}

// TestRegIndexIsABijection: every register of every bank and board has its own
// index below RegFileSize — within a bank in board-then-index order, the order
// a snapshot lists them in — and RegAt gives the register back; nothing else
// has an index.
func TestRegIndexIsABijection(t *testing.T) {
	size := map[Bank]int{BankI: 64, BankF: 32, BankSF: 16, BankB: 8}
	seen := map[int]PReg{}
	for bank := BankI; bank <= BankB; bank++ {
		last := -1
		for board := 0; board < 4; board++ {
			for idx := 0; idx < size[bank]; idx++ {
				r := PReg{Bank: bank, Board: uint8(board), Idx: uint8(idx)}
				i, ok := RegIndex(r)
				if !ok || i != r.Index() || i < 0 || i >= RegFileSize {
					t.Fatalf("%s: RegIndex = %d, %v; Index = %d", r, i, ok, r.Index())
				}
				if other, dup := seen[i]; dup {
					t.Fatalf("%s and %s share index %d", other, r, i)
				}
				if i <= last {
					t.Fatalf("%s: index %d does not follow %d", r, i, last)
				}
				seen[i], last = r, i
				if back := RegAt(i); back != r {
					t.Fatalf("RegAt(%d) = %s, want %s", i, back, r)
				}
			}
		}
	}
	for i := -1; i <= RegFileSize; i++ {
		if _, ok := seen[i]; !ok && RegAt(i).Valid() {
			t.Errorf("RegAt(%d) = %s: no register has that index", i, RegAt(i))
		}
	}
	for _, r := range []PReg{
		{}, {Bank: BankNone, Idx: 3}, {Bank: BankB + 1}, {Bank: 200},
		{Bank: BankI, Board: 4}, {Bank: BankF, Board: 200},
		{Bank: BankI, Idx: 64}, {Bank: BankF, Idx: 32}, {Bank: BankSF, Idx: 16}, {Bank: BankB, Idx: 8},
	} {
		if i, ok := RegIndex(r); ok {
			t.Errorf("RegIndex(%#v) = %d, want a refusal", r, i)
		}
		if i := r.Index(); i < 0 || i >= RegFileSize {
			t.Errorf("%#v.Index() = %d: outside the value file", r, i)
		}
	}
}
