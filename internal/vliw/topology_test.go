package vliw

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/mach"
)

// TestTopology asserts the structural organization of Figures 2 and 4: the
// simulator's machine is built of I-F board pairs, each contributing two
// integer ALUs, a floating adder, a floating multiplier, and a branch unit;
// four buses of each kind; interleaved memory controllers each carrying
// eight banks.
func TestTopology(t *testing.T) {
	for _, pairs := range []int{1, 2, 4} {
		cfg := mach.NewConfig(pairs)
		units := cfg.Units()
		count := map[mach.UnitKind]int{}
		perPair := map[uint8]int{}
		for _, u := range units {
			count[u.Kind]++
			perPair[u.Pair]++
		}
		if count[mach.UIALU] != 2*pairs {
			t.Errorf("pairs=%d: %d integer ALUs, want %d", pairs, count[mach.UIALU], 2*pairs)
		}
		if count[mach.UFA] != pairs || count[mach.UFM] != pairs {
			t.Errorf("pairs=%d: FA/FM = %d/%d, want %d each", pairs, count[mach.UFA], count[mach.UFM], pairs)
		}
		if count[mach.UBR] != pairs {
			t.Errorf("pairs=%d: %d branch units, want %d", pairs, count[mach.UBR], pairs)
		}
		for p := 0; p < pairs; p++ {
			if perPair[uint8(p)] != 5 {
				t.Errorf("pairs=%d: pair %d has %d units, want 5", pairs, p, perPair[uint8(p)])
			}
		}
		if cfg.ILoadBuses != 4 || cfg.FLoadBuses != 4 || cfg.StoreBuses != 4 || cfg.PABuses != 4 {
			t.Errorf("pairs=%d: bus counts not 4/4/4/4", pairs)
		}
		if cfg.BanksPerController != 8 || cfg.Controllers > 8 {
			t.Errorf("pairs=%d: memory system %dx%d outside Figure 4's bounds",
				pairs, cfg.Controllers, cfg.BanksPerController)
		}
		// every bank is reachable by the interleave and distinct
		seen := map[[2]int]bool{}
		for w := int64(0); w < int64(cfg.Banks()); w++ {
			c, b := cfg.BankOf(w * 8)
			seen[[2]int{c, b}] = true
		}
		if len(seen) != cfg.Banks() {
			t.Errorf("pairs=%d: interleave covers %d of %d banks", pairs, len(seen), cfg.Banks())
		}
	}
}

// TestRegisterFileGeometry asserts §6's register-file shape: 64 32-bit
// integer registers per I board, 32 64-bit floating registers per F board,
// a store file, and the 7-element branch bank.
func TestRegisterFileGeometry(t *testing.T) {
	cfg := mach.Trace28()
	if cfg.IRegsPerBank != 64 || cfg.FRegsPerBank != 32 {
		t.Errorf("register banks %d/%d, want 64/32", cfg.IRegsPerBank, cfg.FRegsPerBank)
	}
	if cfg.BranchBank != 7 {
		t.Errorf("branch bank has %d elements, want 7 (§6.5.2)", cfg.BranchBank)
	}
	if cfg.RFReadPorts != 4 || cfg.RFWritePorts != 4 {
		t.Errorf("crossbar ports %dR/%dW, want 4/4 (§6)", cfg.RFReadPorts, cfg.RFWritePorts)
	}
}

// TestBankIDMatchesBankOf: the plan's shift/mask bank id agrees with
// mach.Config.BankOf on every geometry Validate admits, including the
// controller and bank counts that are not powers of two.
func TestBankIDMatchesBankOf(t *testing.T) {
	for ctrls := 1; ctrls <= 8; ctrls++ {
		for banks := 1; banks <= 8; banks++ {
			cfg := mach.Trace7()
			cfg.Controllers, cfg.BanksPerController = ctrls, banks
			g := geomOf(&cfg)
			for ea := int64(0); ea < 8*64*3; ea += 4 {
				ctrl, bank := cfg.BankOf(ea)
				if got, want := g.id(ea), int64(ctrl*8+bank); got != want {
					t.Fatalf("%d controllers x %d banks: id(%#x) = %d, BankOf gives %d", ctrls, banks, ea, got, want)
				}
			}
		}
	}
}
