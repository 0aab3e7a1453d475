// Package mach describes the TRACE machine to the rest of the system: the
// configuration parameters of §6 (board pairs, functional units, latencies,
// buses, register banks, interleaved memory), the machine operation and
// wide-instruction forms produced by the scheduler, and the resource
// vocabulary shared by the scheduler (which plans every beat statically) and
// the simulator (which verifies the plan, since the hardware has no
// interlocks).
package mach

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
)

// BeatNs is the minor cycle time: 65 ns (§6.1).
const BeatNs = 65

// BeatsPerInstr: each instruction executes in two beats (§6.1).
const BeatsPerInstr = 2

// Memory pipeline stage offsets in beats from reference issue (§6.4.1).
// The scheduler charges shared resources at these offsets and the simulator
// verifies the same accounting, so both sides see one timing model:
//
//	0: EA addition on the I board     4: RAM access continues
//	1: TLB lookup                     5: data grabbed on the controller
//	2: physical address on a PA bus   6: data crosses a load bus (ECC)
//	3: RAM bank starts cycling        7: register file write; value usable
const (
	StagePA    = 2 // physical-address bus occupied
	StageBank  = 3 // first beat of RAM bank busy window
	StageData  = 6 // load data on an ILoad/FLoad bus; store data on a Store bus
	StageWrite = 7 // destination register file write port
)

// Config is a TRACE machine configuration. The unit of processor expansion
// is the Integer-Floating board pair; 1, 2, or 4 pairs give 256-, 512-, or
// 1024-bit instruction words (§6).
type Config struct {
	Name  string
	Pairs int // 1, 2, or 4

	// Memory system (§6.3-6.4). Addresses interleave across controllers
	// then banks on 64-bit (8-byte) granules.
	Controllers        int // up to 8
	BanksPerController int // up to 8
	BankBusyBeats      int // RAM bank busy time after access: 4 beats

	// Latencies in beats (§6.1, §6.2, §6.4.1). A new op can start on a unit
	// every beat (IALUs) or every instruction (F units); divides occupy the
	// multiplier.
	LatIALU int // 1
	LatIMul int // 4: 32-bit multiply composed from the §6.1 16-bit primitives
	LatIDiv int // 30: no divide hardware; iterative op occupying its ALU (Div and Rem)
	LatFAdd int // 6 (64-bit mode)
	LatFMul int // 7
	LatFDiv int // 25 (multiplier busy throughout)
	LatLoad int // 7: EA→TLB→bus→bank(2)→grab→bus→regfile write
	LatMove int // 1 per 32 bits: cross-bank moves, store-file moves

	// Register files (§6).
	IRegsPerBank int // 64 32-bit registers per I board
	FRegsPerBank int // 32 64-bit registers per F board (64 x 32-bit in pairs)
	StoreFile    int // 64-bit-capable store-file entries per F board
	BranchBank   int // 1-bit branch-bank elements per pair: 7

	// Crossbar ports per board per beat (§6): "four writes, four reads".
	RFWritePorts int
	RFReadPorts  int

	// Buses (§6.3): four each of ILoad, FLoad, Store, and physical-address.
	ILoadBuses int
	FLoadBuses int
	StoreBuses int
	PABuses    int

	// Instruction cache (§6.5): 8K instructions, virtually addressed.
	ICacheInstrs int

	// Hardware contexts (§8.1). The paper sells near-instant context
	// switching; these knobs describe how many resident program contexts
	// the machine time-shares and what the scheduler charges for rotating
	// between them.
	//
	// Contexts is the number of resident hardware contexts (register
	// banks + PC + write pipelines). 0 or 1 means a conventional
	// single-program machine.
	Contexts int
	// CtxQuantum is the round-robin timeslice in beats: a context that
	// executes this many beats without halting or stalling is rotated out.
	// 0 selects DefaultCtxQuantum.
	CtxQuantum int
	// CtxSwitchBeats is the machine-clock cost of one context rotation.
	// The default 0 models the paper's claim that with per-context
	// register banks and tagged caches/TLBs a switch costs essentially
	// nothing; raise it to model state spill through the memory system.
	CtxSwitchBeats int

	// Ideal, when set, models the Figure-1 "ideal VLIW": one central
	// register file with unbounded ports and buses; only functional-unit
	// counts and latencies constrain the schedule. Used by experiment F1.
	Ideal bool

	// RollTheDice lets the scheduler co-schedule memory references whose
	// bank conflict is "maybe", relying on the hardware bank-stall
	// (§6.4.4). Off = conservative spacing.
	RollTheDice bool

	// SpeculativeLoads enables the special non-trapping LOAD opcodes (§7)
	// so loads can move above conditional branches.
	SpeculativeLoads bool

	// NoSpread disables the scheduler's board-spreading policy: every
	// operation is hinted to pair 0 instead of rotating unrolled loop
	// bodies across the pairs. An ablation knob for the §5 "data routing"
	// discussion — with spreading off, a multi-pair machine degenerates
	// toward a single cluster plus copy traffic.
	NoSpread bool

	// MultiwayBranch allows packing more than one branch test per
	// instruction with software priorities (§6.5.2). Off = at most one
	// branch per instruction.
	MultiwayBranch bool
}

// CheckPairs reports whether NewConfig builds a machine of this many I-F
// pairs: 1, 2, or 4.
func CheckPairs(pairs int) error {
	if pairs != 1 && pairs != 2 && pairs != 4 {
		return fmt.Errorf("mach: pairs must be 1, 2, or 4 (got %d)", pairs)
	}
	return nil
}

// NewConfig returns a TRACE with the given number of I-F pairs and all
// paper-standard parameters. It panics unless CheckPairs accepts pairs.
func NewConfig(pairs int) Config {
	if err := CheckPairs(pairs); err != nil {
		panic(err)
	}
	return Config{
		Name:  fmt.Sprintf("TRACE %d/200", pairs*7),
		Pairs: pairs,

		Controllers:        2 * pairs, // scale memory with CPU, max 8 (§6.3)
		BanksPerController: 8,
		BankBusyBeats:      4,

		LatIALU: 1,
		LatIMul: 4,
		LatIDiv: 30,
		LatFAdd: 6,
		LatFMul: 7,
		LatFDiv: 25,
		LatLoad: 7,
		LatMove: 1,

		IRegsPerBank: 64,
		FRegsPerBank: 32,
		StoreFile:    16,
		BranchBank:   7,

		RFWritePorts: 4,
		RFReadPorts:  4,

		ILoadBuses: 4,
		FLoadBuses: 4,
		StoreBuses: 4,
		PABuses:    4,

		ICacheInstrs: 8192,

		Contexts: 1,

		RollTheDice:      true,
		SpeculativeLoads: true,
		MultiwayBranch:   true,
	}
}

// Trace7 returns the 1-pair TRACE 7/200 configuration.
func Trace7() Config { return NewConfig(1) }

// Trace14 returns the 2-pair TRACE 14/200 configuration.
func Trace14() Config { return NewConfig(2) }

// Trace28 returns the 4-pair TRACE 28/200 configuration.
func Trace28() Config { return NewConfig(4) }

// IdealConfig returns the Figure-1 ideal VLIW with the same functional units
// as a real machine with the given pairs but a single central register file
// and unlimited ports and buses.
func IdealConfig(pairs int) Config {
	c := NewConfig(pairs)
	c.Name = fmt.Sprintf("Ideal VLIW (%d pairs)", pairs)
	c.Ideal = true
	return c
}

// OpsPerInstr returns the peak operations per instruction: per pair, 4
// integer ALU ops (2 ALUs x early/late beat), 2 floating ops, 1 branch test
// — 7, hence 28 at 4 pairs (§6.3).
func (c Config) OpsPerInstr() int { return c.Pairs * 7 }

// InstrBits returns the instruction word width in bits (§6: 256 per pair).
func (c Config) InstrBits() int { return c.Pairs * 256 }

// Banks returns the total number of independent RAM banks.
func (c Config) Banks() int { return c.Controllers * c.BanksPerController }

// BankOf returns (controller, bank) for a byte address: interleave is on
// 64-bit words, controllers first (§6.3).
func (c Config) BankOf(addr int64) (ctrl, bank int) {
	w := addr >> 3
	ctrl = int(w % int64(c.Controllers))
	bank = int((w / int64(c.Controllers)) % int64(c.BanksPerController))
	return ctrl, bank
}

// PeakMIPS returns the peak "VLIW MIPS": ops per instruction divided by the
// 130 ns instruction time. The paper quotes 215 for the 28-wide machine.
func (c Config) PeakMIPS() float64 {
	return float64(c.OpsPerInstr()) / (BeatsPerInstr * BeatNs * 1e-3)
}

// PeakMFLOPS returns peak floating ops/s: 2 per pair per instruction.
// The paper quotes 60 for four pairs.
func (c Config) PeakMFLOPS() float64 {
	return float64(2*c.Pairs) / (BeatsPerInstr * BeatNs * 1e-3)
}

// PeakMemBandwidth returns bytes/second with one 64-bit reference per I
// board per beat. The paper quotes 492 MB/s for four boards.
func (c Config) PeakMemBandwidth() float64 {
	return float64(c.Pairs*8) / (BeatNs * 1e-9)
}

// Latency returns how many beats after issue an operation's register write
// lands (§6.1, §6.2, §6.4.1). It is the one timing model: the scheduler
// plans with it, the simulator retires writes by it, and the baselines are
// built of the same technology, so the three cannot drift. (schedcheck keeps
// its own copy on purpose — it is the independent verifier.) The receiver is a
// pointer because the scheduler asks once per operand of every op it places
// and a Config is thirty words to copy.
func (c *Config) Latency(k ir.OpKind, t ir.Type) int {
	switch k {
	case ir.Load, ir.LoadSpec:
		return c.LatLoad
	case ir.Store, OpCall:
		return 1
	case ir.FAdd, ir.FSub, ir.FNeg, ir.ItoF, ir.FtoI,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return c.LatFAdd
	case ir.FMul:
		return c.LatFMul
	case ir.FDiv:
		return c.LatFDiv
	case ir.Mul:
		// 32-bit integer multiply is composed from the 16-bit primitives of
		// §6.1; modeled as one multi-beat op (see DESIGN.md substitutions)
		return c.LatIMul
	case ir.Div, ir.Rem:
		// no integer divide hardware; modeled as an iterative op
		return c.LatIDiv
	case ir.ConstF:
		return 2 // two 32-bit immediate halves
	case ir.Mov, OpMovSF:
		if t == ir.F64 {
			return c.LatMove * 2
		}
		return c.LatMove
	case ir.Select:
		if t == ir.F64 {
			return 2
		}
		return 1
	}
	return c.LatIALU
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.Pairs < 1 || c.Pairs > 4 {
		return fmt.Errorf("mach: %d pairs out of range", c.Pairs)
	}
	if c.Controllers < 1 || c.Controllers > 8 {
		return fmt.Errorf("mach: %d controllers out of range", c.Controllers)
	}
	if c.BanksPerController < 1 || c.BanksPerController > 8 {
		return fmt.Errorf("mach: %d banks/controller out of range", c.BanksPerController)
	}
	if c.IRegsPerBank < 8 || c.FRegsPerBank < 4 || c.StoreFile < 2 || c.BranchBank < 1 {
		return fmt.Errorf("mach: register file sizes too small")
	}
	if c.LatIMul < 1 || c.LatIDiv < 1 {
		return fmt.Errorf("mach: integer multiply/divide latencies must be positive")
	}
	if c.Contexts < 0 || c.Contexts > 255 {
		return fmt.Errorf("mach: %d hardware contexts out of range", c.Contexts)
	}
	if c.CtxQuantum < 0 || c.CtxSwitchBeats < 0 {
		return fmt.Errorf("mach: context quantum and switch cost must be non-negative")
	}
	return nil
}
