package schedcheck

import (
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file re-derives the machine's legality rules from mach.Config and
// the §6 architecture description, independently of the scheduler's
// resource tables (tsched/sched.go) and the simulator's execution model
// (vliw/exec.go). The three implementations must agree; schedcheck is the
// tiebreaker that can examine paths the simulator never executes.

// writeLatency is the pipeline depth of an op's register write in beats:
// the write retires at issue + writeLatency (§6.2: "the destination
// register is specified when the operation is initiated, and a hardware
// control pipeline carries the destination forward"). -1 means the op
// writes no register.
//
// This is deliberately not mach.Config.Latency: the verifier is the second
// implementation of the timing model, so a wrong latency there shows up as a
// disagreement here instead of being certified.
func writeLatency(cfg mach.Config, o *mach.Op) int {
	switch o.Kind {
	case ir.Load, ir.LoadSpec:
		return cfg.LatLoad
	case ir.FAdd, ir.FSub, ir.FNeg, ir.ItoF, ir.FtoI,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return cfg.LatFAdd
	case ir.FMul:
		return cfg.LatFMul
	case ir.FDiv:
		return cfg.LatFDiv
	case ir.Mul:
		return cfg.LatIMul
	case ir.Div, ir.Rem:
		return cfg.LatIDiv
	case ir.ConstF:
		return 2
	case ir.Mov, mach.OpMovSF:
		if o.Type == ir.F64 {
			return cfg.LatMove * 2
		}
		return cfg.LatMove
	case ir.Select:
		if o.Type == ir.F64 {
			return 2
		}
		return 1
	case mach.OpCall:
		return 1 // the link register receives the return address
	}
	return cfg.LatIALU
}

// readRegs collects the physical registers an op reads: every valid
// register operand (immediates and absent operands excluded) plus the
// implicit convention-register reads of HALT and SYSCALL.
func readRegs(o *mach.Op) []mach.PReg {
	var regs []mach.PReg
	for _, a := range []mach.Arg{o.A, o.B, o.C} {
		if !a.IsImm && a.Reg.Valid() {
			regs = append(regs, a.Reg)
		}
	}
	switch o.Kind {
	case mach.OpHalt:
		regs = append(regs, mach.RegRVI)
	case mach.OpSyscall:
		switch o.Sym {
		case "print_i":
			regs = append(regs, mach.PReg{Bank: mach.BankI, Board: 0, Idx: uint8(mach.ArgIBase)})
		case "print_f":
			regs = append(regs, mach.PReg{Bank: mach.BankF, Board: 0, Idx: uint8(mach.ArgFBase)})
		}
	}
	return regs
}

// portReads counts the register-file read ports an op consumes on its
// executing pair — the crossbar reads of its explicit operands. The
// convention-register reads of HALT/SYSCALL go through the runtime
// interface, not the crossbar, matching the machine's accounting.
func portReads(o *mach.Op) int {
	n := 0
	for _, a := range []mach.Arg{o.A, o.B, o.C} {
		if !a.IsImm && a.Reg.Valid() {
			n++
		}
	}
	return n
}

// isMem reports a memory reference (initiated on an I board, occupying the
// PA bus at issue+StagePA and a data bus at issue+StageData).
func isMem(k ir.OpKind) bool {
	return k == ir.Load || k == ir.LoadSpec || k == ir.Store
}

// isBranchKind reports a branch-unit opcode.
func isBranchKind(k ir.OpKind) bool {
	switch k {
	case mach.OpJmp, mach.OpBrT, mach.OpJmpR, mach.OpCall, mach.OpHalt, mach.OpSyscall:
		return true
	}
	return false
}

// legalOnUnit reports whether the opcode can execute on the unit kind.
// Dedicated units take only their own class; moves, selects, and float
// constants are flexible between the F units and (for integer-side data)
// the I ALUs. Memory references always initiate on an I board.
func legalOnUnit(u mach.UnitKind, k ir.OpKind) bool {
	switch u {
	case mach.UBR:
		return isBranchKind(k)
	case mach.UFA:
		switch k {
		case ir.FAdd, ir.FSub, ir.FNeg, ir.ItoF, ir.FtoI,
			ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE,
			ir.ConstF, ir.Mov, mach.OpMovSF, ir.Select, ir.Nop:
			return true
		}
		return false
	case mach.UFM:
		switch k {
		case ir.FMul, ir.FDiv, ir.ConstF, ir.Mov, mach.OpMovSF, ir.Select, ir.Nop:
			return true
		}
		return false
	case mach.UIALU:
		return !isBranchKind(k) && !isFloatArith(k)
	}
	return false
}

// isFloatArith reports the opcodes owned by the F units.
func isFloatArith(k ir.OpKind) bool {
	switch k {
	case ir.FAdd, ir.FSub, ir.FNeg, ir.ItoF, ir.FtoI,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE,
		ir.FMul, ir.FDiv, ir.ConstF:
		return true
	}
	return false
}

// Register index space: each board owns 64 I + 32 F + 16 SF + 8 B slots.
const (
	regsPerBoard = 64 + 32 + 16 + 8
	maxRegs      = 4 * regsPerBoard
)

// regIndex maps a physical register to a dense index, or -1 if invalid.
func regIndex(r mach.PReg) int {
	base := int(r.Board) * regsPerBoard
	switch r.Bank {
	case mach.BankI:
		if r.Idx >= 64 {
			return -1
		}
		return base + int(r.Idx)
	case mach.BankF:
		if r.Idx >= 32 {
			return -1
		}
		return base + 64 + int(r.Idx)
	case mach.BankSF:
		if r.Idx >= 16 {
			return -1
		}
		return base + 96 + int(r.Idx)
	case mach.BankB:
		if r.Idx >= 8 {
			return -1
		}
		return base + 112 + int(r.Idx)
	}
	return -1
}
