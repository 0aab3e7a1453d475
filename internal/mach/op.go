package mach

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
)

// Machine-level opcodes extend the IR op kinds: arithmetic, compares,
// SELECT, Load/LoadSpec/Store, Mov (which at machine level may move across
// banks via the buses and dest_bank field), and ConstF (materialized on an F
// unit over two beats) keep their IR kinds. Control and runtime interface
// ops below exist only at machine level.
const (
	// OpJmp is an unconditional PC-relative jump.
	OpJmp ir.OpKind = 64 + iota
	// OpBrT branches to Target if the selected branch-bank bit is true.
	// Multiple OpBrT in one instruction arbitrate by Prio (§6.5.2).
	OpBrT
	// OpJmpR jumps to the address in an integer register (returns).
	OpJmpR
	// OpCall writes the return address to its Dst (the link register by
	// convention) and jumps to Target.
	OpCall
	// OpMovSF moves a value into the store file on an F board (§6.2: store
	// data comes from the Store Register File).
	OpMovSF
	// OpSyscall invokes a runtime service (print_i / print_f) identified by
	// Imm, reading its argument from the convention register. It models the
	// kernel trap interface; timing is charged by the simulator.
	OpSyscall
	// OpHalt stops the machine; main's return value is in the convention
	// return register.
	OpHalt
)

func init() {
	// The machine opcodes are appended after the IR range; keep them
	// disjoint.
	if ir.CondBr >= 64 {
		panic("mach: ir.OpKind range collides with machine opcodes")
	}
}

// OpName returns a mnemonic for either an IR or machine-level opcode.
func OpName(k ir.OpKind) string {
	switch k {
	case OpJmp:
		return "jmp"
	case OpBrT:
		return "brt"
	case OpJmpR:
		return "jmpr"
	case OpCall:
		return "call"
	case OpMovSF:
		return "movsf"
	case OpSyscall:
		return "syscall"
	case OpHalt:
		return "halt"
	}
	return k.String()
}

// Bank identifies a physical register bank (the dest_bank field of §6.1).
type Bank uint8

const (
	BankNone Bank = iota
	BankI         // integer general registers (64 x 32-bit per I board)
	BankF         // floating registers (32 x 64-bit per F board)
	BankSF        // store file (per F board)
	BankB         // branch bank (7 x 1-bit per pair)
)

func (b Bank) String() string {
	switch b {
	case BankNone:
		return "-"
	case BankI:
		return "i"
	case BankF:
		return "f"
	case BankSF:
		return "sf"
	case BankB:
		return "bb"
	}
	return "?"
}

// PReg is a physical register: a bank, the board (pair index) holding it,
// and the index within the bank.
type PReg struct {
	Bank  Bank
	Board uint8
	Idx   uint8
}

// Valid reports whether the register names a real location.
func (r PReg) Valid() bool { return r.Bank != BankNone }

func (r PReg) String() string {
	if !r.Valid() {
		return "_"
	}
	return fmt.Sprintf("%s%d.%d", r.Bank, r.Board, r.Idx)
}

// The register file as one array. A register is a name fixed in the
// instruction word (§6.2), so it has one static index, and the index is the
// name's three fields side by side: 256 for each bank in turn — I at 0, F at
// 256, SF at 512, B at 768 — of which each of the four boards has 64, a board's
// registers from the low end (64 of bank I, 32 of F, 16 of SF, 8 of B; the rest
// name nothing). Everything below RegFileSize is a register or nothing; a
// simulator keeps its own scratch above it.
const RegFileSize = 1024

// boardRegs is how many registers one board's file of bank b holds.
func boardRegs(b Bank) int { return 128 >> b }

// Index is r's index in the value file. It is total — a name RegIndex refuses
// gets some index below RegFileSize — so that code which resolved its
// operands once need not check them again.
func (r PReg) Index() int {
	return (int(r.Bank-1)<<8 | int(r.Board)<<6 | int(r.Idx)) & (RegFileSize - 1)
}

// RegIndex is Index for a name that may not be a register: ok is false for
// BankNone, an unknown bank, a fifth board, or an index past the board's file.
func RegIndex(r PReg) (i int, ok bool) {
	if r.Bank < BankI || r.Bank > BankB || r.Board >= 4 || int(r.Idx) >= boardRegs(r.Bank) {
		return 0, false
	}
	return r.Index(), true
}

// RegAt is the register at index i of the value file, the inverse of Index;
// the zero PReg (which is not Valid) where i names none.
func RegAt(i int) PReg {
	r := PReg{Bank: Bank(i>>8) + 1, Board: uint8(i >> 6 & 3), Idx: uint8(i & 63)}
	if j, ok := RegIndex(r); !ok || j != i {
		return PReg{}
	}
	return r
}

// Calling convention: everything flows through board 0 (documented in
// DESIGN.md; the paper's machine has no architectural convention — it is the
// compiler's choice, §8.4).
var (
	RegSP    = PReg{BankI, 0, 1} // stack pointer
	RegLR    = PReg{BankI, 0, 2} // link register
	RegRVI   = PReg{BankI, 0, 3} // integer return value
	RegRVF   = PReg{BankF, 0, 1} // float return value
	ArgIBase = 4                 // integer args in i0.4..i0.11
	ArgFBase = 2                 // float args in f0.2..f0.9
	MaxArgs  = 8
)

// Arg is a machine operand: a register or an immediate (§6.1: each ALU can
// take a 6-, 17-, or 32-bit immediate on one operand leg).
type Arg struct {
	IsImm bool
	Imm   int32
	Reg   PReg
	// Sym, when non-empty on an immediate, is a relocation: the linker
	// replaces Imm with the symbol's address (globals) at link time.
	Sym string
}

// ImmArg returns an immediate operand.
func ImmArg(v int32) Arg { return Arg{IsImm: true, Imm: v} }

// RegArg returns a register operand.
func RegArg(r PReg) Arg { return Arg{Reg: r} }

// SymArg returns a relocated-immediate operand.
func SymArg(sym string) Arg { return Arg{IsImm: true, Sym: sym} }

func (a Arg) String() string {
	if a.IsImm {
		if a.Sym != "" {
			return "@" + a.Sym
		}
		return fmt.Sprintf("#%d", a.Imm)
	}
	return a.Reg.String()
}

// Op is one machine operation, fully physical: it names the banks and
// registers it touches. The encoder packs it into the Figure-3 fields; the
// simulator executes it.
type Op struct {
	Kind ir.OpKind // IR kind or machine extension above
	Type ir.Type   // element type for memory/moves/selects
	Dst  PReg
	A, B Arg
	C    Arg     // SELECT's third operand
	FImm float64 // ConstF payload
	Spec bool    // retained on LoadSpec for disassembly clarity

	// Branch fields. Before linking, Target is an instruction index within
	// the function; after linking it is an absolute instruction address.
	Target int
	Prio   int // multiway-branch priority: lower wins (§6.5.2)

	// Sym carries the callee name (OpCall) or service (OpSyscall via Imm in
	// A) before linking.
	Sym string
}

func (o *Op) String() string {
	s := OpName(o.Kind)
	if o.Dst.Valid() {
		s = o.Dst.String() + " = " + s
	}
	switch o.Kind {
	case ir.ConstF:
		return fmt.Sprintf("%s %g", s, o.FImm)
	case ir.Load, ir.LoadSpec:
		return fmt.Sprintf("%s.%s [%s+%s]", s, o.Type, o.A, o.B)
	case ir.Store:
		return fmt.Sprintf("%s.%s [%s+%s], %s", OpName(o.Kind), o.Type, o.A, o.B, o.C)
	case OpJmp, OpCall:
		return fmt.Sprintf("%s %d %s", s, o.Target, o.Sym)
	case OpBrT:
		return fmt.Sprintf("%s %s, %d (prio %d)", s, o.A, o.Target, o.Prio)
	case ir.Select:
		return fmt.Sprintf("%s %s, %s, %s", s, o.A, o.B, o.C)
	default:
		out := s
		if o.A.IsImm || o.A.Reg.Valid() {
			out += " " + o.A.String()
		}
		if o.B.IsImm || o.B.Reg.Valid() {
			out += ", " + o.B.String()
		}
		return out
	}
}

// UnitKind classifies functional units.
type UnitKind uint8

const (
	UnitNone UnitKind = iota
	UIALU             // integer ALU on an I board (2 per board, early+late beats)
	UFA               // floating adder / ALU-A on an F board
	UFM               // floating multiplier/divider / ALU-M on an F board
	UBR               // branch unit on an I board (one test per instruction)
)

func (k UnitKind) String() string {
	switch k {
	case UIALU:
		return "ialu"
	case UFA:
		return "fa"
	case UFM:
		return "fm"
	case UBR:
		return "br"
	}
	return "?"
}

// Unit names a functional unit instance.
type Unit struct {
	Kind UnitKind
	Pair uint8 // board pair
	Idx  uint8 // IALU 0/1 within the board
}

func (u Unit) String() string {
	if u.Kind == UIALU {
		return fmt.Sprintf("%s%d.%d", u.Kind, u.Pair, u.Idx)
	}
	return fmt.Sprintf("%s%d", u.Kind, u.Pair)
}

// SlotOp is an op placed in a specific unit and beat of an instruction.
type SlotOp struct {
	Unit Unit
	Beat uint8 // 0 = early, 1 = late; F units and branches always 0
	Op   Op
}

// Instr is one wide instruction: up to OpsPerInstr slot ops, all initiated
// in the same instruction, with no two occupying the same (unit, beat).
type Instr struct {
	Slots []SlotOp
}

// Find returns the slot op at (unit, beat), or nil.
func (in *Instr) Find(u Unit, beat uint8) *SlotOp {
	for i := range in.Slots {
		if in.Slots[i].Unit == u && in.Slots[i].Beat == beat {
			return &in.Slots[i]
		}
	}
	return nil
}

func (in *Instr) String() string {
	if len(in.Slots) == 0 {
		return "(nop)"
	}
	s := ""
	for i := range in.Slots {
		if i > 0 {
			s += " ; "
		}
		so := &in.Slots[i]
		s += fmt.Sprintf("%s/%d: %s", so.Unit, so.Beat, so.Op.String())
	}
	return s
}

// Units enumerates every functional unit in the configuration.
func (c Config) Units() []Unit {
	var us []Unit
	for p := 0; p < c.Pairs; p++ {
		us = append(us,
			Unit{UIALU, uint8(p), 0},
			Unit{UIALU, uint8(p), 1},
			Unit{UFA, uint8(p), 0},
			Unit{UFM, uint8(p), 0},
			Unit{UBR, uint8(p), 0},
		)
	}
	return us
}
