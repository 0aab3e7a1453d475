// Package tsched is the Trace Scheduling compacting code generator — the
// paper's core contribution (§4). It lowers IR functions to machine-level
// virtual operations, selects traces from profile estimates, compacts each
// trace into wide instructions with a resource-table list scheduler
// (speculating loads above splits with the §7 non-trapping opcodes, packing
// multiway branches with §6.5.2 priorities, and consulting the §6.4.2
// disambiguator before co-scheduling memory references), generates the
// compensation code that restores correctness on off-trace paths, and
// finally assigns physical registers in the partitioned banks of §6.
package tsched

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// VReg is a virtual machine register, mapped to a physical bank register by
// the allocator.
type VReg int32

// VNone is the absent register.
const VNone VReg = 0

// Class is a virtual register's bank class.
type Class uint8

const (
	ClassNone Class = iota
	ClassI          // integer bank (i32)
	ClassF          // floating bank (f64)
	ClassSF         // store file
	ClassB          // branch bank (1 bit)
)

func (c Class) String() string {
	switch c {
	case ClassI:
		return "I"
	case ClassF:
		return "F"
	case ClassSF:
		return "SF"
	case ClassB:
		return "B"
	}
	return "?"
}

// VArg is a machine operand before register allocation: a virtual register,
// an immediate, or a relocated symbol immediate.
type VArg struct {
	IsImm bool
	Imm   int32
	Sym   string // non-empty: immediate is the symbol's address (fixed at link)
	Reg   VReg
}

// VRegArg returns a register operand.
func VRegArg(r VReg) VArg { return VArg{Reg: r} }

// VImmArg returns an immediate operand.
func VImmArg(v int32) VArg { return VArg{IsImm: true, Imm: v} }

// VSymArg returns a symbol-address operand.
func VSymArg(sym string) VArg { return VArg{IsImm: true, Sym: sym} }

func (a VArg) String() string {
	if a.IsImm {
		if a.Sym != "" {
			return "@" + a.Sym
		}
		return fmt.Sprintf("#%d", a.Imm)
	}
	if a.Reg == VNone {
		return "_"
	}
	return fmt.Sprintf("t%d", a.Reg)
}

// VOp is a machine-level operation over virtual registers. Kinds reuse
// ir.OpKind plus the mach.Op* machine extensions.
type VOp struct {
	Kind ir.OpKind
	Type ir.Type
	Dst  VReg
	A    VArg
	B    VArg
	C    VArg    // SELECT third operand / store data
	ImmF float64 // ConstF payload
	Sym  string  // OpCall callee / OpSyscall service
	Spec bool

	// Control flow: T0 is the jump/taken target, T1 the BrT fallthrough
	// (both vblock IDs until emission).
	T0, T1 int
	Line   int
}

// Uses returns the virtual registers read by the op. It inlines, so the
// three-register buffer behind the result stays on the caller's stack.
func (o *VOp) Uses() []VReg {
	var buf [3]VReg
	return o.appendUses(buf[:0])
}

func (o *VOp) appendUses(u []VReg) []VReg {
	for _, a := range [...]*VArg{&o.A, &o.B, &o.C} {
		if !a.IsImm && a.Reg != VNone {
			u = append(u, a.Reg)
		}
	}
	return u
}

// IsTerm reports whether the op ends a vblock.
func (o *VOp) IsTerm() bool {
	switch o.Kind {
	case mach.OpJmp, mach.OpBrT, mach.OpJmpR, mach.OpHalt:
		return true
	}
	return false
}

// IsMem reports whether the op references data memory.
func (o *VOp) IsMem() bool {
	switch o.Kind {
	case ir.Load, ir.LoadSpec, ir.Store:
		return true
	}
	return false
}

func (o *VOp) String() string {
	s := mach.OpName(o.Kind)
	if o.Dst != VNone {
		s = fmt.Sprintf("t%d = %s", o.Dst, s)
	}
	switch o.Kind {
	case ir.ConstF:
		return fmt.Sprintf("%s %g", s, o.ImmF)
	case ir.Load, ir.LoadSpec:
		return fmt.Sprintf("%s.%s [%s+%s]", s, o.Type, o.A, o.B)
	case ir.Store:
		return fmt.Sprintf("%s.%s [%s+%s], %s", s, o.Type, o.A, o.B, o.C)
	case mach.OpJmp:
		return fmt.Sprintf("%s b%d", s, o.T0)
	case mach.OpBrT:
		return fmt.Sprintf("%s %s, b%d, b%d", s, o.A, o.T0, o.T1)
	case mach.OpCall:
		return fmt.Sprintf("%s @%s", s, o.Sym)
	case mach.OpSyscall:
		return fmt.Sprintf("%s @%s(%s)", s, o.Sym, o.A)
	case ir.Select:
		return fmt.Sprintf("%s %s, %s, %s", s, o.A, o.B, o.C)
	default:
		out := s
		if o.A.IsImm || o.A.Reg != VNone {
			out += " " + o.A.String()
		}
		if o.B.IsImm || o.B.Reg != VNone {
			out += ", " + o.B.String()
		}
		return out
	}
}

// VBlock is a machine-level basic block.
type VBlock struct {
	ID  int
	Ops []VOp
	// NoCompact marks call/syscall/prologue/epilogue blocks, which are
	// scheduled serially (each op its own instruction) rather than
	// compacted: they manipulate the calling convention's precolored
	// registers, whose ordering the trace machinery must not disturb.
	NoCompact bool
}

// Term returns the terminator, or nil if the block is malformed.
func (b *VBlock) Term() *VOp {
	if len(b.Ops) == 0 {
		return nil
	}
	t := &b.Ops[len(b.Ops)-1]
	if !t.IsTerm() {
		return nil
	}
	return t
}

// Succs returns successor vblock IDs.
func (b *VBlock) Succs() []int {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Kind {
	case mach.OpJmp:
		return []int{t.T0}
	case mach.OpBrT:
		return []int{t.T0, t.T1}
	}
	return nil // JmpR, Halt
}

// VFunc is a machine-level function before scheduling.
type VFunc struct {
	Name   string
	Blocks []*VBlock
	Frame  int64
	Leaf   bool

	classes  []Class
	types    []ir.Type
	precolor map[VReg]mach.PReg

	// Convention registers (precolored).
	SP, LR, RVI, RVF VReg
	ArgI, ArgF       []VReg
}

// NewReg allocates a fresh virtual register.
func (f *VFunc) NewReg(c Class, t ir.Type) VReg {
	f.classes = append(f.classes, c)
	f.types = append(f.types, t)
	return VReg(len(f.classes) - 1)
}

// dropReg gives back the register NewReg returned last, unused.
func (f *VFunc) dropReg(r VReg) {
	if int(r) != len(f.classes)-1 {
		panic(fmt.Sprintf("%s: dropReg(t%d) is not the newest of %d registers", f.Name, r, len(f.classes)))
	}
	f.classes = f.classes[:r]
	f.types = f.types[:r]
}

// Class returns r's bank class.
func (f *VFunc) Class(r VReg) Class {
	if r <= 0 || int(r) >= len(f.classes) {
		return ClassNone
	}
	return f.classes[r]
}

// TypeOf returns r's value type.
func (f *VFunc) TypeOf(r VReg) ir.Type {
	if r <= 0 || int(r) >= len(f.types) {
		return ir.Void
	}
	return f.types[r]
}

// NumRegs returns one past the highest virtual register.
func (f *VFunc) NumRegs() int { return len(f.classes) }

// Precolor returns the fixed physical register for r, if any.
func (f *VFunc) Precolor(r VReg) (mach.PReg, bool) {
	p, ok := f.precolor[r]
	return p, ok
}

// AddBlock appends an empty block.
func (f *VFunc) AddBlock() *VBlock {
	b := &VBlock{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Preds computes predecessor lists.
func (f *VFunc) Preds() [][]int {
	p := make([][]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			p[s] = append(p[s], b.ID)
		}
	}
	return p
}

func (f *VFunc) String() string {
	s := fmt.Sprintf("vfunc %s (frame %d, leaf %v)\n", f.Name, f.Frame, f.Leaf)
	for _, b := range f.Blocks {
		s += fmt.Sprintf("b%d:", b.ID)
		if b.NoCompact {
			s += " (nocompact)"
		}
		s += "\n"
		for i := range b.Ops {
			s += "\t" + b.Ops[i].String() + "\n"
		}
	}
	return s
}
