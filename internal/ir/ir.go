// Package ir defines the compiler's intermediate representation: typed
// three-address operations over virtual registers, grouped into basic blocks
// that form a control-flow graph. The trace scheduler consumes this IR; the
// reference interpreter executes it directly and serves as ground truth for
// differential testing against the VLIW simulator.
package ir

import (
	"fmt"
	"strings"
)

// Type is the element type of a register or memory reference. The TRACE is a
// 32-bit-integer / 64-bit-float machine (§6.1, §6.2 of the paper), so the IR
// carries exactly those two value types.
type Type uint8

const (
	Void Type = iota
	I32       // 32-bit two's-complement integer
	F64       // IEEE 754 double
)

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case I32:
		return "i32"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Size returns the size in bytes of a value of this type in memory.
func (t Type) Size() int64 {
	switch t {
	case I32:
		return 4
	case F64:
		return 8
	}
	return 0
}

// Reg names a virtual register. Register 0 ("none") is never defined or used;
// the lowering pass allocates registers from 1 upward. Virtual registers are
// unbounded; the trace scheduler's bank allocator maps them onto the
// machine's physical I/F/store/branch banks.
type Reg int32

// None is the zero Reg, used where an operand or destination is absent.
const None Reg = 0

func (r Reg) String() string {
	if r == None {
		return "_"
	}
	return fmt.Sprintf("v%d", int32(r))
}

// OpKind enumerates IR operations. The set mirrors the TRACE integer and
// floating repertoires (§6.1, §6.2): three-address arithmetic, compare
// predicates that write registers (no condition codes), SELECT (the C "?"
// operator without branching), explicit loads/stores, and the special
// non-trapping speculative load of §7.
type OpKind uint8

const (
	Nop OpKind = iota

	// Constants and moves.
	ConstI // Dst = ImmI
	ConstF // Dst = ImmF
	Mov    // Dst = Args[0], type Type

	// Integer arithmetic and logic (i32).
	Add
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl // shift left, Args[1] amount
	Shr // logical shift right
	Sra // arithmetic shift right
	Neg
	Not

	// Integer compare predicates: Dst(i32) = Args[0] ⊕ Args[1] ? 1 : 0.
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	// Floating arithmetic (f64).
	FAdd
	FSub
	FMul
	FDiv
	FNeg

	// Floating compare predicates (i32 result).
	FCmpEQ
	FCmpNE
	FCmpLT
	FCmpLE
	FCmpGT
	FCmpGE

	// Conversions.
	ItoF // Dst(f64) = float(Args[0])
	FtoI // Dst(i32) = trunc(Args[0])

	// Select: Dst = Args[0] != 0 ? Args[1] : Args[2]; element type in Type.
	Select

	// Memory. Effective address = Args[0] + ImmI (byte address).
	Load     // Dst(Type) = mem[ea]
	LoadSpec // speculative, non-trapping load (§7): invalid address yields a "funny number" instead of a fault
	Store    // mem[ea] = Args[1] (element type in Type)

	// Address formation.
	GAddr  // Dst(i32) = address of global Sym
	FrAddr // Dst(i32) = frame pointer + ImmI

	// Calls. Dst optional; callee named by Sym; Args passed in order.
	Call

	// Terminators. Every block ends with exactly one of these.
	Ret    // return Args[0] if present
	Br     // unconditional jump to T0
	CondBr // if Args[0] != 0 goto T0 else T1
)

var opNames = [...]string{
	Nop: "nop", ConstI: "consti", ConstF: "constf", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Sra: "sra",
	Neg: "neg", Not: "not",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	FCmpEQ: "fcmpeq", FCmpNE: "fcmpne", FCmpLT: "fcmplt", FCmpLE: "fcmple",
	FCmpGT: "fcmpgt", FCmpGE: "fcmpge",
	ItoF: "itof", FtoI: "ftoi", Select: "select",
	Load: "load", LoadSpec: "loadspec", Store: "store",
	GAddr: "gaddr", FrAddr: "fraddr",
	Call: "call", Ret: "ret", Br: "br", CondBr: "condbr",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) && opNames[k] != "" {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// IsTerminator reports whether the op ends a basic block.
func (k OpKind) IsTerminator() bool {
	return k == Ret || k == Br || k == CondBr
}

// IsCompare reports whether the op is an integer or floating compare
// predicate (result is a 0/1 i32 that the TRACE would hold in a branch bank).
func (k OpKind) IsCompare() bool {
	return (k >= CmpEQ && k <= CmpGE) || (k >= FCmpEQ && k <= FCmpGE)
}

// HasSideEffect reports whether the op cannot be removed even if its result
// is dead.
func (k OpKind) HasSideEffect() bool {
	switch k {
	case Store, Call, Ret, Br, CondBr:
		return true
	}
	return false
}

// Op is a single IR operation.
type Op struct {
	Kind OpKind
	Type Type    // element/result type where relevant
	Dst  Reg     // destination, None if the op produces no value
	Args []Reg   // operands
	ImmI int64   // integer immediate / address offset
	ImmF float64 // float immediate
	Sym  string  // global or callee name
	T0   int     // branch target (block ID); CondBr true target
	T1   int     // CondBr false target
	Line int     // source line, 0 if unknown
}

// Clone returns a deep copy of the op (Args slice is copied).
func (o *Op) Clone() Op {
	c := *o
	c.Args = append([]Reg(nil), o.Args...)
	return c
}

func (o *Op) String() string {
	var b strings.Builder
	if o.Dst != None {
		fmt.Fprintf(&b, "%s = ", o.Dst)
	}
	b.WriteString(o.Kind.String())
	if o.Type != Void {
		fmt.Fprintf(&b, ".%s", o.Type)
	}
	switch o.Kind {
	case ConstI:
		fmt.Fprintf(&b, " %d", o.ImmI)
	case ConstF:
		fmt.Fprintf(&b, " %g", o.ImmF)
	case GAddr:
		fmt.Fprintf(&b, " @%s", o.Sym)
	case FrAddr:
		fmt.Fprintf(&b, " fp+%d", o.ImmI)
	case Load, LoadSpec:
		fmt.Fprintf(&b, " [%s+%d]", o.Args[0], o.ImmI)
	case Store:
		fmt.Fprintf(&b, " [%s+%d], %s", o.Args[0], o.ImmI, o.Args[1])
	case Call:
		fmt.Fprintf(&b, " @%s(", o.Sym)
		for i, a := range o.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	case Br:
		fmt.Fprintf(&b, " b%d", o.T0)
	case CondBr:
		fmt.Fprintf(&b, " %s, b%d, b%d", o.Args[0], o.T0, o.T1)
	default:
		for i, a := range o.Args {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + a.String())
		}
	}
	return b.String()
}

// Block is a basic block: a maximal straight-line op sequence ending in a
// terminator.
type Block struct {
	ID  int
	Ops []Op
}

// Term returns the block's terminator op, or nil if the block is malformed.
func (b *Block) Term() *Op {
	if len(b.Ops) == 0 {
		return nil
	}
	t := &b.Ops[len(b.Ops)-1]
	if !t.Kind.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the IDs of the block's successors in CFG order.
func (b *Block) Succs() []int {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Kind {
	case Br:
		return []int{t.T0}
	case CondBr:
		return []int{t.T0, t.T1}
	}
	return nil
}

// Param describes a function parameter: the virtual register it arrives in
// and its type.
type Param struct {
	Reg  Reg
	Type Type
}

// Func is a single function: a CFG of blocks plus register metadata.
// Blocks[i].ID == i always holds (use RemoveBlock/renumber helpers to keep
// the invariant when editing).
type Func struct {
	Name      string
	Params    []Param
	Ret       Type
	Blocks    []*Block
	regType   []Type // indexed by Reg; regType[0] unused
	FrameSize int64  // bytes of stack frame (locals, arrays, spills)
}

// NewFunc returns an empty function with an entry block.
func NewFunc(name string, ret Type) *Func {
	f := &Func{Name: name, Ret: ret, regType: make([]Type, 1)}
	f.AddBlock()
	return f
}

// NewReg allocates a fresh virtual register of type t.
func (f *Func) NewReg(t Type) Reg {
	f.regType = append(f.regType, t)
	return Reg(len(f.regType) - 1)
}

// RegType returns the type of virtual register r.
func (f *Func) RegType(r Reg) Type {
	if r <= 0 || int(r) >= len(f.regType) {
		return Void
	}
	return f.regType[r]
}

// NumRegs returns one past the highest allocated virtual register.
func (f *Func) NumRegs() int { return len(f.regType) }

// AddBlock appends a new empty block and returns it.
func (f *Func) AddBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Preds computes the predecessor lists for all blocks.
func (f *Func) Preds() [][]int {
	preds := make([][]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	return preds
}

func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", p.Reg, p.Type)
	}
	fmt.Fprintf(&b, ") %s  // frame=%d\n", f.Ret, f.FrameSize)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", blk.ID)
		for i := range blk.Ops {
			fmt.Fprintf(&b, "\t%s\n", blk.Ops[i].String())
		}
	}
	return b.String()
}

// Global is a statically allocated array or scalar. Init data, if present,
// must not exceed Size bytes.
type Global struct {
	Name  string
	Elem  Type
	Count int64 // number of elements
	InitI []int64
	InitF []float64
}

// Size returns the global's size in bytes.
func (g *Global) Size() int64 { return g.Elem.Size() * g.Count }

// Program is a whole compilation unit.
type Program struct {
	Funcs   []*Func
	Globals []*Global
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (p *Program) Global(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddFunc appends f to the program.
func (p *Program) AddFunc(f *Func) { p.Funcs = append(p.Funcs, f) }

func (p *Program) String() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s [%d]%s\n", g.Name, g.Count, g.Elem)
	}
	for _, f := range p.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}

// Builtins are callees handled by the runtime rather than compiled code:
// print_i prints an i32 and newline; print_f prints an f64 and newline.
var Builtins = map[string]struct {
	Params []Type
	Ret    Type
}{
	"print_i": {Params: []Type{I32}, Ret: Void},
	"print_f": {Params: []Type{F64}, Ret: Void},
}

// IsBuiltin reports whether name is a runtime builtin.
func IsBuiltin(name string) bool {
	_, ok := Builtins[name]
	return ok
}
