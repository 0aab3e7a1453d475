package ir

// Builder provides a convenient way to construct IR by appending ops to a
// current block. The frontend lowering and many tests use it.
type Builder struct {
	F   *Func
	Cur *Block
	// Line is the source line every op emitted from now on carries.
	Line int
}

// NewBuilder returns a builder positioned at f's entry block.
func NewBuilder(f *Func) *Builder {
	return &Builder{F: f, Cur: f.Entry()}
}

// SetBlock moves the insertion point to b.
func (b *Builder) SetBlock(blk *Block) { b.Cur = blk }

// NewBlock creates a block (without moving the insertion point).
func (b *Builder) NewBlock() *Block { return b.F.AddBlock() }

// Emit appends op to the current block, at the current source line.
func (b *Builder) Emit(op Op) {
	op.Line = b.Line
	b.Cur.Ops = append(b.Cur.Ops, op)
}

// ConstI emits an integer constant and returns its register.
func (b *Builder) ConstI(v int64) Reg {
	r := b.F.NewReg(I32)
	b.Emit(Op{Kind: ConstI, Type: I32, Dst: r, ImmI: v})
	return r
}

// ConstF emits a float constant and returns its register.
func (b *Builder) ConstF(v float64) Reg {
	r := b.F.NewReg(F64)
	b.Emit(Op{Kind: ConstF, Type: F64, Dst: r, ImmF: v})
	return r
}

// Bin emits a binary op of the given kind and result type.
func (b *Builder) Bin(k OpKind, t Type, x, y Reg) Reg {
	r := b.F.NewReg(t)
	b.Emit(Op{Kind: k, Type: t, Dst: r, Args: []Reg{x, y}})
	return r
}

// Un emits a unary op.
func (b *Builder) Un(k OpKind, t Type, x Reg) Reg {
	r := b.F.NewReg(t)
	b.Emit(Op{Kind: k, Type: t, Dst: r, Args: []Reg{x}})
	return r
}

// Mov emits a move.
func (b *Builder) Mov(t Type, x Reg) Reg { return b.Un(Mov, t, x) }

// Load emits a load of element type t from [addr+off].
func (b *Builder) Load(t Type, addr Reg, off int64) Reg {
	r := b.F.NewReg(t)
	b.Emit(Op{Kind: Load, Type: t, Dst: r, Args: []Reg{addr}, ImmI: off})
	return r
}

// Store emits a store of val (type t) to [addr+off].
func (b *Builder) Store(t Type, addr Reg, off int64, val Reg) {
	b.Emit(Op{Kind: Store, Type: t, Args: []Reg{addr, val}, ImmI: off})
}

// GAddr emits an address-of-global.
func (b *Builder) GAddr(name string) Reg {
	r := b.F.NewReg(I32)
	b.Emit(Op{Kind: GAddr, Type: I32, Dst: r, Sym: name})
	return r
}

// FrAddr emits an address-of-frame-slot.
func (b *Builder) FrAddr(off int64) Reg {
	r := b.F.NewReg(I32)
	b.Emit(Op{Kind: FrAddr, Type: I32, Dst: r, ImmI: off})
	return r
}

// Call emits a call; dst is None for void callees.
func (b *Builder) Call(name string, ret Type, args ...Reg) Reg {
	var dst Reg
	if ret != Void {
		dst = b.F.NewReg(ret)
	}
	b.Emit(Op{Kind: Call, Type: ret, Dst: dst, Sym: name, Args: args})
	return dst
}

// Ret emits a return.
func (b *Builder) Ret(v Reg) {
	if v == None {
		b.Emit(Op{Kind: Ret})
	} else {
		b.Emit(Op{Kind: Ret, Args: []Reg{v}})
	}
}

// Br emits an unconditional branch to t.
func (b *Builder) Br(t *Block) { b.Emit(Op{Kind: Br, T0: t.ID}) }

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Reg, then, els *Block) {
	b.Emit(Op{Kind: CondBr, Args: []Reg{cond}, T0: then.ID, T1: els.ID})
}
