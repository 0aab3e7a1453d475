package tsched

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// LowerFunc lowers an IR function to machine-level virtual ops: explicit
// calling convention, store-file moves for stores, immediate folding into
// operand legs, branch-bank compares, prologue/epilogue, and caller-save
// spills around calls. The returned VFunc's blocks 1..len(f.Blocks) mirror
// the IR blocks 0..N-1 (block 0 is the prologue), so profile edge weights
// carry over by adding one to each ID.
//
// The convention's moves are ordinary compactable ops: the prologue is a
// block like any other (the head of the function's first trace), argument
// moves end the block that jumps to a call, the return-value move opens the
// call's continuation, and the return moves, link reload and stack release
// end the block that jumps to the return. Only the transfer itself — call,
// syscall, jmpr or halt — sits in a NoCompact block of its own, which the
// trace scheduler ends the jumping trace with.
//
// LowerFunc modifies f (it inserts spill code); the driver compiles from a
// private copy of the program.
func LowerFunc(p *ir.Program, f *ir.Func, isMain bool) (*VFunc, error) {
	insertCallSpills(f)

	lw := &vlower{
		irf:    f,
		isMain: isMain,
		vf: &VFunc{
			Name:     f.Name,
			precolor: map[VReg]mach.PReg{},
		},
	}
	vf := lw.vf
	// vreg 0 = none; mirror IR registers 1..N.
	vf.classes = make([]Class, f.NumRegs())
	vf.types = make([]ir.Type, f.NumRegs())
	for r := 1; r < f.NumRegs(); r++ {
		switch f.RegType(ir.Reg(r)) {
		case ir.I32:
			vf.classes[r] = ClassI
			vf.types[r] = ir.I32
		case ir.F64:
			vf.classes[r] = ClassF
			vf.types[r] = ir.F64
		}
	}
	// Convention registers.
	vf.SP = vf.NewReg(ClassI, ir.I32)
	vf.precolor[vf.SP] = mach.RegSP
	vf.LR = vf.NewReg(ClassI, ir.I32)
	vf.precolor[vf.LR] = mach.RegLR
	vf.RVI = vf.NewReg(ClassI, ir.I32)
	vf.precolor[vf.RVI] = mach.RegRVI
	vf.RVF = vf.NewReg(ClassF, ir.F64)
	vf.precolor[vf.RVF] = mach.RegRVF
	for i := 0; i < mach.MaxArgs; i++ {
		ai := vf.NewReg(ClassI, ir.I32)
		vf.precolor[ai] = mach.PReg{Bank: mach.BankI, Board: 0, Idx: uint8(mach.ArgIBase + i)}
		vf.ArgI = append(vf.ArgI, ai)
		af := vf.NewReg(ClassF, ir.F64)
		vf.precolor[af] = mach.PReg{Bank: mach.BankF, Board: 0, Idx: uint8(mach.ArgFBase + i)}
		vf.ArgF = append(vf.ArgF, af)
	}

	// Leaf = no non-builtin calls.
	vf.Leaf = true
	for _, b := range f.Blocks {
		for i := range b.Ops {
			if b.Ops[i].Kind == ir.Call && !ir.IsBuiltin(b.Ops[i].Sym) {
				vf.Leaf = false
			}
		}
	}
	// Frame: IR frame + 8 bytes for the saved link register if non-leaf.
	vf.Frame = (f.FrameSize + 7) &^ 7
	if !vf.Leaf {
		vf.Frame += 8
	}

	// Block 0: prologue. Blocks 1..N: IR blocks.
	pro := vf.AddBlock()
	for range f.Blocks {
		vf.AddBlock()
	}
	lw.irUses = countIRUses(f)

	// Prologue body.
	if vf.Frame != 0 {
		pro.Ops = append(pro.Ops, VOp{Kind: ir.Add, Type: ir.I32, Dst: vf.SP,
			A: VRegArg(vf.SP), B: VImmArg(int32(-vf.Frame))})
	}
	if !vf.Leaf {
		sf := vf.NewReg(ClassSF, ir.I32)
		pro.Ops = append(pro.Ops,
			VOp{Kind: mach.OpMovSF, Type: ir.I32, Dst: sf, A: VRegArg(vf.LR)},
			VOp{Kind: ir.Store, Type: ir.I32, A: VRegArg(vf.SP), B: VImmArg(int32(vf.Frame - 8)), C: VRegArg(sf)})
	}
	nInt, nFlt := 0, 0
	for _, prm := range f.Params {
		if prm.Type == ir.F64 {
			if nFlt >= mach.MaxArgs {
				return nil, fmt.Errorf("%s: too many float parameters", f.Name)
			}
			pro.Ops = append(pro.Ops, VOp{Kind: ir.Mov, Type: ir.F64,
				Dst: VReg(prm.Reg), A: VRegArg(vf.ArgF[nFlt])})
			nFlt++
		} else {
			if nInt >= mach.MaxArgs {
				return nil, fmt.Errorf("%s: too many int parameters", f.Name)
			}
			pro.Ops = append(pro.Ops, VOp{Kind: ir.Mov, Type: ir.I32,
				Dst: VReg(prm.Reg), A: VRegArg(vf.ArgI[nInt])})
			nInt++
		}
	}
	pro.Ops = append(pro.Ops, VOp{Kind: mach.OpJmp, T0: 1})

	for _, b := range f.Blocks {
		if err := lw.lowerBlock(b); err != nil {
			return nil, err
		}
	}
	sweepDeadVOps(vf)
	return vf, nil
}

// countIRUses counts operand uses of each IR register across the function.
func countIRUses(f *ir.Func) []int {
	uses := make([]int, f.NumRegs())
	for _, b := range f.Blocks {
		for i := range b.Ops {
			for _, a := range b.Ops[i].Args {
				uses[a]++
			}
		}
	}
	return uses
}

type vlower struct {
	irf    *ir.Func
	vf     *VFunc
	isMain bool
	irUses []int

	cur    *VBlock
	consts map[ir.Reg]int64 // block-local known constants
}

func (lw *vlower) emit(op VOp) { lw.cur.Ops = append(lw.cur.Ops, op) }

// irToV maps an IR block ID to its entry vblock ID.
func irToV(id int) int { return id + 1 }

func (lw *vlower) lowerBlock(b *ir.Block) error {
	lw.cur = lw.vf.Blocks[irToV(b.ID)]
	lw.consts = map[ir.Reg]int64{}
	for i := range b.Ops {
		if err := lw.lowerOp(b, i); err != nil {
			return err
		}
	}
	return nil
}

// argOf returns the operand for IR register r, folding a block-local
// constant into an immediate when allowed.
func (lw *vlower) argOf(r ir.Reg, allowImm bool) VArg {
	if allowImm {
		if v, ok := lw.consts[r]; ok {
			return VImmArg(int32(v))
		}
	}
	return VRegArg(VReg(r))
}

var swapCmp = map[ir.OpKind]ir.OpKind{
	ir.CmpEQ: ir.CmpEQ, ir.CmpNE: ir.CmpNE,
	ir.CmpLT: ir.CmpGT, ir.CmpGT: ir.CmpLT,
	ir.CmpLE: ir.CmpGE, ir.CmpGE: ir.CmpLE,
}

func commutative(k ir.OpKind) bool {
	switch k {
	case ir.Add, ir.Mul, ir.And, ir.Or, ir.Xor:
		return true
	}
	return false
}

func (lw *vlower) lowerOp(b *ir.Block, idx int) error {
	o := &b.Ops[idx]
	vf := lw.vf
	switch o.Kind {
	case ir.Nop:
	case ir.ConstI:
		lw.consts[o.Dst] = o.ImmI
		lw.emit(VOp{Kind: ir.ConstI, Type: ir.I32, Dst: VReg(o.Dst), A: VImmArg(int32(o.ImmI)), Line: o.Line})
	case ir.ConstF:
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: ir.ConstF, Type: ir.F64, Dst: VReg(o.Dst), ImmF: o.ImmF, Line: o.Line})
	case ir.GAddr:
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: ir.ConstI, Type: ir.I32, Dst: VReg(o.Dst), A: VSymArg(o.Sym), Line: o.Line})
	case ir.FrAddr:
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: ir.Add, Type: ir.I32, Dst: VReg(o.Dst),
			A: VRegArg(vf.SP), B: VImmArg(int32(o.ImmI)), Line: o.Line})
	case ir.Mov:
		delete(lw.consts, o.Dst)
		if v, ok := lw.consts[o.Args[0]]; ok && o.Type == ir.I32 {
			lw.consts[o.Dst] = v
			lw.emit(VOp{Kind: ir.ConstI, Type: ir.I32, Dst: VReg(o.Dst), A: VImmArg(int32(v)), Line: o.Line})
			break
		}
		lw.emit(VOp{Kind: ir.Mov, Type: o.Type, Dst: VReg(o.Dst), A: VRegArg(VReg(o.Args[0])), Line: o.Line})

	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.Sra,
		ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		delete(lw.consts, o.Dst)
		kind := o.Kind
		a, bb := o.Args[0], o.Args[1]
		_, aConst := lw.consts[a]
		_, bConst := lw.consts[bb]
		if aConst && !bConst {
			if commutative(kind) {
				a, bb = bb, a
			} else if nk, ok := swapCmp[kind]; ok {
				kind = nk
				a, bb = bb, a
			}
		}
		lw.emit(VOp{Kind: kind, Type: ir.I32, Dst: VReg(o.Dst),
			A: lw.argOf(a, false), B: lw.argOf(bb, true), Line: o.Line})

	case ir.Neg, ir.Not:
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: o.Kind, Type: ir.I32, Dst: VReg(o.Dst),
			A: VRegArg(VReg(o.Args[0])), Line: o.Line})

	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: o.Kind, Type: ir.F64, Dst: VReg(o.Dst),
			A: VRegArg(VReg(o.Args[0])), B: VRegArg(VReg(o.Args[1])), Line: o.Line})
	case ir.FNeg:
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: ir.FNeg, Type: ir.F64, Dst: VReg(o.Dst), A: VRegArg(VReg(o.Args[0])), Line: o.Line})

	case ir.ItoF:
		// The F board cannot read the I bank: move the integer into an
		// F-bank register over a bus, then convert on the F adder (§6.2).
		delete(lw.consts, o.Dst)
		tmp := vf.NewReg(ClassF, ir.I32)
		lw.emit(VOp{Kind: ir.Mov, Type: ir.I32, Dst: tmp, A: VRegArg(VReg(o.Args[0])), Line: o.Line})
		lw.emit(VOp{Kind: ir.ItoF, Type: ir.F64, Dst: VReg(o.Dst), A: VRegArg(tmp), Line: o.Line})
	case ir.FtoI:
		// Executes on an F unit; dest_bank routes the result to the I bank.
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: ir.FtoI, Type: ir.I32, Dst: VReg(o.Dst), A: VRegArg(VReg(o.Args[0])), Line: o.Line})

	case ir.Select:
		// SELECT reads its condition from a branch-bank bit, like a branch
		// (the Figure-3 word has only two source fields; see DESIGN.md).
		delete(lw.consts, o.Dst)
		bb := lw.boolToBB(o.Args[0], o.Line)
		lw.emit(VOp{Kind: ir.Select, Type: o.Type, Dst: VReg(o.Dst),
			A: VRegArg(bb),
			B: lw.argOf(o.Args[1], false),
			C: lw.argOf(o.Args[2], o.Type == ir.I32), Line: o.Line})

	case ir.Load, ir.LoadSpec:
		delete(lw.consts, o.Dst)
		lw.emit(VOp{Kind: o.Kind, Type: o.Type, Dst: VReg(o.Dst), Spec: o.Kind == ir.LoadSpec,
			A: lw.argOf(o.Args[0], false), B: VImmArg(int32(o.ImmI)), Line: o.Line})

	case ir.Store:
		sf := vf.NewReg(ClassSF, o.Type)
		lw.emit(VOp{Kind: mach.OpMovSF, Type: o.Type, Dst: sf, A: VRegArg(VReg(o.Args[1])), Line: o.Line})
		lw.emit(VOp{Kind: ir.Store, Type: o.Type,
			A: VRegArg(VReg(o.Args[0])), B: VImmArg(int32(o.ImmI)), C: VRegArg(sf), Line: o.Line})

	case ir.Call:
		return lw.lowerCall(o)

	case ir.Ret:
		if len(o.Args) == 1 {
			r := VReg(o.Args[0])
			if lw.irf.Ret == ir.F64 {
				lw.emit(VOp{Kind: ir.Mov, Type: ir.F64, Dst: vf.RVF, A: VRegArg(r), Line: o.Line})
			} else {
				lw.emit(VOp{Kind: ir.Mov, Type: ir.I32, Dst: vf.RVI, A: VRegArg(r), Line: o.Line})
			}
		}
		transfer := VOp{Kind: mach.OpHalt, Line: o.Line}
		if !lw.isMain {
			if !vf.Leaf {
				lw.emit(VOp{Kind: ir.Load, Type: ir.I32, Dst: vf.LR,
					A: VRegArg(vf.SP), B: VImmArg(int32(vf.Frame - 8)), Line: o.Line})
			}
			if vf.Frame != 0 {
				lw.emit(VOp{Kind: ir.Add, Type: ir.I32, Dst: vf.SP,
					A: VRegArg(vf.SP), B: VImmArg(int32(vf.Frame)), Line: o.Line})
			}
			transfer = VOp{Kind: mach.OpJmpR, A: VRegArg(vf.LR), Line: o.Line}
		}
		ep := vf.AddBlock()
		ep.NoCompact = true
		ep.Ops = []VOp{transfer}
		lw.emit(VOp{Kind: mach.OpJmp, T0: ep.ID, Line: o.Line})

	case ir.Br:
		lw.emit(VOp{Kind: mach.OpJmp, T0: irToV(o.T0), Line: o.Line})

	case ir.CondBr:
		bb := lw.boolToBB(o.Args[0], o.Line)
		lw.emit(VOp{Kind: mach.OpBrT, A: VRegArg(bb), T0: irToV(o.T0), T1: irToV(o.T1), Line: o.Line})

	default:
		return fmt.Errorf("%s: cannot lower %s", lw.irf.Name, o.Kind)
	}
	return nil
}

// boolToBB gets a boolean condition into a branch-bank register: if it was
// produced by a compare in this vblock whose only use is this consumer, the
// compare is retargeted into the branch bank (the dest_bank field, §6.5.2);
// otherwise a CmpNE #0 into the branch bank is inserted. Used for branches
// and for SELECT conditions.
func (lw *vlower) boolToBB(cond ir.Reg, line int) VReg {
	vcond := VReg(cond)
	if lw.irUses[cond] == 1 {
		for i := len(lw.cur.Ops) - 1; i >= 0; i-- {
			vo := &lw.cur.Ops[i]
			if vo.Dst != vcond {
				continue
			}
			if vo.Kind.IsCompare() {
				bb := lw.vf.NewReg(ClassB, ir.I32)
				vo.Dst = bb
				return bb
			}
			break
		}
	}
	bb := lw.vf.NewReg(ClassB, ir.I32)
	lw.emit(VOp{Kind: ir.CmpNE, Type: ir.I32, Dst: bb, A: VRegArg(vcond), B: VImmArg(0), Line: line})
	return bb
}

// lowerCall splits the current block around the transfer: [... argument
// moves; jmp] -> NoCompact [call or syscall; jmp] -> continuation, which
// opens with the return-value move. The stitcher lays the continuation out
// right after the transfer, which returns (or falls) into it.
func (lw *vlower) lowerCall(o *ir.Op) error {
	vf := lw.vf
	transfer := VOp{Kind: mach.OpSyscall, Sym: o.Sym, Line: o.Line}
	if ir.IsBuiltin(o.Sym) {
		sig := ir.Builtins[o.Sym]
		for i, a := range o.Args {
			if sig.Params[i] == ir.F64 {
				lw.emit(VOp{Kind: ir.Mov, Type: ir.F64, Dst: vf.ArgF[0], A: VRegArg(VReg(a)), Line: o.Line})
			} else {
				lw.emit(VOp{Kind: ir.Mov, Type: ir.I32, Dst: vf.ArgI[0], A: VRegArg(VReg(a)), Line: o.Line})
			}
		}
	} else {
		nInt, nFlt := 0, 0
		for _, a := range o.Args {
			if lw.irf.RegType(a) == ir.F64 {
				if nFlt >= mach.MaxArgs {
					return fmt.Errorf("%s: too many float arguments to %s", lw.irf.Name, o.Sym)
				}
				lw.emit(VOp{Kind: ir.Mov, Type: ir.F64, Dst: vf.ArgF[nFlt], A: VRegArg(VReg(a)), Line: o.Line})
				nFlt++
			} else {
				if nInt >= mach.MaxArgs {
					return fmt.Errorf("%s: too many int arguments to %s", lw.irf.Name, o.Sym)
				}
				lw.emit(VOp{Kind: ir.Mov, Type: ir.I32, Dst: vf.ArgI[nInt], A: VRegArg(VReg(a)), Line: o.Line})
				nInt++
			}
		}
		transfer = VOp{Kind: mach.OpCall, Dst: vf.LR, Sym: o.Sym, Line: o.Line}
	}

	cb := vf.AddBlock()
	cb.NoCompact = true
	cont := vf.AddBlock()
	cb.Ops = []VOp{transfer, {Kind: mach.OpJmp, T0: cont.ID, Line: o.Line}}
	lw.emit(VOp{Kind: mach.OpJmp, T0: cb.ID, Line: o.Line})
	lw.cur = cont
	lw.consts = map[ir.Reg]int64{}
	if transfer.Kind == mach.OpCall && o.Dst != ir.None {
		if lw.irf.RegType(o.Dst) == ir.F64 {
			lw.emit(VOp{Kind: ir.Mov, Type: ir.F64, Dst: VReg(o.Dst), A: VRegArg(vf.RVF), Line: o.Line})
		} else {
			lw.emit(VOp{Kind: ir.Mov, Type: ir.I32, Dst: VReg(o.Dst), A: VRegArg(vf.RVI), Line: o.Line})
		}
	}
	return nil
}

// insertCallSpills implements caller-save: every IR register live across a
// non-builtin call is stored to a dedicated frame slot before the call and
// reloaded after ("block register save and restore associated with procedure
// call", §9). Works at IR level so the disambiguator sees the spill
// addresses as frame references.
func insertCallSpills(f *ir.Func) {
	lv := f.ComputeLiveness()
	type site struct {
		block, idx int
		regs       []ir.Reg
	}
	var sites []site
	for _, b := range f.Blocks {
		live := lv.Out[b.ID].Clone()
		for i := len(b.Ops) - 1; i >= 0; i-- {
			o := &b.Ops[i]
			if o.Dst != ir.None {
				live.Remove(o.Dst)
			}
			if o.Kind == ir.Call && !ir.IsBuiltin(o.Sym) {
				var regs []ir.Reg
				for r := 1; r < f.NumRegs(); r++ {
					if live.Has(ir.Reg(r)) {
						regs = append(regs, ir.Reg(r))
					}
				}
				if len(regs) > 0 {
					sites = append(sites, site{b.ID, i, regs})
				}
			}
			for _, a := range o.Args {
				live.Add(a)
			}
		}
	}
	if len(sites) == 0 {
		return
	}
	// one frame slot per spilled register
	slot := map[ir.Reg]int64{}
	for _, s := range sites {
		for _, r := range s.regs {
			if _, ok := slot[r]; !ok {
				f.FrameSize = (f.FrameSize + 7) &^ 7
				slot[r] = f.FrameSize
				f.FrameSize += 8
			}
		}
	}
	// insert per block, highest index first so indices stay valid
	byBlock := map[int][]site{}
	for _, s := range sites {
		byBlock[s.block] = append(byBlock[s.block], s)
	}
	for bid, ss := range byBlock {
		for i := 0; i < len(ss); i++ {
			for j := i + 1; j < len(ss); j++ {
				if ss[j].idx > ss[i].idx {
					ss[i], ss[j] = ss[j], ss[i]
				}
			}
		}
		b := f.Blocks[bid]
		for _, s := range ss {
			var pre, post []ir.Op
			for _, r := range s.regs {
				t := f.RegType(r)
				a1 := f.NewReg(ir.I32)
				pre = append(pre,
					ir.Op{Kind: ir.FrAddr, Type: ir.I32, Dst: a1, ImmI: slot[r]},
					ir.Op{Kind: ir.Store, Type: t, Args: []ir.Reg{a1, r}})
				a2 := f.NewReg(ir.I32)
				post = append(post,
					ir.Op{Kind: ir.FrAddr, Type: ir.I32, Dst: a2, ImmI: slot[r]},
					ir.Op{Kind: ir.Load, Type: t, Dst: r, Args: []ir.Reg{a2}})
			}
			ops := make([]ir.Op, 0, len(b.Ops)+len(pre)+len(post))
			ops = append(ops, b.Ops[:s.idx]...)
			ops = append(ops, pre...)
			ops = append(ops, b.Ops[s.idx])
			ops = append(ops, post...)
			ops = append(ops, b.Ops[s.idx+1:]...)
			b.Ops = ops
		}
	}
}

// sweepDeadVOps removes the vops whose destinations are never read, by
// opt.DCE's rule: any op but a store, call, return or branch, so a dead load
// or divide goes with its fault (DESIGN.md, "Faults of dead operations").
// Ops writing a precolored register, a call's link write among them, stay.
func sweepDeadVOps(vf *VFunc) {
	uses := make([]int, vf.NumRegs())
	for {
		clear(uses)
		for _, b := range vf.Blocks {
			for i := range b.Ops {
				for _, u := range b.Ops[i].Uses() {
					uses[u]++
				}
			}
		}
		removed := 0
		for _, b := range vf.Blocks {
			kept := b.Ops[:0]
			for _, o := range b.Ops {
				dead := o.Dst != VNone && uses[o.Dst] == 0 && !o.Kind.HasSideEffect()
				if _, pre := vf.precolor[o.Dst]; pre {
					dead = false
				}
				if dead {
					removed++
					continue
				}
				kept = append(kept, o)
			}
			b.Ops = kept
		}
		if removed == 0 {
			return
		}
	}
}
