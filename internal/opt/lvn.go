// Package opt implements the "complete set of classical optimizations" the
// paper's compiler performs before trace selection (§4): constant folding,
// common subexpression elimination (local value numbering), copy
// propagation, dead-code elimination, loop-invariant code motion, loop
// unrolling, and inline substitution of subroutines.
package opt

import (
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// lvnKey identifies a pure computation for value numbering.
type lvnKey struct {
	kind ir.OpKind
	typ  ir.Type
	a0   ir.Reg
	a1   ir.Reg
	a2   ir.Reg
	imm  int64
	fimm float64
	sym  string
}

// LVN performs local value numbering on every block of f: it folds
// constants, propagates copies, and replaces recomputations of available
// expressions with moves (which DCE and copy propagation then clean up).
// It returns the number of ops simplified.
func LVN(f *ir.Func) int {
	changed := 0
	for _, b := range f.Blocks {
		changed += lvnBlock(f, b)
	}
	return changed
}

func lvnBlock(f *ir.Func, b *ir.Block) int {
	avail := map[lvnKey]ir.Reg{}  // expression -> register holding it
	copyOf := map[ir.Reg]ir.Reg{} // register -> original it copies
	constI := map[ir.Reg]int64{}
	constF := map[ir.Reg]float64{}
	isConstI := map[ir.Reg]bool{}
	isConstF := map[ir.Reg]bool{}
	// holders[r] = expressions whose value lives in r (for invalidation)
	holders := map[ir.Reg][]lvnKey{}
	changed := 0

	resolve := func(r ir.Reg) ir.Reg {
		for {
			c, ok := copyOf[r]
			if !ok {
				return r
			}
			r = c
		}
	}
	invalidate := func(r ir.Reg) {
		for _, k := range holders[r] {
			if avail[k] == r {
				delete(avail, k)
			}
		}
		delete(holders, r)
		delete(copyOf, r)
		delete(isConstI, r)
		delete(isConstF, r)
		// any copy chains through r break
		for d, s := range copyOf {
			if s == r {
				delete(copyOf, d)
			}
		}
		// expressions using r as operand die
		for k, holder := range avail {
			if k.a0 == r || k.a1 == r || k.a2 == r {
				delete(avail, k)
				_ = holder
			}
		}
	}
	killLoads := func() {
		for k := range avail {
			if k.kind == ir.Load || k.kind == ir.LoadSpec {
				delete(avail, k)
			}
		}
	}

	for i := range b.Ops {
		o := &b.Ops[i]
		// canonicalize operands through copies
		for j, a := range o.Args {
			na := resolve(a)
			if na != a {
				o.Args[j] = na
				changed++
			}
		}
		// constant folding
		if folded := foldOp(f, o, isConstI, constI, isConstF, constF); folded {
			changed++
		}
		// branch folding handled by FoldBranches (needs CFG edits)

		if o.Kind == ir.Call {
			// calls clobber memory and may do anything to globals
			killLoads()
		}
		if o.Kind == ir.Store {
			// conservative: a store kills all available loads
			killLoads()
		}

		if o.Dst == ir.None {
			continue
		}
		dst := o.Dst
		invalidate(dst)
		switch o.Kind {
		case ir.ConstI:
			isConstI[dst] = true
			constI[dst] = o.ImmI
			k := lvnKey{kind: ir.ConstI, imm: o.ImmI}
			if r, ok := avail[k]; ok && r != dst {
				*o = ir.Op{Kind: ir.Mov, Type: ir.I32, Dst: dst, Args: []ir.Reg{r}, Line: o.Line}
				copyOf[dst] = resolve(r)
				changed++
			} else {
				avail[k] = dst
				holders[dst] = append(holders[dst], k)
			}
		case ir.ConstF:
			isConstF[dst] = true
			constF[dst] = o.ImmF
			k := lvnKey{kind: ir.ConstF, fimm: o.ImmF}
			if r, ok := avail[k]; ok && r != dst {
				*o = ir.Op{Kind: ir.Mov, Type: ir.F64, Dst: dst, Args: []ir.Reg{r}, Line: o.Line}
				copyOf[dst] = resolve(r)
				changed++
			} else {
				avail[k] = dst
				holders[dst] = append(holders[dst], k)
			}
		case ir.Mov:
			src := o.Args[0]
			copyOf[dst] = resolve(src)
			if isConstI[src] {
				isConstI[dst] = true
				constI[dst] = constI[src]
			}
			if isConstF[src] {
				isConstF[dst] = true
				constF[dst] = constF[src]
			}
		case ir.Load, ir.LoadSpec, ir.GAddr, ir.FrAddr,
			ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
			ir.Shl, ir.Shr, ir.Sra, ir.Neg, ir.Not,
			ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
			ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FNeg,
			ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE,
			ir.ItoF, ir.FtoI, ir.Select:
			k := lvnKey{kind: o.Kind, typ: o.Type, imm: o.ImmI, fimm: o.ImmF, sym: o.Sym}
			if len(o.Args) > 0 {
				k.a0 = o.Args[0]
			}
			if len(o.Args) > 1 {
				k.a1 = o.Args[1]
			}
			if len(o.Args) > 2 {
				k.a2 = o.Args[2]
			}
			if r, ok := avail[k]; ok && r != dst {
				t := o.Type
				if t == ir.Void {
					t = f.RegType(dst)
				}
				*o = ir.Op{Kind: ir.Mov, Type: t, Dst: dst, Args: []ir.Reg{r}, Line: o.Line}
				copyOf[dst] = resolve(r)
				changed++
			} else if k.a0 != dst && k.a1 != dst && k.a2 != dst {
				// Record availability only if the op does not redefine one of
				// its own operands (e.g. i = i + 1): after such an op the
				// operand register holds a new value, so the recorded key
				// would be stale.
				avail[k] = dst
				holders[dst] = append(holders[dst], k)
			}
		}
	}
	return changed
}

// foldOp replaces an op with a constant when all operands are known
// constants in this block, computing the result with the same value table
// the simulator executes (mach.ValueOf), so a folded op and an executed one
// cannot disagree. Division by a constant zero is left alone so the runtime
// fault is preserved. FDiv, the float compares and FtoI are not folded.
func foldOp(f *ir.Func, o *ir.Op, isCI map[ir.Reg]bool, ci map[ir.Reg]int64, isCF map[ir.Reg]bool, cf map[ir.Reg]float64) bool {
	switch o.Kind {
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Sra,
		ir.Neg, ir.Not,
		ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.FAdd, ir.FSub, ir.FMul, ir.FNeg, ir.ItoF:
		v := mach.ValueOf(o.Kind)
		var arg [2]uint64
		for i, a := range o.Args {
			switch {
			case v.FloatIn && isCF[a]:
				arg[i] = mach.FBits(cf[a])
			case !v.FloatIn && isCI[a]:
				arg[i] = mach.IBits(int32(ci[a]))
			default:
				return foldAlgebraic(f, o, isCI, ci)
			}
		}
		if (o.Kind == ir.Div || o.Kind == ir.Rem) && mach.DivTraps(arg[1]) {
			return false
		}
		r := v.Fn(arg[0], arg[1])
		if v.FloatOut {
			*o = ir.Op{Kind: ir.ConstF, Type: ir.F64, Dst: o.Dst, ImmF: math.Float64frombits(r), Line: o.Line}
		} else {
			*o = ir.Op{Kind: ir.ConstI, Type: ir.I32, Dst: o.Dst, ImmI: int64(int32(uint32(r))), Line: o.Line}
		}
		return true
	case ir.Select:
		if isCI[o.Args[0]] {
			src := o.Args[1]
			if ci[o.Args[0]] == 0 {
				src = o.Args[2]
			}
			*o = ir.Op{Kind: ir.Mov, Type: o.Type, Dst: o.Dst, Args: []ir.Reg{src}, Line: o.Line}
			return true
		}
	}
	return false
}

// foldAlgebraic applies identities with one constant operand: x+0, x-0, x*1,
// x*0, x<<0, x&0, x|0.
func foldAlgebraic(f *ir.Func, o *ir.Op, isCI map[ir.Reg]bool, ci map[ir.Reg]int64) bool {
	if len(o.Args) != 2 {
		return false
	}
	mov := func(src ir.Reg) {
		*o = ir.Op{Kind: ir.Mov, Type: ir.I32, Dst: o.Dst, Args: []ir.Reg{src}, Line: o.Line}
	}
	zero := func() {
		*o = ir.Op{Kind: ir.ConstI, Type: ir.I32, Dst: o.Dst, Line: o.Line}
	}
	a, b := o.Args[0], o.Args[1]
	switch o.Kind {
	case ir.Add:
		if isCI[a] && ci[a] == 0 {
			mov(b)
			return true
		}
		if isCI[b] && ci[b] == 0 {
			mov(a)
			return true
		}
	case ir.Sub, ir.Shl, ir.Shr, ir.Sra:
		if isCI[b] && ci[b] == 0 {
			mov(a)
			return true
		}
	case ir.Mul:
		if isCI[a] && ci[a] == 1 {
			mov(b)
			return true
		}
		if isCI[b] && ci[b] == 1 {
			mov(a)
			return true
		}
		if (isCI[a] && ci[a] == 0) || (isCI[b] && ci[b] == 0) {
			zero()
			return true
		}
	case ir.And:
		if (isCI[a] && ci[a] == 0) || (isCI[b] && ci[b] == 0) {
			zero()
			return true
		}
	case ir.Or, ir.Xor:
		if isCI[a] && ci[a] == 0 {
			mov(b)
			return true
		}
		if isCI[b] && ci[b] == 0 {
			mov(a)
			return true
		}
	}
	return false
}

// FoldBranches rewrites CondBr with a constant condition into Br and removes
// now-unreachable blocks. The condition must be a ConstI earlier in the same
// block (LVN canonicalizes toward that form). Returns branches folded.
func FoldBranches(f *ir.Func) int {
	changed := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Kind != ir.CondBr {
			continue
		}
		// find the defining op of the condition within this block
		var val int64
		known := false
		for i := len(b.Ops) - 2; i >= 0; i-- {
			o := &b.Ops[i]
			if o.Dst == t.Args[0] {
				if o.Kind == ir.ConstI {
					val, known = o.ImmI, true
				}
				break
			}
		}
		if !known {
			continue
		}
		target := t.T1
		if val != 0 {
			target = t.T0
		}
		*t = ir.Op{Kind: ir.Br, T0: target, Line: t.Line}
		changed++
	}
	if changed > 0 {
		f.RemoveUnreachable()
	}
	return changed
}
