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
	n := f.NumRegs()
	l := &lvn{
		f:        f,
		avail:    map[lvnKey]ir.Reg{},
		copyOf:   make([]ir.Reg, n),
		isConstI: make([]bool, n),
		constI:   make([]int64, n),
		isConstF: make([]bool, n),
		constF:   make([]float64, n),
		holders:  make([][]lvnKey, n),
		users:    make([][]lvnKey, n),
		copies:   make([][]ir.Reg, n),
	}
	changed := 0
	for _, b := range f.Blocks {
		changed += l.block(b)
		l.reset()
	}
	return changed
}

// lvn is what value numbering knows inside one block. The tables indexed by
// register are sized once per function and, after each block, reset at the
// registers the block touched, so a definition costs what it invalidates,
// not the size of the tables.
type lvn struct {
	f        *ir.Func
	avail    map[lvnKey]ir.Reg // expression → register holding it
	copyOf   []ir.Reg          // register → original it copies; None if none
	isConstI []bool
	constI   []int64
	isConstF []bool
	constF   []float64
	// What a definition of r invalidates: holders[r] are the expressions
	// whose value lives in r, users[r] those that read r, and copies[r] the
	// registers recorded as copies of r. An entry may be stale (its
	// expression or copy already gone); invalidate checks before it deletes.
	holders, users [][]lvnKey
	copies         [][]ir.Reg
	loads          []lvnKey // the load expressions a store or call kills
	touched        []ir.Reg
}

func (l *lvn) resolve(r ir.Reg) ir.Reg {
	for l.copyOf[r] != ir.None {
		r = l.copyOf[r]
	}
	return r
}

func (l *lvn) setCopy(d, s ir.Reg) {
	l.copyOf[d] = s
	l.copies[s] = append(l.copies[s], d)
	l.touched = append(l.touched, s)
}

func (l *lvn) record(k lvnKey, dst ir.Reg) {
	l.avail[k] = dst
	l.holders[dst] = append(l.holders[dst], k)
	for _, a := range [...]ir.Reg{k.a0, k.a1, k.a2} {
		if a != ir.None {
			l.users[a] = append(l.users[a], k)
			l.touched = append(l.touched, a)
		}
	}
	if k.kind == ir.Load || k.kind == ir.LoadSpec {
		l.loads = append(l.loads, k)
	}
}

// invalidate forgets what r held: the expressions it holds or reads, the
// copies of it, and its own copy and constant facts.
func (l *lvn) invalidate(r ir.Reg) {
	for _, k := range l.holders[r] {
		if l.avail[k] == r {
			delete(l.avail, k)
		}
	}
	for _, k := range l.users[r] {
		delete(l.avail, k)
	}
	for _, d := range l.copies[r] {
		if l.copyOf[d] == r {
			l.copyOf[d] = ir.None
		}
	}
	l.holders[r], l.users[r], l.copies[r] = l.holders[r][:0], l.users[r][:0], l.copies[r][:0]
	l.copyOf[r], l.isConstI[r], l.isConstF[r] = ir.None, false, false
}

func (l *lvn) killLoads() {
	for _, k := range l.loads {
		delete(l.avail, k)
	}
	l.loads = l.loads[:0]
}

// reset empties the tables for the next block.
func (l *lvn) reset() {
	for _, r := range l.touched {
		l.invalidate(r)
	}
	l.touched = l.touched[:0]
	l.loads = l.loads[:0]
}

func (l *lvn) block(b *ir.Block) int {
	changed := 0
	for i := range b.Ops {
		o := &b.Ops[i]
		// canonicalize operands through copies
		for j, a := range o.Args {
			na := l.resolve(a)
			if na != a {
				o.Args[j] = na
				changed++
			}
		}
		// constant folding
		if folded := foldOp(l.f, o, l.isConstI, l.constI, l.isConstF, l.constF); folded {
			changed++
		}
		// branch folding handled by FoldBranches (needs CFG edits)

		if o.Kind == ir.Call || o.Kind == ir.Store {
			// a call may do anything to memory, and a store may alias
			// any load: conservatively, both kill every available load
			l.killLoads()
		}

		if o.Dst == ir.None {
			continue
		}
		dst := o.Dst
		l.invalidate(dst)
		l.touched = append(l.touched, dst)
		switch o.Kind {
		case ir.ConstI:
			l.isConstI[dst] = true
			l.constI[dst] = o.ImmI
			k := lvnKey{kind: ir.ConstI, imm: o.ImmI}
			if r, ok := l.avail[k]; ok && r != dst {
				*o = ir.Op{Kind: ir.Mov, Type: ir.I32, Dst: dst, Args: []ir.Reg{r}, Line: o.Line}
				l.setCopy(dst, l.resolve(r))
				changed++
			} else {
				l.record(k, dst)
			}
		case ir.ConstF:
			l.isConstF[dst] = true
			l.constF[dst] = o.ImmF
			k := lvnKey{kind: ir.ConstF, fimm: o.ImmF}
			if r, ok := l.avail[k]; ok && r != dst {
				*o = ir.Op{Kind: ir.Mov, Type: ir.F64, Dst: dst, Args: []ir.Reg{r}, Line: o.Line}
				l.setCopy(dst, l.resolve(r))
				changed++
			} else {
				l.record(k, dst)
			}
		case ir.Mov:
			src := o.Args[0]
			if src != dst { // a self-copy (d = d >> 0 folds to one) would make resolve cycle
				l.setCopy(dst, l.resolve(src))
			}
			if l.isConstI[src] {
				l.isConstI[dst] = true
				l.constI[dst] = l.constI[src]
			}
			if l.isConstF[src] {
				l.isConstF[dst] = true
				l.constF[dst] = l.constF[src]
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
			if r, ok := l.avail[k]; ok && r != dst {
				t := o.Type
				if t == ir.Void {
					t = l.f.RegType(dst)
				}
				*o = ir.Op{Kind: ir.Mov, Type: t, Dst: dst, Args: []ir.Reg{r}, Line: o.Line}
				l.setCopy(dst, l.resolve(r))
				changed++
			} else if k.a0 != dst && k.a1 != dst && k.a2 != dst {
				// Record availability only if the op does not redefine one of
				// its own operands (e.g. i = i + 1): after such an op the
				// operand register holds a new value, so the recorded key
				// would be stale.
				l.record(k, dst)
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
func foldOp(f *ir.Func, o *ir.Op, isCI []bool, ci []int64, isCF []bool, cf []float64) bool {
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
func foldAlgebraic(f *ir.Func, o *ir.Op, isCI []bool, ci []int64) bool {
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
