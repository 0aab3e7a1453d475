package opt

import (
	"github.com/multiflow-repro/trace/internal/absval"
	"github.com/multiflow-repro/trace/internal/ir"
)

// ranges is an intraprocedural value-range analysis over a function's i32
// registers, in absval's domain. It tracks only the registers a set of seeds
// depends on, through the ops that define them, plus the other operand of
// every compare that a conditional branch tests on a tracked register, and it
// narrows both operands of such a compare on each edge. It widens only at the targets of
// retreating edges (loop heads), so it converges in a few passes.
type ranges struct {
	f     *ir.Func
	slot  []int32 // register → its index in a state, −1 if untracked
	n     int     // tracked registers
	guard []int   // per block: the compare its CondBr tests, −1 if none
	head  []bool  // per block: the target of a retreating edge
	in    [][]absval.Val
}

func newRanges(f *ir.Func, seeds []ir.Reg) *ranges {
	r := &ranges{
		f:     f,
		slot:  make([]int32, f.NumRegs()),
		guard: make([]int, len(f.Blocks)),
	}
	// defs[start[x]:start[x+1]] are the ops that write register x.
	start := make([]int32, f.NumRegs()+1)
	for _, b := range f.Blocks {
		for i := range b.Ops {
			start[b.Ops[i].Dst+1]++
		}
		r.guard[b.ID] = guardOf(b)
	}
	for x := 1; x < len(start); x++ {
		start[x] += start[x-1]
	}
	defs := make([]*ir.Op, start[len(start)-1])
	fill := append([]int32(nil), start...)
	for _, b := range f.Blocks {
		for i := range b.Ops {
			o := &b.Ops[i]
			defs[fill[o.Dst]] = o
			fill[o.Dst]++
		}
	}
	for i := range r.slot {
		r.slot[i] = -1
	}
	var work []ir.Reg
	track := func(x ir.Reg) {
		if r.slot[x] < 0 && f.RegType(x) == ir.I32 {
			r.slot[x] = int32(r.n)
			r.n++
			work = append(work, x)
		}
	}
	drain := func() {
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, o := range defs[start[x]:start[x+1]] {
				switch o.Kind {
				case ir.Select:
					track(o.Args[1])
					track(o.Args[2])
				case ir.Mov, ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
					ir.Shl, ir.Shr, ir.Sra, ir.Neg, ir.Not:
					for _, a := range o.Args {
						track(a)
					}
				}
			}
		}
	}
	for _, x := range seeds {
		track(x)
	}
	drain()
	for grew := true; grew; {
		grew = false
		for _, b := range f.Blocks {
			if g := r.guard[b.ID]; g >= 0 {
				a := b.Ops[g].Args
				if (r.slot[a[0]] < 0) != (r.slot[a[1]] < 0) {
					track(a[0])
					track(a[1])
					grew = len(work) > 0 || grew
					drain()
				}
			}
		}
	}
	return r
}

// guardOf returns the index of the integer compare b's CondBr tests, when
// the compare is in b and neither operand changes between it and the
// branch; −1 otherwise.
func guardOf(b *ir.Block) int {
	t := b.Term()
	if t == nil || t.Kind != ir.CondBr {
		return -1
	}
	for i := len(b.Ops) - 2; i >= 0; i-- {
		o := &b.Ops[i]
		if o.Dst != t.Args[0] {
			continue
		}
		if o.Kind < ir.CmpEQ || o.Kind > ir.CmpGE || o.Args[0] == o.Args[1] {
			return -1
		}
		for _, p := range b.Ops[i+1 : len(b.Ops)-1] {
			if p.Dst == o.Args[0] || p.Dst == o.Args[1] {
				return -1
			}
		}
		return i
	}
	return -1
}

// solve computes the state entering every block reachable from the entry.
func (r *ranges) solve() {
	f := r.f
	rpo := f.RPO()
	order := make([]int, len(f.Blocks))
	for i, b := range rpo {
		order[b] = i
	}
	r.head = make([]bool, len(f.Blocks))
	for _, b := range rpo {
		for _, s := range f.Blocks[b].Succs() {
			if order[s] <= order[b] {
				r.head[s] = true
			}
		}
	}
	r.in = make([][]absval.Val, len(f.Blocks))
	r.in[0] = r.entering(0)
	st := make([]absval.Val, r.n)
	edge := make([]absval.Val, r.n)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if r.in[b] == nil {
				continue
			}
			copy(st, r.in[b])
			blk := f.Blocks[b]
			for i := range blk.Ops {
				r.step(st, &blk.Ops[i])
			}
			t := blk.Term()
			switch {
			case t.Kind == ir.Br:
				changed = r.flow(t.T0, st) || changed
			case t.Kind == ir.CondBr && r.guard[b] >= 0 && t.T0 != t.T1:
				cmp := &blk.Ops[r.guard[b]]
				for _, e := range [2]struct {
					to    int
					taken bool
				}{{t.T0, true}, {t.T1, false}} {
					copy(edge, st)
					if r.refine(edge, cmp, e.taken) {
						changed = r.flow(e.to, edge) || changed
					}
				}
			case t.Kind == ir.CondBr:
				changed = r.flow(t.T0, st) || changed
				changed = r.flow(t.T1, st) || changed
			}
		}
	}
}

// flow joins out into the state entering block s, widening at a loop head,
// and reports whether that state grew.
func (r *ranges) flow(s int, out []absval.Val) bool {
	in := r.in[s]
	if in == nil {
		r.in[s] = append([]absval.Val(nil), out...)
		return true
	}
	grew := false
	for i, o := range out {
		j := in[i].Join(o)
		if j == in[i] {
			continue
		}
		if r.head[s] {
			j = j.WidenToEnds(in[i])
		}
		in[i] = j
		grew = true
	}
	return grew
}

// entering returns a copy of the state entering block b: every register
// top at the entry, and in a block the analysis found unreachable.
func (r *ranges) entering(b int) []absval.Val {
	st := make([]absval.Val, r.n)
	if r.in != nil && r.in[b] != nil {
		copy(st, r.in[b])
		return st
	}
	for i := range st {
		st[i] = absval.Top
	}
	return st
}

// get returns x's value in st.
func (r *ranges) get(st []absval.Val, x ir.Reg) absval.Val {
	if s := r.slot[x]; s >= 0 {
		return st[s]
	}
	return absval.Top
}

func (r *ranges) set(st []absval.Val, x ir.Reg, v absval.Val) {
	if s := r.slot[x]; s >= 0 {
		st[s] = v
	}
}

// step applies o to st.
func (r *ranges) step(st []absval.Val, o *ir.Op) {
	if o.Dst == ir.None || r.slot[o.Dst] < 0 {
		return
	}
	var v [3]absval.Val
	for i := range min(len(o.Args), 3) {
		v[i] = r.get(st, o.Args[i])
	}
	if o.Kind == ir.ConstI {
		v[0] = absval.Exact(o.ImmI)
	}
	st[r.slot[o.Dst]] = absval.Eval(o.Kind, v[0], v[1], v[2])
}

// refine narrows st to the states in which cmp is taken (or not taken) and
// reports whether any remain.
func (r *ranges) refine(st []absval.Val, cmp *ir.Op, taken bool) bool {
	x, y := cmp.Args[0], cmp.Args[1]
	a, b, ok := absval.Narrow(cmp.Kind, r.get(st, x), r.get(st, y), taken)
	if ok {
		r.set(st, x, a)
		r.set(st, y, b)
	}
	return ok
}
