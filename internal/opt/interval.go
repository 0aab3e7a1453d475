package opt

import (
	"math"
	"math/bits"

	"github.com/multiflow-repro/trace/internal/ir"
)

// interval is the closed range [lo, hi] of int32 values a register may hold.
type interval struct{ lo, hi int64 }

var top = interval{math.MinInt32, math.MaxInt32}

func (a interval) join(b interval) interval { return interval{min(a.lo, b.lo), max(a.hi, b.hi)} }

// fit is [lo, hi] when the machine's 32-bit result cannot have wrapped, and
// top when it can.
func fit(lo, hi int64) interval {
	if lo < math.MinInt32 || hi > math.MaxInt32 {
		return top
	}
	return interval{lo, hi}
}

// ranges is an intraprocedural interval analysis over a function's i32
// registers. It tracks only the registers a set of seeds depends on,
// through the ops that define them, plus the other operand of every compare
// that a conditional branch tests on a tracked register, and it refines both
// operands of such a compare on each edge. It widens only at the targets of
// retreating edges (loop heads), so it converges in a few passes.
type ranges struct {
	f     *ir.Func
	slot  []int32 // register → its index in a state, −1 if untracked
	n     int     // tracked registers
	guard []int   // per block: the compare its CondBr tests, −1 if none
	head  []bool  // per block: the target of a retreating edge
	in    [][]interval
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
	r.in = make([][]interval, len(f.Blocks))
	r.in[0] = r.entering(0)
	st := make([]interval, r.n)
	edge := make([]interval, r.n)
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
func (r *ranges) flow(s int, out []interval) bool {
	in := r.in[s]
	if in == nil {
		r.in[s] = append([]interval(nil), out...)
		return true
	}
	grew := false
	for i, o := range out {
		j := in[i].join(o)
		if j == in[i] {
			continue
		}
		if r.head[s] {
			if j.lo < in[i].lo {
				j.lo = math.MinInt32
			}
			if j.hi > in[i].hi {
				j.hi = math.MaxInt32
			}
		}
		in[i] = j
		grew = true
	}
	return grew
}

// entering returns a copy of the state entering block b: every register
// top at the entry, and in a block the analysis found unreachable.
func (r *ranges) entering(b int) []interval {
	st := make([]interval, r.n)
	if r.in != nil && r.in[b] != nil {
		copy(st, r.in[b])
		return st
	}
	for i := range st {
		st[i] = top
	}
	return st
}

// get returns x's interval in st.
func (r *ranges) get(st []interval, x ir.Reg) interval {
	if s := r.slot[x]; s >= 0 {
		return st[s]
	}
	return top
}

func (r *ranges) set(st []interval, x ir.Reg, v interval) {
	if s := r.slot[x]; s >= 0 {
		st[s] = v
	}
}

// step applies o to st.
func (r *ranges) step(st []interval, o *ir.Op) {
	if o.Dst != ir.None && r.slot[o.Dst] >= 0 {
		st[r.slot[o.Dst]] = r.eval(st, o)
	}
}

// eval returns the interval of o's result given its operands' in st, with
// the machine's wrapping 32-bit semantics (mach.ValueOf).
func (r *ranges) eval(st []interval, o *ir.Op) interval {
	arg := func(i int) interval { return r.get(st, o.Args[i]) }
	switch o.Kind {
	case ir.ConstI:
		v := int64(int32(o.ImmI))
		return interval{v, v}
	case ir.Mov:
		return arg(0)
	case ir.Select:
		return arg(1).join(arg(2))
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return interval{0, 1}
	case ir.Neg:
		a := arg(0)
		return fit(-a.hi, -a.lo)
	case ir.Not:
		a := arg(0)
		return interval{^a.hi, ^a.lo}
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Sra:
		return binary(o.Kind, arg(0), arg(1))
	}
	return top
}

// binary is eval of a two-operand integer op.
func binary(k ir.OpKind, a, b interval) interval {
	c, isConst := b.lo, b.lo == b.hi
	switch k {
	case ir.Add:
		return fit(a.lo+b.lo, a.hi+b.hi)
	case ir.Sub:
		return fit(a.lo-b.hi, a.hi-b.lo)
	case ir.Mul:
		p := [4]int64{a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi}
		return fit(min(p[0], p[1], p[2], p[3]), max(p[0], p[1], p[2], p[3]))
	case ir.Div:
		switch {
		case isConst && c > 0:
			return interval{a.lo / c, a.hi / c}
		case isConst && c < 0:
			return fit(a.hi/c, a.lo/c) // MinInt32 / −1 wraps
		}
	case ir.Rem:
		// |x % y| < |y|, and the result has x's sign.
		lim := max(-b.lo, b.hi) - 1
		if lim < 0 {
			break // y is 0: the op traps
		}
		return interval{max(min(a.lo, 0), -lim), min(max(a.hi, 0), lim)}
	case ir.And:
		switch {
		case a.lo >= 0 && b.lo >= 0:
			return interval{0, min(a.hi, b.hi)}
		case a.lo >= 0:
			return interval{0, a.hi}
		case b.lo >= 0:
			return interval{0, b.hi}
		}
	case ir.Or, ir.Xor:
		if a.lo >= 0 && b.lo >= 0 {
			return interval{0, 1<<bits.Len64(uint64(max(a.hi, b.hi))) - 1}
		}
	case ir.Shl:
		if isConst {
			return fit(a.lo<<(c&31), a.hi<<(c&31))
		}
	case ir.Shr:
		switch {
		case isConst && c&31 == 0:
			return a
		case a.lo >= 0 && isConst:
			return interval{a.lo >> (c & 31), a.hi >> (c & 31)}
		case a.lo >= 0:
			return interval{0, a.hi}
		case isConst:
			return interval{0, math.MaxUint32 >> (c & 31)}
		}
	case ir.Sra:
		if isConst {
			return interval{a.lo >> (c & 31), a.hi >> (c & 31)}
		}
		return interval{min(a.lo, 0), max(a.hi, 0)}
	}
	return top
}

// refine narrows st to the states in which cmp is taken (or not taken) and
// reports whether any remain.
func (r *ranges) refine(st []interval, cmp *ir.Op, taken bool) bool {
	x, y := cmp.Args[0], cmp.Args[1]
	a, b := r.get(st, x), r.get(st, y)
	k := cmp.Kind
	if !taken {
		k = notCmp[k-ir.CmpEQ]
	}
	switch k {
	case ir.CmpLT:
		a.hi, b.lo = min(a.hi, b.hi-1), max(b.lo, a.lo+1)
	case ir.CmpLE:
		a.hi, b.lo = min(a.hi, b.hi), max(b.lo, a.lo)
	case ir.CmpGT:
		a.lo, b.hi = max(a.lo, b.lo+1), min(b.hi, a.hi-1)
	case ir.CmpGE:
		a.lo, b.hi = max(a.lo, b.lo), min(b.hi, a.hi)
	case ir.CmpEQ:
		a = interval{max(a.lo, b.lo), min(a.hi, b.hi)}
		b = a
	case ir.CmpNE:
		a, b = dropEnd(a, b), dropEnd(b, a)
	}
	if a.lo > a.hi || b.lo > b.hi {
		return false
	}
	r.set(st, x, a)
	r.set(st, y, b)
	return true
}

// notCmp is the negation of each integer compare, from CmpEQ on.
var notCmp = [...]ir.OpKind{ir.CmpNE, ir.CmpEQ, ir.CmpGE, ir.CmpGT, ir.CmpLE, ir.CmpLT}

// dropEnd removes from a the value of a single-valued b when it is an end of
// a: a != b excludes it.
func dropEnd(a, b interval) interval {
	if b.lo == b.hi {
		if a.lo == b.lo {
			a.lo++
		}
		if a.hi == b.lo {
			a.hi--
		}
	}
	return a
}
