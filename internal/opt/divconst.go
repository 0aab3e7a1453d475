package opt

import (
	"math"
	"math/bits"

	"github.com/multiflow-repro/trace/internal/ir"
)

// The TRACE has no divide hardware: an integer Div or Rem holds its ALU for
// 30 beats (mach.Config.LatIDiv). DivConst replaces a divide by a constant
// with one-beat ALU ops and at most two 32-bit multiplies (Warren, Hacker's
// Delight ch. 10; Granlund and Montgomery, PLDI 1994), using the intervals
// of interval.go to know the dividend's range. The ISA has no high-half
// multiply, so the multiply form applies only where that range keeps the
// product inside 32 bits.

// divForm says how one constant divide is compiled.
type divForm uint8

const (
	divNoBound divForm = iota // kept: the dividend has no finite bound
	divTooWide                // kept: bounded, but the product would leave 32 bits
	divPow2                   // ±2^k, any dividend: the sign-corrected shift sequence
	divPow2Pos                // ±2^k, dividend ≥ 0: one and or shr
	divMagic                  // other c, |dividend| ≤ B: multiply, shift, correct
)

// A divSite is one Div or Rem of a function by a non-zero constant, with the
// dividend's interval at that point and the form it compiles to.
type divSite struct {
	blk, idx int      // the op is f.Blocks[blk].Ops[idx]
	c        int32    // the divisor
	x        interval // the dividend's range there
	form     divForm
	m, s     int64 // divMagic: q = (x·m) >> s
}

// rewritten reports whether the site leaves the divider.
func (s divSite) rewritten() bool { return s.form >= divPow2 }

// DivConst rewrites f's divides by constants and returns how many it
// rewrote and how many kept the divider because the dividend has no bound
// or because its bound is too wide. A zero divisor keeps its trap and is
// not counted.
func DivConst(f *ir.Func) (rewritten, noBound, tooWide int) {
	sites := divSites(f)
	for _, s := range sites {
		switch s.form {
		case divNoBound:
			noBound++
		case divTooWide:
			tooWide++
		default:
			rewritten++
		}
	}
	if rewritten > 0 {
		rewriteDivs(f, sites)
	}
	return rewritten, noBound, tooWide
}

// divSites lists f's divides by non-zero constants in block and op order and
// decides each one's form. A function with none skips the interval
// analysis.
func divSites(f *ir.Func) []divSite {
	var sites []divSite
	for _, b := range f.Blocks {
		for i := range b.Ops {
			o := &b.Ops[i]
			if o.Kind != ir.Div && o.Kind != ir.Rem {
				continue
			}
			if c, ok := blockConst(b, i, o.Args[1]); ok && c != 0 {
				sites = append(sites, divSite{blk: b.ID, idx: i, c: c})
			}
		}
	}
	if len(sites) == 0 {
		return nil
	}
	dividends := make([]ir.Reg, len(sites))
	for i, s := range sites {
		dividends[i] = f.Blocks[s.blk].Ops[s.idx].Args[0]
	}
	r := newRanges(f, dividends)
	r.solve()
	next := 0
	for _, b := range f.Blocks {
		if next == len(sites) || sites[next].blk != b.ID {
			continue
		}
		st := r.entering(b.ID)
		for i := range b.Ops {
			if next < len(sites) && sites[next].blk == b.ID && sites[next].idx == i {
				s := &sites[next]
				s.x = r.get(st, b.Ops[i].Args[0])
				s.decide()
				next++
			}
			r.step(st, &b.Ops[i])
		}
	}
	return sites
}

// blockConst returns the value of r at op i of b when an earlier op of the
// block sets it to a constant and nothing between redefines it.
func blockConst(b *ir.Block, i int, r ir.Reg) (int32, bool) {
	for j := i - 1; j >= 0; j-- {
		if o := &b.Ops[j]; o.Dst == r {
			return int32(o.ImmI), o.Kind == ir.ConstI
		}
	}
	return 0, false
}

// decide picks the site's form from its divisor and dividend interval.
func (s *divSite) decide() {
	d := abs64(int64(s.c))
	if d&(d-1) == 0 {
		s.form = divPow2
		if s.x.lo >= 0 {
			s.form = divPow2Pos
		}
		return
	}
	if s.x.lo == math.MinInt32 || s.x.hi == math.MaxInt32 {
		s.form = divNoBound
		return
	}
	var ok bool
	if s.m, s.s, ok = magic(d, max(-s.x.lo, s.x.hi)); ok {
		s.form = divMagic
	} else {
		s.form = divTooWide
	}
}

// magic returns the smallest shift s and m = ⌈2^s/d⌉ for which (x·m) >> s
// is ⌊x/d⌋ for every 0 ≤ x ≤ b without the product leaving 32 bits: b·m ≤
// 2^31−1 and b·e < 2^s, where e = m·d − 2^s. The same m and s give the
// truncated quotient of −b ≤ x < 0 once 1 is added (d is not a power of
// two, so e > 0 and the product always rounds a negative quotient down).
func magic(d, b int64) (m, s int64, ok bool) {
	for s = 0; s < 32; s++ {
		p := int64(1) << s
		m = (p + d - 1) / d
		if b*m > math.MaxInt32 {
			return 0, 0, false // m only grows with s
		}
		if b*(m*d-p) < p {
			return m, s, true
		}
	}
	return 0, 0, false
}

// rewriteDivs replaces every rewritten site's op with its op sequence.
func rewriteDivs(f *ir.Func, sites []divSite) {
	for i := 0; i < len(sites); {
		b := f.Blocks[sites[i].blk]
		ops := make([]ir.Op, 0, len(b.Ops)+8)
		at := 0
		for ; i < len(sites) && sites[i].blk == b.ID; i++ {
			s := sites[i]
			if !s.rewritten() {
				continue
			}
			ops = append(ops, b.Ops[at:s.idx]...)
			e := divEmitter{f: f, op: b.Ops[s.idx], ops: ops}
			e.lower(s)
			ops = e.ops
			at = s.idx + 1
		}
		b.Ops = append(ops, b.Ops[at:]...)
	}
}

// divEmitter appends the ops that replace one divide; only the last of them
// writes the divide's destination, so a dividend that is also the
// destination is read intact.
type divEmitter struct {
	f   *ir.Func
	op  ir.Op // the Div or Rem replaced
	ops []ir.Op
}

func (e *divEmitter) emit(k ir.OpKind, dst ir.Reg, args ...ir.Reg) ir.Reg {
	if dst == ir.None {
		dst = e.f.NewReg(ir.I32)
	}
	e.ops = append(e.ops, ir.Op{Kind: k, Type: ir.I32, Dst: dst, Args: args, Line: e.op.Line})
	return dst
}

func (e *divEmitter) konst(v int64) ir.Reg {
	r := e.f.NewReg(ir.I32)
	e.ops = append(e.ops, ir.Op{Kind: ir.ConstI, Type: ir.I32, Dst: r, ImmI: int64(int32(v)), Line: e.op.Line})
	return r
}

func (e *divEmitter) bin(k ir.OpKind, dst, a ir.Reg, v int64) ir.Reg {
	return e.emit(k, dst, a, e.konst(v))
}

// lower emits the ops of site s.
func (e *divEmitter) lower(s divSite) {
	x, dst := e.op.Args[0], e.op.Dst
	rem := e.op.Kind == ir.Rem
	d := abs64(int64(s.c))
	k := int64(bits.TrailingZeros64(uint64(d)))
	// q is the quotient by |c|. It goes straight to dst unless it is still
	// to be negated or multiplied back into a remainder.
	qDst := dst
	if s.c < 0 || rem {
		qDst = ir.None
	}
	var q ir.Reg
	switch {
	case d == 1 && rem:
		e.ops = append(e.ops, ir.Op{Kind: ir.ConstI, Type: ir.I32, Dst: dst, Line: e.op.Line})
		return
	case d == 1:
		q = e.emit(ir.Mov, qDst, x)
	case s.form == divPow2Pos && rem:
		e.bin(ir.And, dst, x, d-1)
		return
	case s.form == divPow2Pos:
		q = e.bin(ir.Shr, qDst, x, k)
	case s.form == divPow2:
		// bias is d−1 for a negative dividend and 0 otherwise, so that the
		// arithmetic shift truncates toward zero.
		sign := x
		if k > 1 {
			sign = e.bin(ir.Sra, ir.None, x, 31)
		}
		t := e.emit(ir.Add, ir.None, x, e.bin(ir.Shr, ir.None, sign, 32-k))
		if rem {
			e.emit(ir.Sub, dst, x, e.bin(ir.And, ir.None, t, -d))
			return
		}
		q = e.bin(ir.Sra, qDst, t, k)
	case s.x.lo >= 0: // divMagic
		q = e.bin(ir.Shr, qDst, e.bin(ir.Mul, ir.None, x, s.m), s.s)
	default: // divMagic, signed: a negative product rounds down, so add 1
		t := e.bin(ir.Sra, ir.None, e.bin(ir.Mul, ir.None, x, s.m), s.s)
		q = e.emit(ir.Sub, qDst, t, e.bin(ir.Sra, ir.None, x, 31))
	}
	switch {
	case rem: // x % c has x's sign whatever c's: x − q·|c|
		e.emit(ir.Sub, dst, x, e.bin(ir.Mul, ir.None, q, d))
	case s.c < 0:
		e.emit(ir.Neg, dst, q)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
