// Package absval is the one abstract domain for 32-bit integer values: an
// interval crossed with a congruence, with one transfer function per i32
// opcode and one narrowing per integer compare. The optimiser's range
// analysis (opt, over IR blocks) and the safety verifier (safecheck, over
// machine words) each run their own fixpoint over it; what an opcode does to
// a value is said here once, after mach's opcode table, and the property
// test in this package holds every transfer to mach.ValueOf.
//
// The interval answers "can this address escape RAM, can this divisor be
// zero, how wide is this dividend"; the congruence answers "is this address
// aligned" and, fed back into the interval as bound snapping, recovers tight
// bounds for strided loop counters (an unroll-by-4 counter known to be ≡ 0
// mod 4 and < 256 is at most 252, so counter+3 stays in bounds).
package absval

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Val abstracts one i32 value: every concrete value v satisfies
// Lo <= v <= Hi and v ≡ R (mod M).
//
//   - M == 0 means the value is exactly R (and Lo == Hi == R);
//   - M == 1 carries no congruence information (R == 0);
//   - M > 1 is a real congruence with 0 <= R < M.
//
// A transfer whose result could wrap (int32 overflow) degrades to Top, so a
// Val never claims more than the machine's wrapping arithmetic delivers.
// Only a compare's operands may lie outside the int32 range: Narrow works in
// int64 and a caller may compare against a shifted constant.
type Val struct {
	Lo, Hi int64
	M, R   int64
}

// Top is the unconstrained i32 value.
var Top = Val{math.MinInt32, math.MaxInt32, 1, 0}

// Bool abstracts the 0 or 1 a compare writes.
var Bool = Val{0, 1, 1, 0}

// Exact abstracts a known constant, wrapped to int32.
func Exact(v int64) Val {
	w := int64(int32(v))
	return Val{w, w, 0, w}
}

// IsExact reports the value is a single known constant.
func (a Val) IsExact() bool { return a.M == 0 }

// String renders the value in report syntax: "=7", "[0,252]≡0(mod 4)".
func (a Val) String() string {
	if a.M == 0 {
		return fmt.Sprintf("=%d", a.R)
	}
	s := fmt.Sprintf("[%d,%d]", a.Lo, a.Hi)
	if a.M > 1 {
		s += fmt.Sprintf("≡%d(mod %d)", a.R, a.M)
	}
	return s
}

// mod is the non-negative remainder of a by m (m > 0).
func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// GCD is the non-negative greatest common divisor; GCD(0, 0) is 0.
func GCD(a, b int64) int64 {
	a, b = Abs64(a), Abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Abs64 is |v|.
func Abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// mk normalizes a candidate (lo, hi, m, r) into a Val: bounds are snapped
// inward to the congruence, a singleton collapses to M == 0, and an empty
// result reports ok == false.
func mk(lo, hi, m, r int64) (Val, bool) {
	if m > 1 {
		r = mod(r, m)
		lo += mod(r-lo, m)
		hi -= mod(hi-r, m)
	}
	switch {
	case lo > hi:
		return Val{}, false
	case lo == hi:
		return Val{lo, hi, 0, lo}, true
	case m <= 1:
		return Val{lo, hi, 1, 0}, true
	}
	return Val{lo, hi, m, r}, true
}

// i32 builds the result of an int32-producing operation: any possibility of
// wrap degrades the whole value to Top, because a congruence mod m does not
// survive reduction mod 2³² unless the value provably did not wrap.
func i32(lo, hi, m, r int64) Val {
	if lo < math.MinInt32 || hi > math.MaxInt32 {
		return Top
	}
	if v, ok := mk(lo, hi, m, r); ok {
		return v
	}
	return Top
}

// cjoin joins two congruences (the gcd join).
func cjoin(m1, r1, m2, r2 int64) (int64, int64) {
	m := GCD(GCD(m1, m2), r1-r2)
	if m == 0 {
		return 0, r1
	}
	return m, mod(r1, m)
}

// Join is the least upper bound: interval hull and congruence gcd join.
func (a Val) Join(b Val) Val {
	m, r := cjoin(a.M, a.R, b.M, b.R)
	v, _ := mk(min(a.Lo, b.Lo), max(a.Hi, b.Hi), m, r) // the hull of two values is not empty
	return v
}

// Widening thresholds: a moving bound climbs this ladder instead of jumping
// straight to the int32 end. The intermediate rungs matter beyond precision:
// safecheck's affine equalities refuse "r2 == r1 + d" when the add could
// wrap, so a counter widened to MaxInt32 loses the equalities the descending
// phase needs to pull loop bounds back in.
var (
	widenLos = []int64{-1 << 10, -1 << 16, -1 << 20, -1 << 26}
	widenHis = []int64{1 << 10, 1 << 16, 1 << 20, 1 << 26}
)

// Widen accelerates convergence: a bound that moved since old jumps to the
// next threshold (the congruence join terminates on its own: each strict
// gcd step at least halves the modulus).
func (a Val) Widen(old Val) Val { return a.widen(old, widenLos, widenHis) }

// WidenToEnds is Widen without the thresholds: a moving bound jumps to the
// int32 end. opt's ranges widens this way; the thresholds there prove more
// dividends non-negative, and the cheaper divide forms that follow lower
// the benchmark's ops per instruction.
func (a Val) WidenToEnds(old Val) Val { return a.widen(old, nil, nil) }

func (a Val) widen(old Val, los, his []int64) Val {
	lo, hi := old.Lo, old.Hi
	if a.Lo < old.Lo {
		lo = math.MinInt32
		for _, t := range los {
			if t <= a.Lo {
				lo = t
				break
			}
		}
	}
	if a.Hi > old.Hi {
		hi = math.MaxInt32
		for _, t := range his {
			if t >= a.Hi {
				hi = t
				break
			}
		}
	}
	m, r := cjoin(old.M, old.R, a.M, a.R)
	v, _ := mk(lo, hi, m, r)
	return v
}

// Clamp intersects the value with [lo, hi], reporting ok == false when the
// intersection is empty.
func (a Val) Clamp(lo, hi int64) (Val, bool) {
	return mk(max(lo, a.Lo), min(hi, a.Hi), a.M, a.R)
}

// TrimNE removes the constant c from the value where the interval can
// express it (only at its ends).
func (a Val) TrimNE(c int64) (Val, bool) {
	lo, hi := a.Lo, a.Hi
	if lo == c {
		lo++
	}
	if hi == c {
		hi--
	}
	return mk(lo, hi, a.M, a.R)
}

// ExcludesZero reports that no concrete value of a can be zero: the proof
// obligation of a divide.
func (a Val) ExcludesZero() bool {
	if a.Lo > 0 || a.Hi < 0 {
		return true
	}
	if a.M == 0 {
		return a.R != 0
	}
	return a.M > 1 && mod(a.R, a.M) != 0
}

// congMax bounds the congruence arithmetic of a multiply: operands beyond it
// give up the congruence so that the products cannot overflow int64.
const congMax = int64(1) << 31

// Eval abstracts the i32 result of opcode k from its operands' values (a, b
// and, for Select, c), with the wrapping semantics of mach.ValueOf. A divide
// by zero traps before it writes, so Div and Rem bound the result over the
// non-zero divisors only. An opcode whose result is not an i32 the domain
// models (a load, a float) is Top.
func Eval(k ir.OpKind, a, b, c Val) Val {
	if v := mach.ValueOf(k); v != nil && !v.FloatIn && !v.FloatOut && a.IsExact() && (v.Unary || b.IsExact()) {
		x, y := mach.IBits(int32(a.R)), mach.IBits(int32(b.R))
		if (k != ir.Div && k != ir.Rem) || !mach.DivTraps(y) {
			return Exact(int64(int32(uint32(v.Fn(x, y)))))
		}
	}
	switch k {
	case ir.ConstI, ir.Mov:
		return a
	case ir.Select:
		return b.Join(c)
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return Bool
	case ir.Add:
		return i32(a.Lo+b.Lo, a.Hi+b.Hi, GCD(a.M, b.M), a.R+b.R)
	case ir.Sub:
		return i32(a.Lo-b.Hi, a.Hi-b.Lo, GCD(a.M, b.M), a.R-b.R)
	case ir.Neg:
		return i32(-a.Hi, -a.Lo, a.M, -a.R)
	case ir.Not: // ^x == -x-1
		return i32(-a.Hi-1, -a.Lo-1, a.M, -a.R-1)
	case ir.Mul:
		return mul(a, b)
	case ir.Div:
		return div(a, b)
	case ir.Rem:
		return rem(a, b)
	case ir.And:
		return and(a, b)
	case ir.Or, ir.Xor:
		if a.Lo >= 0 && b.Lo >= 0 {
			return i32(0, 1<<bits.Len64(uint64(max(a.Hi, b.Hi)))-1, 1, 0)
		}
	case ir.Shl:
		if b.IsExact() {
			return mul(a, Exact(1<<mach.ShiftCount(int32(b.R))))
		}
	case ir.Shr:
		return shr(a, b)
	case ir.Sra:
		if b.IsExact() {
			n := mach.ShiftCount(int32(b.R))
			return i32(a.Lo>>n, a.Hi>>n, 1, 0)
		}
		return i32(min(a.Lo, 0), max(a.Hi, 0), 1, 0)
	}
	return Top
}

func mul(a, b Val) Val {
	p := [4]int64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
	m, r := int64(1), int64(0)
	if a.M < congMax && b.M < congMax && Abs64(a.R) < congMax && Abs64(b.R) < congMax {
		m, r = GCD(GCD(a.M*b.M, a.M*b.R), b.M*a.R), a.R*b.R
	}
	return i32(min(p[0], p[1], p[2], p[3]), max(p[0], p[1], p[2], p[3]), m, r)
}

// div bounds a truncating divide by a constant, which is monotone in the
// dividend: MinInt32 / −1 wraps.
func div(a, b Val) Val {
	switch c := b.R; {
	case !b.IsExact():
	case c > 0:
		return i32(a.Lo/c, a.Hi/c, 1, 0)
	case c < 0:
		return i32(a.Hi/c, a.Lo/c, 1, 0)
	}
	return Top
}

// rem bounds a truncating remainder: |x % y| < |y|, with x's sign. By a
// constant c, x % c = x − q·c keeps x's congruence modulo any divisor of c.
func rem(a, b Val) Val {
	lim := max(-b.Lo, b.Hi) - 1
	if lim < 0 {
		return Top // the divisor is 0: the op traps
	}
	m := int64(1)
	if b.IsExact() {
		m = GCD(a.M, b.R)
	}
	return i32(max(min(a.Lo, 0), -lim), min(max(a.Hi, 0), lim), m, a.R)
}

// and bounds x & y. And-ing clears bits, so the result is at most x when
// x ≥ 0 or y < 0, and non-negative when either side is. A constant with k low
// zero bits makes it ≡ 0 mod 2^k, and a mask −2^k rounds x down to a
// multiple of 2^k.
func and(a, b Val) Val {
	if a.IsExact() {
		a, b = b, a // a constant side in b
	}
	lo, hi := int64(math.MinInt32), int64(math.MaxInt32)
	if a.Lo >= 0 || b.Hi < 0 {
		hi = min(hi, a.Hi)
	}
	if b.Lo >= 0 || a.Hi < 0 {
		hi = min(hi, b.Hi)
	}
	if a.Lo >= 0 || b.Lo >= 0 {
		lo = 0
	}
	m := int64(1)
	if b.IsExact() {
		m = 1 << min(bits.TrailingZeros32(uint32(b.R)), 16)
		if b.R == -m {
			lo = max(lo, a.Lo-(m-1))
		}
	}
	return i32(lo, hi, m, 0)
}

// shr bounds a logical right shift.
func shr(a, b Val) Val {
	if !b.IsExact() {
		if a.Lo >= 0 {
			return i32(0, a.Hi, 1, 0)
		}
		return Top
	}
	n := mach.ShiftCount(int32(b.R))
	switch {
	case n == 0:
		return a
	case a.Lo >= 0:
		return i32(a.Lo>>n, a.Hi>>n, 1, 0)
	case a.Hi < 0: // the negatives as unsigned words, shifted
		return i32(int64(uint32(a.Lo)>>n), int64(uint32(a.Hi)>>n), 1, 0)
	}
	return i32(0, math.MaxUint32>>n, 1, 0)
}

// Negate is the compare that holds exactly when k does not.
func Negate(k ir.OpKind) ir.OpKind {
	switch k {
	case ir.CmpEQ:
		return ir.CmpNE
	case ir.CmpNE:
		return ir.CmpEQ
	case ir.CmpLT:
		return ir.CmpGE
	case ir.CmpGE:
		return ir.CmpLT
	case ir.CmpLE:
		return ir.CmpGT
	case ir.CmpGT:
		return ir.CmpLE
	}
	return k
}

// Narrow returns the operand values under which "a k b" is taken (or, with
// taken false, not taken), and false when no pair of them can be. An
// operation other than an integer compare narrows nothing.
func Narrow(k ir.OpKind, a, b Val, taken bool) (Val, Val, bool) {
	if !taken {
		k = Negate(k)
	}
	na, nb, oka, okb := a, b, true, true
	switch k {
	case ir.CmpEQ:
		na, oka = a.Clamp(b.Lo, b.Hi)
		nb, okb = b.Clamp(na.Lo, na.Hi)
	case ir.CmpNE:
		if b.IsExact() {
			na, oka = a.TrimNE(b.R)
		}
		if a.IsExact() {
			nb, okb = b.TrimNE(a.R)
		}
	case ir.CmpLT:
		na, oka = a.Clamp(a.Lo, b.Hi-1)
		nb, okb = b.Clamp(a.Lo+1, b.Hi)
	case ir.CmpLE:
		na, oka = a.Clamp(a.Lo, b.Hi)
		nb, okb = b.Clamp(a.Lo, b.Hi)
	case ir.CmpGT:
		na, oka = a.Clamp(b.Lo+1, a.Hi)
		nb, okb = b.Clamp(b.Lo, a.Hi-1)
	case ir.CmpGE:
		na, oka = a.Clamp(b.Lo, a.Hi)
		nb, okb = b.Clamp(b.Lo, a.Hi)
	}
	return na, nb, oka && okb
}
