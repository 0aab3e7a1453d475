package safecheck

import (
	"math"
	"testing"

	"github.com/multiflow-repro/trace/internal/absval"
	"github.com/multiflow-repro/trace/internal/ir"
)

// Hand-picked cases of the value domain the analysis runs in: the precision
// each one asks for is what a verdict needs. Soundness of every transfer is
// absval's property test.

func eval(k ir.OpKind, a, b absval.Val) absval.Val { return absval.Eval(k, a, b, absval.Top) }

func TestExactWrapsToInt32(t *testing.T) {
	v := absval.Exact(math.MaxInt32 + 1)
	if !v.IsExact() || v.R != math.MinInt32 {
		t.Fatalf("Exact(2^31) = %s, want =%d", v, math.MinInt32)
	}
}

func TestMulKeepsCongruence(t *testing.T) {
	// i in [0,255] times 8: the address stride the examples use
	i := absval.Val{Lo: 0, Hi: 255, M: 1}
	v := eval(ir.Mul, i, absval.Exact(8))
	if v.Lo != 0 || v.Hi != 2040 || v.M != 8 || v.R != 0 {
		t.Fatalf("[0,255]*8 = %s, want [0,2040]≡0(mod 8)", v)
	}
}

func TestShlIsMulByPowerOfTwo(t *testing.T) {
	i := absval.Val{Lo: 0, Hi: 255, M: 1}
	if got, want := eval(ir.Shl, i, absval.Exact(3)), eval(ir.Mul, i, absval.Exact(8)); got != want {
		t.Fatalf("[0,255]<<3 = %s, want %s", got, want)
	}
}

func TestAndMaskAligns(t *testing.T) {
	v := eval(ir.And, absval.Val{Lo: 0, Hi: 1000, M: 1}, absval.Exact(^int64(7)))
	if v.M != 8 || v.R != 0 || v.Lo < 0 || v.Hi > 1000 {
		t.Fatalf("[0,1000] & ^7 = %s, want 8-aligned within [0,1000]", v)
	}
	// a non-negative mask bounds any value: the fuzz.Gen index gi[(x*3+1) & 15]
	if v := eval(ir.And, absval.Top, absval.Exact(15)); v.Lo != 0 || v.Hi != 15 {
		t.Fatalf("Top & 15 = %s, want [0,15]", v)
	}
}

func TestJoinHullAndGcd(t *testing.T) {
	v := absval.Exact(4).Join(absval.Exact(12))
	if v.Lo != 4 || v.Hi != 12 || v.M != 8 || v.R != 4 {
		t.Fatalf("join(=4,=12) = %s, want [4,12]≡4(mod 8)", v)
	}
}

func TestWidenClimbsThresholds(t *testing.T) {
	old := absval.Val{Lo: 0, Hi: 100, M: 1}
	grown := absval.Val{Lo: 0, Hi: 101, M: 1}
	w := grown.Widen(old)
	if w.Hi != 1<<10 || w.Lo != 0 {
		t.Fatalf("widen step 1 = %s, want hi at first threshold %d", w, 1<<10)
	}
	w2 := absval.Val{Lo: 0, Hi: w.Hi + 1, M: 1}.Widen(w)
	if w2.Hi != 1<<16 {
		t.Fatalf("widen step 2 = %s, want hi at %d", w2, 1<<16)
	}
	// a stable bound must not move
	if s := old.Widen(old); s != old {
		t.Fatalf("widen of unchanged value = %s, want %s", s, old)
	}
	// opt's widening skips the thresholds
	if e := grown.WidenToEnds(old); e.Lo != 0 || e.Hi != math.MaxInt32 {
		t.Fatalf("widen to ends = %s, want [0,%d]", e, math.MaxInt32)
	}
}

func TestClampSnapsToCongruence(t *testing.T) {
	v := absval.Val{Lo: 0, Hi: 2040, M: 8}
	c, ok := v.Clamp(1, 2039)
	if !ok || c.Lo != 8 || c.Hi != 2032 {
		t.Fatalf("clamp [0,2040]≡0(8) to [1,2039] = %s ok=%v, want [8,2032]", c, ok)
	}
	if _, ok := v.Clamp(1, 7); ok {
		t.Fatal("clamp to a congruence gap should be infeasible")
	}
}

func TestClampCollapsesToExact(t *testing.T) {
	v, ok := (absval.Val{Lo: 0, Hi: 100, M: 1}).Clamp(42, 42)
	if !ok || !v.IsExact() || v.R != 42 {
		t.Fatalf("clamp to singleton = %s ok=%v", v, ok)
	}
}

func TestTrimNE(t *testing.T) {
	v, ok := (absval.Val{Lo: 0, Hi: 10, M: 1}).TrimNE(0)
	if !ok || v.Lo != 1 {
		t.Fatalf("trim 0 from [0,10] = %s ok=%v", v, ok)
	}
	if _, ok := absval.Exact(0).TrimNE(0); ok {
		t.Fatal("trimming the only value must report infeasible")
	}
	mid, ok := (absval.Val{Lo: 0, Hi: 10, M: 1}).TrimNE(5)
	if !ok || mid.Lo != 0 || mid.Hi != 10 {
		t.Fatalf("interior trim must be a no-op, got %s", mid)
	}
}

func TestExcludesZero(t *testing.T) {
	cases := []struct {
		v    absval.Val
		want bool
	}{
		{absval.Exact(0), false},
		{absval.Exact(3), true},
		{absval.Val{Lo: 1, Hi: 10, M: 1}, true},
		{absval.Val{Lo: -10, Hi: -1, M: 1}, true},
		{absval.Val{Lo: -10, Hi: 10, M: 1}, false},
		{absval.Val{Lo: -10, Hi: 10, M: 4, R: 1}, true}, // ≡1 (mod 4) is never zero
		{absval.Val{Lo: -10, Hi: 10, M: 4}, false},
	}
	for _, c := range cases {
		if got := c.v.ExcludesZero(); got != c.want {
			t.Errorf("%s.ExcludesZero() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestDivRemRanges(t *testing.T) {
	if v := eval(ir.Div, absval.Val{Lo: 0, Hi: 100, M: 1}, absval.Exact(10)); v.Lo != 0 || v.Hi != 10 {
		t.Fatalf("[0,100]/10 = %s", v)
	}
	// stride a multiple of the divisor pins the remainder
	if v := eval(ir.Rem, absval.Val{Lo: 3, Hi: 83, M: 8, R: 3}, absval.Exact(4)); !v.IsExact() || v.R != 3 {
		t.Fatalf("([3,83]≡3(8)) %% 4 = %s, want =3", v)
	}
	if v := eval(ir.Rem, absval.Val{Lo: 0, Hi: 100, M: 1}, absval.Exact(7)); v.Lo != 0 || v.Hi != 6 {
		t.Fatalf("[0,100] %% 7 = %s", v)
	}
}
