package absval

import (
	"math"
	"math/rand"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// The property tests hold every transfer and the compare narrowing to the
// concrete semantics (Taneja, Liu and Regehr, "Testing static analyses for
// precision and soundness", CGO 2020): every concrete result of an input
// pair the abstract inputs contain must lie in the abstract result.

// grid is the abstract inputs: constants, small intervals around 0, the
// int32 ends, and congruences mod 2, 4 and 8.
func grid() []Val {
	var g []Val
	for _, c := range []int64{0, 1, -1, 2, 3, 7, 8, -8, 31, 32, 33, 255, -256, math.MaxInt32, math.MinInt32} {
		g = append(g, Exact(c))
	}
	for _, v := range [][4]int64{
		{-3, 3, 1, 0}, {0, 5, 1, 0}, {-8, -1, 1, 0}, {0, 1, 1, 0}, {0, 63, 1, 0}, {-64, 0, 1, 0},
		{-32, 31, 1, 0}, {1, 40, 1, 0}, {-1000, 1000, 1, 0},
		{math.MaxInt32 - 5, math.MaxInt32, 1, 0}, {math.MinInt32, math.MinInt32 + 5, 1, 0},
		{0, math.MaxInt32, 1, 0}, {math.MinInt32, -1, 1, 0}, {math.MinInt32, math.MaxInt32, 1, 0},
		{-16, 16, 2, 0}, {-15, 17, 2, 1}, {0, 60, 4, 0}, {3, 63, 4, 3}, {-31, 33, 4, 1},
		{1, 57, 8, 1}, {-64, 56, 8, 0}, {0, 1 << 20, 8, 0}, {-7, math.MaxInt32 - 6, 8, 1},
	} {
		g = append(g, must(mk(v[0], v[1], v[2], v[3])))
	}
	return g
}

func must(v Val, ok bool) Val {
	if !ok {
		panic("empty grid value")
	}
	return v
}

// contains reports whether x is a concrete value of a.
func contains(a Val, x int64) bool {
	if x < a.Lo || x > a.Hi {
		return false
	}
	switch a.M {
	case 0:
		return x == a.R
	case 1:
		return true
	}
	return mod(x, a.M) == a.R
}

// count is the number of concrete values of a.
func count(a Val) int64 {
	if a.M == 0 {
		return 1
	}
	return (a.Hi-a.Lo)/a.M + 1
}

// concrete lists a's values when it has at most n of them, and otherwise
// its ends and n−2 values sampled from it.
func concrete(a Val, n int64, rng *rand.Rand) []int64 {
	step := max(a.M, 1)
	if c := count(a); c <= n {
		xs := make([]int64, 0, c)
		for x := a.Lo; x <= a.Hi; x += step {
			xs = append(xs, x)
		}
		return xs
	}
	xs := []int64{a.Lo, a.Hi}
	for len(xs) < int(n) {
		xs = append(xs, a.Lo+rng.Int63n(count(a))*step)
	}
	return xs
}

// i32Ops are the opcodes of mach's table with i32 operands and an i32
// result.
func i32Ops() []ir.OpKind {
	var ks []ir.OpKind
	for k := ir.OpKind(0); k < 64; k++ {
		if v := mach.ValueOf(k); v != nil && !v.FloatIn && !v.FloatOut {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestTransfersAreSound runs every i32 opcode of mach's table over the grid:
// each concrete result must lie in Eval's. Inputs of at most 64 values each
// are enumerated, wider ones sampled. On pairs of at most 64 values each it
// also computes the best interval transformer by enumeration and logs how
// far Eval's interval is from it.
func TestTransfersAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := grid()
	ops := i32Ops()
	if len(ops) != 19 {
		t.Fatalf("%d i32 opcodes in mach's table, want 19", len(ops))
	}
	for _, k := range ops {
		v := mach.ValueOf(k)
		bs := g
		if v.Unary {
			bs = []Val{Exact(0)}
		}
		bad, pairs, best, tops := 0, 0, 0, 0
		for _, a := range g {
			xs := concrete(a, 64, rng)
			for _, b := range bs {
				got := Eval(k, a, b, Top)
				lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
				for _, y := range concrete(b, 64, rng) {
					if (k == ir.Div || k == ir.Rem) && mach.DivTraps(mach.IBits(int32(y))) {
						continue
					}
					for _, x := range xs {
						r := int64(int32(uint32(v.Fn(mach.IBits(int32(x)), mach.IBits(int32(y))))))
						lo, hi = min(lo, r), max(hi, r)
						if !contains(got, r) && bad < 3 {
							bad++
							t.Errorf("%v(%d, %d) = %d, outside %v(%s, %s) = %s", k, x, y, r, k, a, b, got)
						}
					}
				}
				if count(a) > 64 || count(b) > 64 || lo > hi {
					continue
				}
				pairs++
				if got.Lo == lo && got.Hi == hi {
					best++
				} else if got.Lo == math.MinInt32 && got.Hi == math.MaxInt32 {
					tops++
				}
			}
		}
		t.Logf("%-5v best interval on %3d of %3d enumerated pairs, Top on %3d", k, best, pairs, tops)
	}
}

// TestNarrowIsSound: every concrete pair of the grid that takes (or does not
// take) a compare lies in the pair Narrow returns for that edge, and Narrow
// calls no such edge dead.
func TestNarrowIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := grid()
	for k := ir.CmpEQ; k <= ir.CmpGE; k++ {
		fn := mach.ValueOf(k).Fn
		bad := 0
		for _, a := range g {
			xs := concrete(a, 48, rng)
			for _, b := range g {
				ys := concrete(b, 48, rng)
				for _, taken := range []bool{true, false} {
					na, nb, ok := Narrow(k, a, b, taken)
					for _, x := range xs {
						for _, y := range ys {
							holds := fn(mach.IBits(int32(x)), mach.IBits(int32(y))) == 1
							if holds == taken && !(ok && contains(na, x) && contains(nb, y)) && bad < 3 {
								bad++
								t.Errorf("%d %v %d is %v, but Narrow(%s, %s, %v) = %s, %s, %v",
									x, k, y, taken, a, b, taken, na, nb, ok)
							}
						}
					}
				}
			}
		}
	}
}

func TestNegateIsTheComplement(t *testing.T) {
	for k := ir.CmpEQ; k <= ir.CmpGE; k++ {
		f, nf := mach.ValueOf(k).Fn, mach.ValueOf(Negate(k)).Fn
		for _, p := range [][2]int32{{0, 0}, {1, 2}, {2, 1}, {-1, 1}, {math.MinInt32, math.MaxInt32}} {
			x, y := mach.IBits(p[0]), mach.IBits(p[1])
			if f(x, y) == nf(x, y) {
				t.Errorf("%v and Negate(%v) = %v agree on %d, %d", k, k, Negate(k), p[0], p[1])
			}
		}
	}
}
