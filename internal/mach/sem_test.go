package mach

import (
	"math"
	"runtime"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
)

const (
	minI32 = math.MinInt32
	maxI32 = math.MaxInt32
)

func ib(v int32) uint64   { return IBits(v) }
func fb(v float64) uint64 { return FBits(v) }

// TestValueEdges pins the value table on the inputs where a re-implementation
// is most likely to differ: shift counts outside 0..31, the one overflowing
// division, float conversions with no integer image, NaN ordering, and the
// sign of zero.
func TestValueEdges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	funny := ib(int32(ir.FunnyI32))
	for _, tc := range []struct {
		name string
		kind ir.OpKind
		a, b uint64
		want uint64
	}{
		{"shl by 32 wraps to 0", ir.Shl, ib(1), ib(32), ib(1)},
		{"shl by 33 wraps to 1", ir.Shl, ib(1), ib(33), ib(2)},
		{"shl by -1 is by 31", ir.Shl, ib(1), ib(-1), ib(minI32)},
		{"shr is logical", ir.Shr, ib(-1), ib(1), ib(maxI32)},
		{"shr by 32 wraps to 0", ir.Shr, ib(minI32), ib(32), ib(minI32)},
		{"shr by -1 is by 31", ir.Shr, ib(minI32), ib(-1), ib(1)},
		{"sra is arithmetic", ir.Sra, ib(-8), ib(1), ib(-4)},
		{"sra by 33 wraps to 1", ir.Sra, ib(-8), ib(33), ib(-4)},
		{"sra by -1 is by 31", ir.Sra, ib(-8), ib(-1), ib(-1)},

		{"div truncates toward zero", ir.Div, ib(-7), ib(2), ib(-3)},
		{"rem takes the dividend's sign", ir.Rem, ib(-7), ib(2), ib(-1)},
		{"MinInt32 / -1 wraps", ir.Div, ib(minI32), ib(-1), ib(minI32)},
		{"MinInt32 % -1 is 0", ir.Rem, ib(minI32), ib(-1), ib(0)},
		{"neg MinInt32 wraps", ir.Neg, ib(minI32), 0, ib(minI32)},
		{"not 0", ir.Not, ib(0), 0, ib(-1)},
		{"add wraps", ir.Add, ib(maxI32), ib(1), ib(minI32)},
		{"mul wraps", ir.Mul, ib(1 << 16), ib(1 << 16), ib(0)},
		{"only the low word of an operand counts", ir.Add, 0xdead_0000_0001, ib(1), ib(2)},

		{"compares are signed", ir.CmpLT, ib(-1), ib(1), 1},
		{"cmpge on equal", ir.CmpGE, ib(5), ib(5), 1},
		{"cmpgt on equal", ir.CmpGT, ib(5), ib(5), 0},
		{"cmpne", ir.CmpNE, ib(minI32), ib(maxI32), 1},

		{"ftoi truncates", ir.FtoI, fb(1.9), 0, ib(1)},
		{"ftoi truncates toward zero", ir.FtoI, fb(-1.9), 0, ib(-1)},
		{"ftoi of -0.0", ir.FtoI, fb(negZero), 0, ib(0)},
		{"ftoi of MaxInt32", ir.FtoI, fb(maxI32), 0, ib(maxI32)},
		{"ftoi of MinInt32", ir.FtoI, fb(minI32), 0, ib(minI32)},
		{"ftoi just above range", ir.FtoI, fb(maxI32 + 1), 0, funny},
		{"ftoi just below range", ir.FtoI, fb(minI32 - 1), 0, funny},
		{"ftoi of NaN", ir.FtoI, fb(nan), 0, funny},
		{"ftoi of +Inf", ir.FtoI, fb(inf), 0, funny},
		{"ftoi of -Inf", ir.FtoI, fb(-inf), 0, funny},
		{"itof of MinInt32", ir.ItoF, ib(minI32), 0, fb(minI32)},

		{"NaN == NaN", ir.FCmpEQ, fb(nan), fb(nan), 0},
		{"NaN != NaN", ir.FCmpNE, fb(nan), fb(nan), 1},
		{"NaN < 1", ir.FCmpLT, fb(nan), fb(1), 0},
		{"NaN <= 1", ir.FCmpLE, fb(nan), fb(1), 0},
		{"1 > NaN", ir.FCmpGT, fb(1), fb(nan), 0},
		{"1 >= NaN", ir.FCmpGE, fb(1), fb(nan), 0},
		{"-0.0 == 0.0", ir.FCmpEQ, fb(negZero), fb(0), 1},
		{"-0.0 < 0.0", ir.FCmpLT, fb(negZero), fb(0), 0},
		{"fneg 0.0 sets the sign bit", ir.FNeg, fb(0), 0, fb(negZero)},
		{"-0.0 + 0.0 is +0.0", ir.FAdd, fb(negZero), fb(0), fb(0)},
		{"1 / -0.0 is -Inf, no trap", ir.FDiv, fb(1), fb(negZero), fb(-inf)},
		{"Inf - Inf is NaN, no trap", ir.FSub, fb(inf), fb(inf), fb(inf - inf)},
		{"fmul", ir.FMul, fb(1.5), fb(-2), fb(-3)},
	} {
		v := ValueOf(tc.kind)
		if v == nil {
			t.Errorf("%s: %s has no value semantics", tc.name, tc.kind)
			continue
		}
		got := v.Fn(tc.a, tc.b)
		if v.FloatOut && math.IsNaN(math.Float64frombits(tc.want)) {
			if !math.IsNaN(math.Float64frombits(got)) {
				t.Errorf("%s: %s(%#x, %#x) = %#x, want a NaN", tc.name, tc.kind, tc.a, tc.b, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s: %s(%#x, %#x) = %#x, want %#x", tc.name, tc.kind, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestDivideByZero: the trap condition reads the divisor's low word, and an
// unguarded call panics with the runtime's divide error — the backstop the
// guard-free tiers convert back into a fault.
func TestDivideByZero(t *testing.T) {
	for _, tc := range []struct {
		d    uint64
		want bool
	}{{ib(0), true}, {1 << 32, true}, {ib(1), false}, {ib(-1), false}} {
		if got := DivTraps(tc.d); got != tc.want {
			t.Errorf("DivTraps(%#x) = %v, want %v", tc.d, got, tc.want)
		}
	}
	for _, k := range []ir.OpKind{ir.Div, ir.Rem} {
		func() {
			defer func() {
				if _, ok := recover().(runtime.Error); !ok {
					t.Errorf("%s by zero did not raise a runtime error", k)
				}
			}()
			ValueOf(k).Fn(ib(7), ib(0))
		}()
	}
}

func TestShiftCountAndPacking(t *testing.T) {
	for _, tc := range []struct {
		b    int32
		want uint32
	}{{0, 0}, {31, 31}, {32, 0}, {33, 1}, {-1, 31}, {minI32, 0}} {
		if got := ShiftCount(tc.b); got != tc.want {
			t.Errorf("ShiftCount(%d) = %d, want %d", tc.b, got, tc.want)
		}
	}
	if IBits(-1) != 0xffff_ffff {
		t.Errorf("IBits(-1) = %#x: an i32 must not sign-extend into the high word", IBits(-1))
	}
	if BoolBits(true) != 1 || BoolBits(false) != 0 {
		t.Error("BoolBits must pack to exactly 1 and 0")
	}
	if SpecPoison(ir.I32) != ib(int32(ir.FunnyI32)) {
		t.Errorf("SpecPoison(i32) = %#x, want the funny number", SpecPoison(ir.I32))
	}
	if !math.IsNaN(math.Float64frombits(SpecPoison(ir.F64))) {
		t.Error("SpecPoison(f64) is not a NaN")
	}
}

// TestValueTableShape checks the per-opcode metadata the executors, the
// timing model and the scheduler rely on against the IR's opcode ranges, and
// that the structural opcodes stay out of the table.
func TestValueTableShape(t *testing.T) {
	unary := map[ir.OpKind]bool{ir.Neg: true, ir.Not: true, ir.FNeg: true, ir.ItoF: true, ir.FtoI: true}
	flop := map[ir.OpKind]bool{ir.FAdd: true, ir.FSub: true, ir.FMul: true, ir.FDiv: true}
	for k := ir.OpKind(0); k < 255; k++ {
		v := ValueOf(k)
		if k < ir.Add || k > ir.FtoI {
			if v != nil {
				t.Errorf("%s is in the value table but is not a pure value op", OpName(k))
			}
			if u := FUnit(k); u != UnitNone {
				t.Errorf("FUnit(%s) = %s, want none for an op outside the table", OpName(k), u)
			}
			continue
		}
		if v == nil {
			t.Errorf("%s has no entry in the value table", k)
			continue
		}
		if v.Unary != unary[k] || v.Flop != flop[k] {
			t.Errorf("%s: Unary=%v Flop=%v", k, v.Unary, v.Flop)
		}
		wantUnit := UnitNone
		switch {
		case k == ir.FMul || k == ir.FDiv:
			wantUnit = UFM
		case k >= ir.FAdd && k <= ir.FNeg, k >= ir.FCmpEQ && k <= ir.FCmpGE, k == ir.ItoF, k == ir.FtoI:
			wantUnit = UFA
		}
		if v.Unit != wantUnit || FUnit(k) != wantUnit {
			t.Errorf("%s: Unit=%s FUnit=%s, want %s", k, v.Unit, FUnit(k), wantUnit)
		}
		if wantIn := v.Unit != UnitNone && k != ir.ItoF; v.FloatIn != wantIn {
			t.Errorf("%s: FloatIn=%v, want %v", k, v.FloatIn, wantIn)
		}
		if wantOut := (k >= ir.FAdd && k <= ir.FNeg) || k == ir.ItoF; v.FloatOut != wantOut {
			t.Errorf("%s: FloatOut=%v, want %v", k, v.FloatOut, wantOut)
		}
	}
}

// TestLatencyFollowsConfig: every latency the timing model hands out tracks
// the configuration field that defines it — nothing is hard-coded.
func TestLatencyFollowsConfig(t *testing.T) {
	c := Trace28()
	c.LatIALU, c.LatIMul, c.LatIDiv = 2, 11, 41
	c.LatFAdd, c.LatFMul, c.LatFDiv, c.LatLoad, c.LatMove = 13, 17, 43, 19, 3
	for _, tc := range []struct {
		kind ir.OpKind
		typ  ir.Type
		want int
	}{
		{ir.Add, ir.I32, 2}, {ir.CmpLT, ir.I32, 2}, {ir.ConstI, ir.I32, 2},
		{ir.Mul, ir.I32, 11}, {ir.Div, ir.I32, 41}, {ir.Rem, ir.I32, 41},
		{ir.FAdd, ir.F64, 13}, {ir.FCmpGE, ir.F64, 13}, {ir.ItoF, ir.F64, 13}, {ir.FtoI, ir.I32, 13},
		{ir.FMul, ir.F64, 17}, {ir.FDiv, ir.F64, 43},
		{ir.Load, ir.F64, 19}, {ir.LoadSpec, ir.I32, 19},
		{ir.Mov, ir.I32, 3}, {ir.Mov, ir.F64, 6}, {OpMovSF, ir.F64, 6},
		{ir.ConstF, ir.F64, 2}, {ir.Select, ir.I32, 1}, {ir.Select, ir.F64, 2},
		{ir.Store, ir.F64, 1}, {OpCall, ir.Void, 1},
	} {
		if got := c.Latency(tc.kind, tc.typ); got != tc.want {
			t.Errorf("Latency(%s, %s) = %d, want %d", OpName(tc.kind), tc.typ, got, tc.want)
		}
	}
}
