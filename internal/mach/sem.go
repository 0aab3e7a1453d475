package mach

import (
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
)

// This file is the one definition of what each pure opcode computes. Every
// vliw executor (the plan interpreter, the native translator) and the
// optimizer's constant folder draw from it, so a semantics fix or a new
// opcode is one table entry and the tiers agree by construction.
//
// Two implementations deliberately stay out: ir.Interp is the reference the
// fuzz oracle compares the machine against, and internal/schedcheck is the
// verifier's independent second implementation. Routing either through this
// table would make them agree with a bug instead of catching it.

// Value is the pure value semantics of one opcode: a function of the raw
// register bits of its operands. An i32 travels in the low word, an f64 as
// its IEEE bits, a compare result as 0 or 1 — the same encoding the
// simulator's write pipeline carries.
type Value struct {
	// Fn computes the result bits from the operand bits. Unary ops ignore b.
	// Div and Rem panic on a zero divisor (the Go runtime's own check); a
	// caller that has not proved the divisor non-zero tests DivTraps first.
	Fn func(a, b uint64) uint64
	// FloatIn says the operands are f64 bits; otherwise they are i32.
	FloatIn bool
	// FloatOut says the result is f64 bits; otherwise it is an i32.
	FloatOut bool
	Unary    bool
	// Flop marks floating arithmetic, the ops Stats.FloatOps counts.
	Flop bool
}

// ValueOf returns the value semantics of a pure opcode, or nil for the
// opcodes that are not a function of their operands alone (memory, moves,
// constants, select, control).
func ValueOf(k ir.OpKind) *Value {
	if int(k) < len(values) && values[k].Fn != nil {
		return &values[k]
	}
	return nil
}

// IBits, FBits and BoolBits pack a result for the register-write pipeline.
func IBits(v int32) uint64   { return uint64(uint32(v)) }
func FBits(v float64) uint64 { return math.Float64bits(v) }
func BoolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func i32(x uint64) int32   { return int32(uint32(x)) }
func f64(x uint64) float64 { return math.Float64frombits(x) }

// ShiftCount is the shift amount the 32-bit shifter decodes from an operand:
// its low five bits, so counts of 32 and above and negative counts wrap.
func ShiftCount(b int32) uint32 { return uint32(b) & 31 }

// FtoI truncates toward zero; NaN and values outside the i32 range have no
// integer image and produce the §7 funny number instead of trapping.
func FtoI(v float64) int32 {
	if math.IsNaN(v) || v > math.MaxInt32 || v < math.MinInt32 {
		return int32(ir.FunnyI32)
	}
	return int32(v)
}

// DivTraps is the integer divide/remainder trap condition on the divisor's
// register bits. MinInt32 / -1 does not trap: it wraps to MinInt32 (and the
// remainder is 0), as two's-complement hardware does.
func DivTraps(divisor uint64) bool { return uint32(divisor) == 0 }

// SpecPoison is what a speculative load (§7) delivers when its address has
// no valid translation: the funny number for an integer, NaN for a float.
func SpecPoison(t ir.Type) uint64 {
	if t == ir.I32 {
		return IBits(int32(ir.FunnyI32))
	}
	return FBits(math.NaN())
}

var values = [...]Value{
	ir.Add: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) + i32(b)) }},
	ir.Sub: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) - i32(b)) }},
	ir.Mul: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) * i32(b)) }},
	ir.Div: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) / i32(b)) }},
	ir.Rem: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) % i32(b)) }},
	ir.And: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) & i32(b)) }},
	ir.Or:  {Fn: func(a, b uint64) uint64 { return IBits(i32(a) | i32(b)) }},
	ir.Xor: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) ^ i32(b)) }},
	ir.Shl: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) << ShiftCount(i32(b))) }},
	ir.Shr: {Fn: func(a, b uint64) uint64 { return uint64(uint32(a) >> ShiftCount(i32(b))) }},
	ir.Sra: {Fn: func(a, b uint64) uint64 { return IBits(i32(a) >> ShiftCount(i32(b))) }},
	ir.Neg: {Unary: true, Fn: func(a, _ uint64) uint64 { return IBits(-i32(a)) }},
	ir.Not: {Unary: true, Fn: func(a, _ uint64) uint64 { return IBits(^i32(a)) }},

	ir.CmpEQ: {Fn: func(a, b uint64) uint64 { return BoolBits(i32(a) == i32(b)) }},
	ir.CmpNE: {Fn: func(a, b uint64) uint64 { return BoolBits(i32(a) != i32(b)) }},
	ir.CmpLT: {Fn: func(a, b uint64) uint64 { return BoolBits(i32(a) < i32(b)) }},
	ir.CmpLE: {Fn: func(a, b uint64) uint64 { return BoolBits(i32(a) <= i32(b)) }},
	ir.CmpGT: {Fn: func(a, b uint64) uint64 { return BoolBits(i32(a) > i32(b)) }},
	ir.CmpGE: {Fn: func(a, b uint64) uint64 { return BoolBits(i32(a) >= i32(b)) }},

	// Floating arithmetic never traps: NaN and Inf propagate (§7).
	ir.FAdd: {FloatIn: true, FloatOut: true, Flop: true, Fn: func(a, b uint64) uint64 { return FBits(f64(a) + f64(b)) }},
	ir.FSub: {FloatIn: true, FloatOut: true, Flop: true, Fn: func(a, b uint64) uint64 { return FBits(f64(a) - f64(b)) }},
	ir.FMul: {FloatIn: true, FloatOut: true, Flop: true, Fn: func(a, b uint64) uint64 { return FBits(f64(a) * f64(b)) }},
	ir.FDiv: {FloatIn: true, FloatOut: true, Flop: true, Fn: func(a, b uint64) uint64 { return FBits(f64(a) / f64(b)) }},
	ir.FNeg: {FloatIn: true, FloatOut: true, Unary: true, Fn: func(a, _ uint64) uint64 { return FBits(-f64(a)) }},

	ir.FCmpEQ: {FloatIn: true, Fn: func(a, b uint64) uint64 { return BoolBits(f64(a) == f64(b)) }},
	ir.FCmpNE: {FloatIn: true, Fn: func(a, b uint64) uint64 { return BoolBits(f64(a) != f64(b)) }},
	ir.FCmpLT: {FloatIn: true, Fn: func(a, b uint64) uint64 { return BoolBits(f64(a) < f64(b)) }},
	ir.FCmpLE: {FloatIn: true, Fn: func(a, b uint64) uint64 { return BoolBits(f64(a) <= f64(b)) }},
	ir.FCmpGT: {FloatIn: true, Fn: func(a, b uint64) uint64 { return BoolBits(f64(a) > f64(b)) }},
	ir.FCmpGE: {FloatIn: true, Fn: func(a, b uint64) uint64 { return BoolBits(f64(a) >= f64(b)) }},

	ir.ItoF: {FloatOut: true, Unary: true, Fn: func(a, _ uint64) uint64 { return FBits(float64(i32(a))) }},
	ir.FtoI: {FloatIn: true, Unary: true, Fn: func(a, _ uint64) uint64 { return IBits(FtoI(f64(a))) }},
}
