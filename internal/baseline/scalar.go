// Package baseline implements the comparison machines of the paper's
// argument: a sequential scalar processor built of the same implementation
// technology (the "conventional machine" of §1), a dynamically scheduled
// "scoreboard" machine whose lookahead stops at basic-block boundaries
// (§3's Tomasulo/CDC-6600 discussion and the Acosta 2–3× result), and a
// tightly-encoded CISC code-size model standing in for the VAX object code
// of §9. All run the same IR the TRACE compiler consumes, so comparisons
// are apples-to-apples on work performed.
package baseline

import (
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Result reports a baseline timing simulation.
type Result struct {
	Beats    int64
	Ops      int64
	FloatOps int64
	Branches int64
	MemRefs  int64
}

// MIPS returns achieved operations per second in millions.
func (r Result) MIPS() float64 {
	if r.Beats == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.Beats) * mach.BeatNs * 1e-3)
}

// timing is what both baselines keep while the interpreter runs a program:
// the issue clock, the beat each register's value is ready at, the ops issued
// of every kind, and the latency and unit class of every kind, built once from
// the configuration. The two machines differ only in when an op may start
// (Scalar, ScoreboardWide).
type timing struct {
	res    Result // what calls and returns cost; result adds the issued ops
	clock  int64
	issued [256]int64 // by op kind
	lat    [256]int64
	unit   [256]uint8
	// ready holds one frame of stride beats (the most registers a function
	// names) per live call, the current one at frame. A call's frame starts
	// all-ready: a callee never waits on a write an earlier callee made to
	// the same register number.
	ready         []int64
	frame, stride int
}

// The scoreboard's unit classes.
const (
	unitIALU = iota
	unitFAdd
	unitFMul
	unitMem
)

func newTiming(prog *ir.Program, cfg *mach.Config) *timing {
	t := &timing{}
	for i := range t.lat {
		k := ir.OpKind(i)
		// The TRACE's functional-unit latencies (§6.1, §6.2): the baselines
		// are built of the same implementation technology. But one central
		// register file: a move or select is a pass through the ALU, not the
		// TRACE's 32-bits-per-beat transfer between banks.
		t.lat[i] = int64(cfg.Latency(k, ir.I32))
		switch k {
		case ir.Mov, ir.Select:
			t.lat[i] = int64(cfg.LatIALU)
		case ir.Load, ir.LoadSpec, ir.Store:
			t.unit[i] = unitMem
		case ir.FAdd, ir.FSub, ir.FNeg, ir.ItoF, ir.FtoI,
			ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
			t.unit[i] = unitFAdd
		case ir.FMul, ir.FDiv:
			t.unit[i] = unitFMul
		}
	}
	for _, f := range prog.Funcs {
		t.stride = max(t.stride, f.NumRegs())
	}
	t.ready = make([]int64, t.stride)
	return t
}

// transfer charges a call or a return. A call is one op and one beat per
// argument move plus the jump and link (callBeats), and runs its callee in a
// fresh frame; a builtin has no return, so it keeps its caller's. A return is
// two ops and two beats (reload and return) and goes back to the caller's
// frame.
func (t *timing) transfer(o *ir.Op, callBeats int64) {
	switch o.Kind {
	case ir.Call:
		n := int64(len(o.Args))
		t.res.Ops += n + 1
		t.clock += n + callBeats
		if !ir.IsBuiltin(o.Sym) {
			t.frame += t.stride
			if t.frame+t.stride > len(t.ready) {
				t.ready = append(t.ready, make([]int64, t.stride)...)
			}
			clear(t.ready[t.frame : t.frame+t.stride])
		}
	case ir.Ret:
		t.res.Ops += 2
		t.clock += 2
		t.frame -= t.stride
	}
	t.res.Branches++
}

// operands returns the first beat at or after at by which every operand of o
// is ready.
func (t *timing) operands(o *ir.Op, at int64) int64 {
	for _, a := range o.Args {
		at = max(at, t.ready[t.frame+int(a)])
	}
	return at
}

// issue counts o, started at start, and makes its result ready its latency
// later.
func (t *timing) issue(o *ir.Op, start int64) {
	t.issued[o.Kind]++
	if o.Dst != ir.None {
		t.ready[t.frame+int(o.Dst)] = start + t.lat[o.Kind]
	}
}

// result is the run's counters: the transfers' and every issued op's.
func (t *timing) result(beats int64) Result {
	r := t.res
	r.Beats = beats
	for i, n := range t.issued {
		k := ir.OpKind(i)
		r.Ops += n
		if v := mach.ValueOf(k); v != nil && v.Flop { // what the simulator's Stats.FloatOps counts
			r.FloatOps += n
		}
		switch k {
		case ir.Load, ir.LoadSpec, ir.Store:
			r.MemRefs += n
		case ir.Br, ir.CondBr:
			r.Branches += n
		}
	}
	return r
}

// Scalar simulates the program on an in-order, single-issue machine with
// full interlocks: one operation issues per beat, stalling until its
// operands' pipelines have drained. Branches redirect in one beat. This is
// the machine the paper's factor-of-ten claims are measured against.
func Scalar(prog *ir.Program, cfg mach.Config) (Result, int32, string, error) {
	return ScalarBudget(prog, cfg, 0)
}

// ScalarBudget is Scalar with an explicit interpreter step budget (0 uses
// the interpreter default). The differential fuzz oracle uses a small
// budget so a generator bug cannot wedge a fuzz worker for minutes.
func ScalarBudget(prog *ir.Program, cfg mach.Config, stepLimit int64) (Result, int32, string, error) {
	t := newTiming(prog, &cfg)
	in := &ir.Interp{Prog: prog, StepLimit: stepLimit}
	in.OnOps = func(ops []ir.Op) {
		for i := range ops {
			o := &ops[i]
			switch o.Kind {
			case ir.Nop:
			case ir.Call, ir.Ret:
				t.transfer(o, 1)
			default:
				start := t.operands(o, t.clock)
				t.issue(o, start)
				t.clock = start + 1
			}
		}
	}
	v, out, err := in.Run()
	return t.result(t.clock), v, out, err
}
