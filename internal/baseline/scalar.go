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

// opLatency is the TRACE's functional-unit latency for the op (§6.1, §6.2):
// the baselines are built of the same implementation technology.
func opLatency(cfg mach.Config, o *ir.Op) int {
	switch o.Kind {
	case ir.Mov, ir.Select:
		// One central register file: a move or select is a pass through the
		// ALU, not the TRACE's 32-bits-per-beat transfer between banks.
		return cfg.LatIALU
	}
	return cfg.Latency(o.Kind, o.Type)
}

// isFloat reports whether k is floating arithmetic, the ops the simulator's
// Stats.FloatOps counts.
func isFloat(k ir.OpKind) bool {
	v := mach.ValueOf(k)
	return v != nil && v.Flop
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
	var res Result
	var clock int64 // next free issue beat
	ready := map[regKey]int64{}
	depth := 0

	in := &ir.Interp{Prog: prog, StepLimit: stepLimit}
	in.OnOp = func(f *ir.Func, block int, o *ir.Op) {
		switch o.Kind {
		case ir.Nop:
			return
		case ir.Call:
			// the call itself: jump-and-link plus argument setup charged as
			// one op per argument
			clock += int64(len(o.Args)) + 1
			depth++
			res.Ops += int64(len(o.Args)) + 1
			res.Branches++
			return
		case ir.Ret:
			clock += 2 // reload/return
			depth--
			res.Ops += 2
			res.Branches++
			return
		}
		issue := clock
		for _, a := range o.Args {
			if t, ok := ready[regKey{depth, a}]; ok && t > issue {
				issue = t
			}
		}
		res.Ops++
		if o.Dst != ir.None {
			ready[regKey{depth, o.Dst}] = issue + int64(opLatency(cfg, o))
		}
		if isFloat(o.Kind) {
			res.FloatOps++
		}
		switch o.Kind {
		case ir.Load, ir.LoadSpec, ir.Store:
			res.MemRefs++
		case ir.Br, ir.CondBr:
			res.Branches++
		}
		clock = issue + 1
	}
	v, out, err := in.Run()
	res.Beats = clock
	return res, v, out, err
}

type regKey struct {
	depth int
	reg   ir.Reg
}
