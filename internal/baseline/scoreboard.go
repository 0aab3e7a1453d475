package baseline

import (
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Scoreboard simulates a dynamically scheduled machine in the style of the
// IBM 360/91 (§3): in-order issue of one operation per beat, register
// renaming à la Tomasulo (so WAW/WAR do not stall), out-of-order completion
// at the functional units — and, decisively, issue stops at every
// conditional branch until it resolves, because "the hardware cannot see
// past basic blocks in order to find usable concurrency". What remains is
// latency hiding within one block, which is why Acosta et al. put the
// ceiling of this approach at a factor of 2 or 3; experiment E2 reproduces
// that shape.
func Scoreboard(prog *ir.Program, cfg mach.Config) (Result, int32, string, error) {
	return ScoreboardWide(prog, cfg, 1)
}

// ScoreboardWide is Scoreboard with a configurable in-order issue width:
// up to width operations enter reservation stations per beat. Acosta's
// machines issued more than one op per cycle, which is where the top of the
// "factor of 2 or 3" band comes from; the block-boundary stall still caps
// the win regardless of width.
func ScoreboardWide(prog *ir.Program, cfg mach.Config, width int) (Result, int32, string, error) {
	if width < 1 {
		width = 1
	}
	t := newTiming(prog, &cfg)
	// earliest-free beat per functional unit instance, by class; two memory
	// pipes (loads and stores could proceed in parallel on the 360/91)
	units := [...][]int64{
		unitIALU: make([]int64, 2*cfg.Pairs),
		unitFAdd: make([]int64, cfg.Pairs),
		unitFMul: make([]int64, cfg.Pairs),
		unitMem:  make([]int64, 2),
	}
	var slot int        // ops already issued in the current beat
	var lastStore int64 // conservative in-flight memory ordering

	in := &ir.Interp{Prog: prog}
	in.OnOps = func(ops []ir.Op) {
		for i := range ops {
			o := &ops[i]
			switch o.Kind {
			case ir.Nop:
				continue
			case ir.Call, ir.Ret:
				t.transfer(o, 2)
				slot = 0
				continue
			}
			// the issue slot itself: width ops share a beat
			slot++
			if slot >= width {
				t.clock++
				slot = 0
			}
			// Reservation stations: issue hands the op to a station and
			// moves on; execution starts when the operands arrive and the
			// (pipelined) unit is free.
			u := units[t.unit[o.Kind]]
			best := 0
			for j := 1; j < len(u); j++ {
				if u[j] < u[best] {
					best = j
				}
			}
			start := t.operands(o, max(t.clock, u[best]))
			switch o.Kind {
			case ir.Load, ir.LoadSpec:
				start = max(start, lastStore)
			case ir.Store:
				start = max(start, lastStore)
				lastStore = start + 1
			}
			u[best] = start + 1 // pipelined: a new op every beat
			t.issue(o, start)
			// the block boundary: issue cannot proceed past an unresolved
			// branch
			if (o.Kind == ir.Br || o.Kind == ir.CondBr) && start+1 > t.clock {
				t.clock = start + 1
				slot = 0
			}
		}
	}
	v, out, err := in.Run()
	return t.result(t.clock + 1), v, out, err
}
