package tsched_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/tsched"
)

// TestSerialPadIsExact: on every function of the golden matrix, each
// serialized block starts with exactly the empty instructions the latest
// write in flight on its entering edges needs to land — found here by
// walking back from every edge, not by the stitcher's forward fixpoint —
// and never more than the function-wide pad it replaced; and every image of
// the matrix lints clean.
func TestSerialPadIsExact(t *testing.T) {
	for _, p := range matrixPrograms(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range matrixConfigs {
				for _, lv := range matrixLevels {
					at := c.name + "/" + lv.name
					err := eachScheduledFunc(p.src, c.cfg, lv.opt, 1, func(sf *tsched.SFunc) (error, error) {
						if err := padsAreExact(sf, c.cfg); err != nil {
							return nil, fmt.Errorf("%s: %w", sf.Name, err)
						}
						_, allocErr := tsched.Allocate(sf, c.cfg)
						return allocErr, nil
					})
					if err != nil {
						t.Errorf("%s: %v", at, err)
					}
					res, err := core.Compile(context.Background(), p.src, core.Options{Config: c.cfg, Opt: lv.opt})
					if err != nil {
						continue // the matrix's compile-error images
					}
					if errs := schedcheck.Check(res.Image, schedcheck.Options{}).Errors(); len(errs) != 0 {
						t.Errorf("%s: %d error findings, first: %s", at, len(errs), errs[0].String())
					}
				}
			}
		})
	}
}

// padsAreExact checks every block's pad against the flight on its entering
// edges: a branch to it, a fallthrough into it, and — for the prologue — a
// call, whose early-beat link write is the only one in flight.
func padsAreExact(sf *tsched.SFunc, cfg mach.Config) error {
	type at struct{ block, instr int }
	preds := map[at][]at{} // (block, offset) → the instructions branching there
	for _, b := range sf.Blocks {
		for i, in := range b.Instrs {
			for _, s := range in.Slots {
				if s.Op.Kind == mach.OpJmp || s.Op.Kind == mach.OpBrT {
					t := at{s.TargetBlock, s.TargetOff}
					preds[t] = append(preds[t], at{b.ID, i})
				}
			}
		}
	}
	order := []int{sf.Entry}
	for _, b := range sf.Blocks {
		if b.ID != sf.Entry {
			order = append(order, b.ID)
		}
	}
	falls := func(in tsched.SInstr) bool {
		for _, s := range in.Slots {
			switch s.Op.Kind {
			case mach.OpJmp, mach.OpJmpR, mach.OpHalt:
				return false
			}
		}
		return true
	}
	for pos, id := range order[1:] {
		prev := sf.Blocks[order[pos]]
		if n := len(prev.Instrs); n > 0 && falls(prev.Instrs[n-1]) {
			t := at{id, 0}
			preds[t] = append(preds[t], at{prev.ID, n - 1})
		}
	}
	maxLat, oldLat := 0, cfg.LatIALU // of any op placed; of the lowered ops the old pad was sized by
	for _, b := range sf.Blocks {
		for _, in := range b.Instrs {
			for _, s := range in.Slots {
				maxLat = max(maxLat, cfg.Latency(s.Op.Kind, s.Op.Type))
			}
		}
	}
	for _, vb := range sf.VF.Blocks {
		for _, op := range vb.Ops {
			oldLat = max(oldLat, cfg.Latency(op.Kind, op.Type))
		}
	}

	// landing is the latest retire beat of a write issued at or before
	// instruction i of block b, counted from d beats after that
	// instruction ends, over every path into it.
	type key struct{ block, instr, d int }
	memo := map[key]int{}
	var landing func(b, i, d int) int
	landing = func(b, i, d int) int {
		if d >= maxLat {
			return 0 // nothing issued this long ago is still in flight
		}
		k := key{b, i, d}
		if v, ok := memo[k]; ok {
			return v
		}
		land := 0
		for j := i; j >= 0; j-- {
			in := sf.Blocks[b].Instrs[j]
			since := 2*(i-j+1) + d // beats from instruction j's start to the point asked about
			for _, s := range in.Slots {
				if s.Op.Dst != tsched.VNone {
					land = max(land, int(s.Beat)+cfg.Latency(s.Op.Kind, s.Op.Type)-since)
				}
			}
			for _, p := range preds[at{b, j}] {
				land = max(land, landing(p.block, p.instr, since))
			}
			if j > 0 && !falls(sf.Blocks[b].Instrs[j-1]) {
				break
			}
		}
		memo[k] = land
		return land
	}

	pads := 0
	for _, b := range sf.Blocks {
		if !b.Serial {
			continue
		}
		// A serialized block's own code starts with an op, so its pad is
		// the empty instructions in front.
		pad := 0
		for pad < len(b.Instrs) && len(b.Instrs[pad].Slots) == 0 {
			pad++
		}
		pads += pad
		f := 0
		if b.ID == sf.Entry {
			f = cfg.Latency(mach.OpCall, ir.Void) - 2
		}
		for _, p := range preds[at{b.ID, 0}] {
			f = max(f, landing(p.block, p.instr, 0))
		}
		if want := (max(f, 0) + 1) / 2; pad != want {
			return fmt.Errorf("serialized block %d: pad %d, but its entering edges carry a write landing %d beats in (pad %d)", b.ID, pad, f, want)
		}
		if old := (oldLat + 2) / 2; pad > old {
			return fmt.Errorf("serialized block %d: pad %d exceeds the function-wide %d", b.ID, pad, old)
		}
	}
	for t := range preds {
		if sf.Blocks[t.block].Serial && t.instr != 0 {
			return fmt.Errorf("serialized block %d is entered at instruction %d", t.block, t.instr)
		}
	}
	if pads != sf.PadInstrs {
		return fmt.Errorf("PadInstrs = %d, the blocks' pads sum to %d", sf.PadInstrs, pads)
	}
	return nil
}
