package tsched_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/tsched"
)

// serialVerdict is what the walk of one program of the golden matrix, over
// Trace 7/14/28 × O0/O2, found of its serialized blocks: pads that are not
// exact, and blocks that are more than their transfer. Both tests below
// judge the same functions, so the walk runs once per program.
type serialVerdict struct {
	once            sync.Once
	pads, transfers []string
}

var serialVerdicts sync.Map // program name -> *serialVerdict

func judgeSerial(p testmatrix.Program) *serialVerdict {
	e, _ := serialVerdicts.LoadOrStore(p.Key(), new(serialVerdict))
	v := e.(*serialVerdict)
	v.once.Do(func() {
		for _, c := range testmatrix.Machines {
			for _, lv := range testmatrix.MatrixLevels {
				at := c.Name + "/" + lv.Name + ": "
				err := eachScheduledFunc(p.Src, c.Cfg, lv.Opt, func(sf *tsched.SFunc) (error, error) {
					if err := padsAreExact(sf, c.Cfg); err != nil {
						v.pads = append(v.pads, at+sf.Name+": "+err.Error())
					}
					if err := holdsOneTransfer(sf); err != nil {
						v.transfers = append(v.transfers, at+sf.Name+": "+err.Error())
					}
					_, allocErr := tsched.Allocate(sf, c.Cfg)
					return allocErr, nil
				})
				if err != nil {
					v.pads = append(v.pads, at+err.Error())
					v.transfers = append(v.transfers, at+err.Error())
				}
			}
		}
	})
	return v
}

// TestSerialPadIsExact: on every function of the golden matrix, each
// serialized and each compensation block starts with exactly the empty
// instructions the latest write in flight on its entering edges needs to
// land — found here by walking back from every edge, not by the stitcher's
// forward fixpoint — and never more than the function-wide pad it replaced;
// every write issued
// before a transfer that ends a trace has landed by the word behind it; and
// every image of the matrix lints clean.
func TestSerialPadIsExact(t *testing.T) {
	for _, p := range testmatrix.Programs(t, testmatrix.Matrix...) {
		t.Run(p.Key(), func(t *testing.T) {
			t.Parallel()
			for _, m := range judgeSerial(p).pads {
				t.Error(m)
			}
			for _, c := range testmatrix.Machines {
				for _, lv := range testmatrix.MatrixLevels {
					res, err := testmatrix.Compile(p.Src, c.Cfg, lv.Opt)
					if err != nil {
						continue // the matrix's compile-error images
					}
					if errs := schedcheck.Check(res.Image, schedcheck.Options{}).Errors(); len(errs) != 0 {
						t.Errorf("%s/%s: %d error findings, first: %s", c.Name, lv.Name, len(errs), errs[0].String())
					}
				}
			}
		})
	}
}

// TestSerialBlocksHoldOneTransfer: on every function of the golden matrix,
// a transfer — call, syscall, jmpr or halt — sits only in the last word of
// its block, the one branch of that word; a serialized block is its
// transfer after its pad words; SerialInstrs counts those words; and the
// layout holds every block once.
func TestSerialBlocksHoldOneTransfer(t *testing.T) {
	for _, p := range testmatrix.Programs(t, testmatrix.Matrix...) {
		t.Run(p.Key(), func(t *testing.T) {
			t.Parallel()
			for _, m := range judgeSerial(p).transfers {
				t.Error(m)
			}
		})
	}
}

// isTransfer reports a branch-unit op that leaves the function's code.
func isTransfer(k ir.OpKind) bool {
	switch k {
	case mach.OpCall, mach.OpSyscall, mach.OpJmpR, mach.OpHalt:
		return true
	}
	return false
}

// holdsOneTransfer checks every block of sf against
// TestSerialBlocksHoldOneTransfer's rule, and that the layout lays out every
// block once (a block falling into itself would drop out of it).
func holdsOneTransfer(sf *tsched.SFunc) error {
	laid := map[int]bool{}
	for _, id := range sf.Layout() {
		laid[id] = true
	}
	if len(laid) != len(sf.Blocks) || len(sf.Layout()) != len(sf.Blocks) {
		return fmt.Errorf("the layout holds %d distinct blocks of %d", len(laid), len(sf.Blocks))
	}
	words := 0
	for _, b := range sf.Blocks {
		for i, in := range b.Instrs {
			branches, transfers := 0, 0
			for _, s := range in.Slots {
				if s.Unit.Kind == mach.UBR {
					branches++
				}
				if isTransfer(s.Op.Kind) {
					transfers++
				}
			}
			if transfers > 0 && (i != len(b.Instrs)-1 || branches != 1) {
				return fmt.Errorf("block %d: word %d of %d holds a transfer among %d branches", b.ID, i, len(b.Instrs), branches)
			}
		}
		if !b.Serial {
			continue
		}
		words += len(b.Instrs)
		n := len(b.Instrs)
		if n == 0 {
			return fmt.Errorf("serialized block %d is empty", b.ID)
		}
		for i, in := range b.Instrs[:n-1] {
			if len(in.Slots) != 0 {
				return fmt.Errorf("serialized block %d: word %d of its pad holds %d ops", b.ID, i, len(in.Slots))
			}
		}
		last := b.Instrs[n-1].Slots
		if len(last) != 1 || !isTransfer(last[0].Op.Kind) {
			return fmt.Errorf("serialized block %d: its last word holds %d ops, want its transfer alone", b.ID, len(last))
		}
	}
	if words != sf.SerialInstrs {
		return fmt.Errorf("SerialInstrs = %d, the serialized blocks hold %d words", sf.SerialInstrs, words)
	}
	return nil
}

// padsAreExact checks every block's pad against the flight on its entering
// edges: a branch to it, or a fallthrough into it in the layout Emit uses.
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
	order := sf.Layout()
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
		if k := len(b.Instrs) - 1; !b.Serial && k >= 0 {
			// A transfer ending a trace: every write issued at or before its
			// word has landed by the word behind it.
			for _, s := range b.Instrs[k].Slots {
				if f := landing(b.ID, k, 0); isTransfer(s.Op.Kind) && f > 0 {
					return fmt.Errorf("block %d: a write lands %d beats past the word behind its %s", b.ID, f, mach.OpName(s.Op.Kind))
				}
			}
		}
		if !b.Serial && !b.Comp {
			continue
		}
		// A serialized or compensation block's own code starts with an op,
		// so its pad is the empty instructions in front.
		pad := 0
		for pad < len(b.Instrs) && len(b.Instrs[pad].Slots) == 0 {
			pad++
		}
		if b.Serial {
			pads += pad
		}
		f := 0
		for _, p := range preds[at{b.ID, 0}] {
			f = max(f, landing(p.block, p.instr, 0))
		}
		if want := (max(f, 0) + 1) / 2; pad != want {
			return fmt.Errorf("padded block %d: pad %d, but its entering edges carry a write landing %d beats in (pad %d)", b.ID, pad, f, want)
		}
		if old := (oldLat + 2) / 2; pad > old {
			return fmt.Errorf("padded block %d: pad %d exceeds the function-wide %d", b.ID, pad, old)
		}
	}
	for t := range preds {
		if b := sf.Blocks[t.block]; (b.Serial || b.Comp) && t.instr != 0 {
			return fmt.Errorf("padded block %d is entered at instruction %d", t.block, t.instr)
		}
	}
	if pads != sf.PadInstrs {
		return fmt.Errorf("PadInstrs = %d, the blocks' pads sum to %d", sf.PadInstrs, pads)
	}
	return nil
}
