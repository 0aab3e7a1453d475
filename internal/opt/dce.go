package opt

import "github.com/multiflow-repro/trace/internal/ir"

// DCE removes pure ops whose results are never used, iterating to a fixed
// point (removing one op can make its operands' definitions dead too).
// Returns the total number of ops removed.
func DCE(f *ir.Func) int {
	total := 0
	for {
		n := dceOnce(f)
		total += n
		if n == 0 {
			return total
		}
	}
}

func dceOnce(f *ir.Func) int {
	lv := f.ComputeLiveness()
	removed := 0
	var live ir.RegSet
	var dead []bool
	for _, b := range f.Blocks {
		live = append(live[:0], lv.Out[b.ID]...)
		dead = append(dead[:0], make([]bool, len(b.Ops))...)
		// walk backward, marking dead pure ops
		n := 0
		for i := len(b.Ops) - 1; i >= 0; i-- {
			o := &b.Ops[i]
			if o.Dst != ir.None && !live.Has(o.Dst) && !o.Kind.HasSideEffect() {
				dead[i] = true
				n++
				continue
			}
			if o.Dst != ir.None {
				live.Remove(o.Dst)
			}
			for _, a := range o.Args {
				live.Add(a)
			}
		}
		if n == 0 {
			continue
		}
		kept := make([]ir.Op, 0, len(b.Ops)-n)
		for i := range b.Ops {
			if !dead[i] {
				kept = append(kept, b.Ops[i])
			}
		}
		b.Ops = kept
		removed += n
	}
	return removed
}

// CopyProp rewrites uses of registers defined by Mov to use the source when
// the rewrite is provably safe within a block (neither source nor
// destination is redefined in between). Block-local; LVN handles the common
// cases and this pass mops up after inlining and unrolling. Returns uses
// rewritten.
func CopyProp(f *ir.Func) int {
	changed := 0
	for _, b := range f.Blocks {
		copies := map[ir.Reg]ir.Reg{} // dst -> src while valid
		for i := range b.Ops {
			o := &b.Ops[i]
			for j, a := range o.Args {
				if s, ok := copies[a]; ok {
					o.Args[j] = s
					changed++
				}
			}
			if o.Dst != ir.None {
				// any copy into or out of dst is invalidated
				delete(copies, o.Dst)
				for d, s := range copies {
					if s == o.Dst {
						delete(copies, d)
					}
				}
				if o.Kind == ir.Mov && o.Args[0] != o.Dst {
					copies[o.Dst] = o.Args[0]
				}
			}
		}
	}
	return changed
}
