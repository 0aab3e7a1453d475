package tsched

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/mach"
)

// RetryLadder is the trace-length ladder compileOneInner descends on register
// pressure, for the external allocator tests that walk it themselves.
var RetryLadder = retryLadder

// DeadCompOps lists the pure ops (pureOp) of sf's split compensation lists
// whose result nothing reads after them — neither a later op of the block
// nor the code it jumps to — by the allocator's liveness over the scheduled
// code.
func DeadCompOps(sf *SFunc, cfg mach.Config) []string {
	a := newAllocator(sf, cfg)
	a.liveness()
	var dead []string
	for _, b := range sf.Blocks {
		if !b.Comp || b.Join {
			continue
		}
		for i, in := range b.Instrs {
			after := a.row(a.after, a.base[b.ID]+i)
			for _, s := range in.Slots {
				d := s.Op.Dst
				if d == VNone || s.Copy || !pureOp(s.Op.Kind) {
					continue
				}
				read := false // in the word's late beat
				for _, r := range in.Slots {
					read = read || readsReg(&r.Op, d)
				}
				if x := a.index[d]; !read && after[x>>6]&(1<<(x&63)) == 0 {
					dead = append(dead, fmt.Sprintf("%s: block %d word %d: t%d = %s is read by nothing",
						sf.Name, b.ID, i, d, mach.OpName(s.Op.Kind)))
				}
			}
		}
	}
	return dead
}
