package safecheck

import "github.com/multiflow-repro/trace/internal/isa"

// Unconverged analyzes img as Analyze does and returns the reachable words
// whose entry state one more application of the transfer system, without
// widening, would change: the join of every predecessor's refined out-edge,
// each recomputed from that predecessor's final entry state, and of the boot
// state at the image entry.
func Unconverged(img *isa.Image) (exhausted bool, words []int) {
	a := newAnalyzer(img, Options{})
	rep := &Report{img: img}
	a.run(rep)
	if rep.Exhausted || a.plans == nil {
		return rep.Exhausted, nil
	}
	next := make([]*state, len(img.Instrs))
	flow := func(t int, st *state) {
		if next[t] == nil {
			next[t] = a.pool.clone(st)
		} else {
			next[t].join(st, false)
		}
	}
	flow(img.Entry, a.boot)
	for w := range next {
		if s0 := a.entry(w); s0 != nil {
			a.xfer(w, s0, nil)
			a.edges(w, s0, func(e *edgePlan, st *state) {
				if st != nil {
					flow(e.to, st)
				}
			})
		}
	}
	for w, want := range next {
		got := a.entry(w)
		if (got == nil) != (want == nil) || got != nil && !got.equal(want) {
			words = append(words, w)
		}
	}
	return false, words
}
