package safecheck

import "github.com/multiflow-repro/trace/internal/isa"

// Unconverged analyzes img as Analyze does and returns the reachable words
// whose entry state one more application of the transfer system, without
// widening, would change: the join of every predecessor's refined out-edge,
// each recomputed from that predecessor's final entry state, and of the boot
// state at the image entry. A block's first word's final entry state is the
// join of what its in-edges carry; a word inside a block derives its own by
// walking the block, from the word before's final entry state.
func Unconverged(img *isa.Image) (exhausted bool, words []int) {
	a := newAnalyzer(img, Options{})
	rep := &Report{img: img}
	a.run(rep)
	if rep.Exhausted || a.plans == nil {
		return rep.Exhausted, nil
	}
	got := make([]*state, len(img.Instrs))
	for w := range got {
		var s0 *state
		if a.last[w] >= 0 {
			s0 = a.entry(w)
		} else if got[w-1] != nil {
			a.xfer(w-1, got[w-1], nil)
			s0 = a.out.st
		}
		if s0 != nil {
			got[w] = a.pool.clone(s0)
		}
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
	for w, s0 := range got {
		if s0 != nil {
			a.xfer(w, s0, nil)
			a.edges(w, s0, func(e *edgePlan, st *state) {
				if st != nil {
					flow(e.to, st)
				}
			})
		}
	}
	for w, want := range next {
		if (got[w] == nil) != (want == nil) || got[w] != nil && !got[w].equal(want) {
			words = append(words, w)
		}
	}
	return false, words
}

// Blocks returns the blocks the fixpoint on img walks that start at a
// reachable word, as [first, last] word ranges in word order, and the
// component heads of its weak topological order. img must have an entry.
func Blocks(img *isa.Image) (blocks [][2]int, heads []int) {
	a := newAnalyzer(img, Options{})
	a.prepare()
	reachable := make([]bool, len(img.Instrs))
	for i, w := range a.order {
		reachable[w] = true
		if a.end[i] > i {
			heads = append(heads, w)
		}
	}
	for w, l := range a.last {
		if l >= 0 && reachable[w] {
			blocks = append(blocks, [2]int{w, l})
		}
	}
	return blocks, heads
}
