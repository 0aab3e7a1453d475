package ir

// CFG analyses used by the optimizer and the trace scheduler: reachability,
// reverse postorder, dominators (Cooper-Harvey-Kennedy iterative algorithm),
// natural loops, and per-block liveness.

// Reachable returns the set of block IDs reachable from the entry.
func (f *Func) Reachable() []bool {
	seen := make([]bool, len(f.Blocks))
	var stack []int
	stack = append(stack, 0)
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs() {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// RemoveUnreachable deletes unreachable blocks and renumbers the rest,
// rewriting branch targets. It returns the number of blocks removed.
func (f *Func) RemoveUnreachable() int {
	seen := f.Reachable()
	remap := make([]int, len(f.Blocks))
	var kept []*Block
	for i, b := range f.Blocks {
		if seen[i] {
			remap[i] = len(kept)
			kept = append(kept, b)
		} else {
			remap[i] = -1
		}
	}
	removed := len(f.Blocks) - len(kept)
	if removed == 0 {
		return 0
	}
	for i, b := range kept {
		b.ID = i
		t := b.Term()
		switch t.Kind {
		case Br:
			t.T0 = remap[t.T0]
		case CondBr:
			t.T0 = remap[t.T0]
			t.T1 = remap[t.T1]
		}
	}
	f.Blocks = kept
	return removed
}

// RPO returns the block IDs in reverse postorder from the entry. Unreachable
// blocks are omitted.
func (f *Func) RPO() []int {
	seen := make([]bool, len(f.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range f.Blocks[b].Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Idom computes the immediate dominator of every reachable block.
// idom[0] == 0; unreachable blocks get -1.
func (f *Func) Idom() []int {
	rpo := f.RPO()
	order := make([]int, len(f.Blocks)) // block ID -> RPO index
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b] = i
	}
	preds := f.Preds()
	idom := make([]int, len(f.Blocks))
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if order[p] < 0 || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under idom.
func Dominates(idom []int, a, b int) bool {
	for {
		if b == a {
			return true
		}
		if b == 0 || idom[b] == -1 {
			return false
		}
		next := idom[b]
		if next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop: Head is the loop header, Body the set of member
// block IDs (including the header), Latches the back-edge sources.
type Loop struct {
	Head    int
	Body    map[int]bool
	Latches []int
}

// Exits returns the (inBlock, outBlock) edges leaving the loop.
func (l *Loop) Exits(f *Func) [][2]int {
	var out [][2]int
	for b := range l.Body {
		for _, s := range f.Blocks[b].Succs() {
			if !l.Body[s] {
				out = append(out, [2]int{b, s})
			}
		}
	}
	return out
}

// NaturalLoops finds all natural loops (back edges t→h where h dominates t),
// merging loops that share a header. Results are ordered innermost-first by
// body size.
func (f *Func) NaturalLoops() []*Loop {
	idom := f.Idom()
	preds := f.Preds()
	byHead := map[int]*Loop{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if Dominates(idom, s, b.ID) {
				// back edge b -> s
				l := byHead[s]
				if l == nil {
					l = &Loop{Head: s, Body: map[int]bool{s: true}}
					byHead[s] = l
				}
				l.Latches = append(l.Latches, b.ID)
				// walk predecessors from the latch back to the header
				var stack []int
				if !l.Body[b.ID] {
					l.Body[b.ID] = true
					stack = append(stack, b.ID)
				}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range preds[n] {
						if !l.Body[p] {
							l.Body[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	var loops []*Loop
	for _, l := range byHead {
		loops = append(loops, l)
	}
	// innermost (smallest) first, deterministic order
	for i := 0; i < len(loops); i++ {
		for j := i + 1; j < len(loops); j++ {
			li, lj := loops[i], loops[j]
			if len(lj.Body) < len(li.Body) || (len(lj.Body) == len(li.Body) && lj.Head < li.Head) {
				loops[i], loops[j] = loops[j], loops[i]
			}
		}
	}
	return loops
}

// RegSet is a dense bit set over virtual registers.
type RegSet []uint64

// NewRegSet returns a set that can hold registers [0, n).
func NewRegSet(n int) RegSet { return make(RegSet, (n+63)/64) }

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool {
	if r <= 0 {
		return false
	}
	return s[int(r)/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r; it reports whether the set changed.
func (s RegSet) Add(r Reg) bool {
	if r <= 0 {
		return false
	}
	w, b := int(r)/64, uint(r)%64
	if s[w]&(1<<b) != 0 {
		return false
	}
	s[w] |= 1 << b
	return true
}

// Remove deletes r from the set.
func (s RegSet) Remove(r Reg) {
	if r <= 0 {
		return
	}
	s[int(r)/64] &^= 1 << (uint(r) % 64)
}

// UnionWith adds all of t to s; it reports whether s changed.
func (s RegSet) UnionWith(t RegSet) bool {
	changed := false
	for i := range s {
		if i >= len(t) {
			break
		}
		old := s[i]
		s[i] |= t[i]
		if s[i] != old {
			changed = true
		}
	}
	return changed
}

// Clone returns a copy of the set.
func (s RegSet) Clone() RegSet {
	c := make(RegSet, len(s))
	copy(c, s)
	return c
}

// Count returns the number of registers in the set.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Liveness holds per-block live-in and live-out register sets.
type Liveness struct {
	In  []RegSet
	Out []RegSet
}

// ComputeLiveness runs the standard backward dataflow over the CFG.
func (f *Func) ComputeLiveness() *Liveness {
	n := len(f.Blocks)
	nr := f.NumRegs()
	lv := &Liveness{In: make([]RegSet, n), Out: make([]RegSet, n)}
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	for i, b := range f.Blocks {
		use[i] = NewRegSet(nr)
		def[i] = NewRegSet(nr)
		lv.In[i] = NewRegSet(nr)
		lv.Out[i] = NewRegSet(nr)
		for j := range b.Ops {
			o := &b.Ops[j]
			for _, a := range o.Args {
				if !def[i].Has(a) {
					use[i].Add(a)
				}
			}
			if o.Dst != None {
				def[i].Add(o.Dst)
			}
		}
	}
	// iterate to fixpoint in reverse RPO for fast convergence
	rpo := f.RPO()
	for changed := true; changed; {
		changed = false
		for k := len(rpo) - 1; k >= 0; k-- {
			b := rpo[k]
			out := lv.Out[b]
			for _, s := range f.Blocks[b].Succs() {
				if out.UnionWith(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			in := out.Clone()
			for w := range in {
				in[w] &^= def[b][w]
				in[w] |= use[b][w]
			}
			if !equalSets(in, lv.In[b]) {
				lv.In[b] = in
				changed = true
			}
		}
	}
	return lv
}

func equalSets(a, b RegSet) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
