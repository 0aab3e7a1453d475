package tsched

import (
	"sort"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Trace is an acyclic path of vblocks selected for compaction, ordered by
// control flow. The first block is the unique entrance from above; later
// blocks may have side entrances (joins), and any block may have side exits
// (splits).
type Trace struct {
	Blocks []int
}

// VLiveness is block-level liveness over a VFunc.
type VLiveness struct {
	In  []ir.RegSet // indexed by vblock, over VRegs
	Out []ir.RegSet
}

// ComputeLiveness runs backward dataflow over the vop CFG. An op reads its
// operands and the convention registers the transfers consume (implicitUses,
// the allocator's definition), so a register the calling convention passes
// on is live up to its transfer.
func (f *VFunc) ComputeLiveness() *VLiveness {
	n := len(f.Blocks)
	nr := f.NumRegs()
	lv := &VLiveness{In: make([]ir.RegSet, n), Out: make([]ir.RegSet, n)}
	use := make([]ir.RegSet, n)
	def := make([]ir.RegSet, n)
	reads := make([]VReg, 0, 2*mach.MaxArgs+4)
	for i, b := range f.Blocks {
		use[i] = ir.NewRegSet(nr)
		def[i] = ir.NewRegSet(nr)
		lv.In[i] = ir.NewRegSet(nr)
		lv.Out[i] = ir.NewRegSet(nr)
		for j := range b.Ops {
			o := &b.Ops[j]
			for _, u := range implicitUses(f, o, o.appendUses(reads[:0])) {
				if !def[i].Has(ir.Reg(u)) {
					use[i].Add(ir.Reg(u))
				}
			}
			if o.Dst != VNone {
				def[i].Add(ir.Reg(o.Dst))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := lv.Out[i]
			for _, s := range f.Blocks[i].Succs() {
				if out.UnionWith(lv.In[s]) {
					changed = true
				}
			}
			in := out.Clone()
			for w := range in {
				in[w] &^= def[i][w]
				in[w] |= use[i][w]
			}
			eq := true
			for w := range in {
				if in[w] != lv.In[i][w] {
					eq = false
					break
				}
			}
			if !eq {
				lv.In[i] = in
				changed = true
			}
		}
	}
	return lv
}

// BlockWeights estimates an execution frequency for every vblock from the
// IR-level profile (vblock i+1 mirrors IR block i). Inserted blocks
// (prologue, call blocks, epilogues, continuations) inherit flow from their
// predecessors by propagation. The profile is summed in edge order, not map
// order: float addition is not associative, and the seed order — so the
// image — must not change between two compiles of one program.
func BlockWeights(f *VFunc, prof ir.EdgeWeights) []float64 {
	n := len(f.Blocks)
	w := make([]float64, n)
	w[0] = 1
	edges := make([][2]int, 0, len(prof))
	for e := range prof {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	for _, e := range edges {
		// edge (a,b) in IR = (a+1, b+1) here; weight lands on the target
		if e[1]+1 < n {
			w[e[1]+1] += prof[e]
		}
	}
	// IR entry block weight: at least 1
	if n > 1 && w[1] < 1 {
		w[1] = 1
	}
	// propagate into inserted blocks (they form chains off known blocks)
	preds := f.Preds()
	for pass := 0; pass < n; pass++ {
		changed := false
		for i := 1; i < n; i++ {
			if w[i] != 0 {
				continue
			}
			var sum float64
			for _, p := range preds[i] {
				// split flow evenly when the predecessor branches
				s := f.Blocks[p].Succs()
				if len(s) > 0 {
					sum += w[p] / float64(len(s))
				}
			}
			if sum > 0 {
				w[i] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return w
}

// EdgeWeight returns the estimated weight of edge a→b among vblocks.
func EdgeWeight(prof ir.EdgeWeights, a, b int) float64 {
	if prof == nil {
		return 0
	}
	return prof[[2]int{a - 1, b - 1}]
}

// SelectTraces partitions the function's blocks into traces, most frequent
// first (§4: "the compiler selects the most likely path, or trace ... the
// process then repeats; the next-most-likely execution path is chosen").
// NoCompact blocks (the transfers) always form single-block traces; the
// prologue, block 0, has no predecessor, so a trace holding it starts with
// it. Growth stops at blocks already assigned, at NoCompact blocks, and at
// cycles; a block is appended only if the edge into it is both the
// predecessor's most likely exit and the block's most likely entry (Fisher's
// mutual-most-likely rule).
// maxBlocks 0 means unlimited.
func SelectTraces(f *VFunc, prof ir.EdgeWeights, maxBlocks int) []Trace {
	weights := BlockWeights(f, prof)
	preds := f.Preds()
	n := len(f.Blocks)
	assigned := make([]bool, n)

	// edge weight with fallback: profile if present, else parent weight
	// split evenly
	ew := func(a, b int) float64 {
		if w := EdgeWeight(prof, a, b); w > 0 {
			return w
		}
		s := f.Blocks[a].Succs()
		if len(s) == 0 {
			return 0
		}
		return weights[a] / float64(len(s))
	}

	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	sort.SliceStable(seeds, func(a, b int) bool { return weights[seeds[a]] > weights[seeds[b]] })

	var traces []Trace
	inTrace := make([]bool, n)
	for _, seed := range seeds {
		if assigned[seed] {
			continue
		}
		if f.Blocks[seed].NoCompact {
			assigned[seed] = true
			traces = append(traces, Trace{Blocks: []int{seed}})
			continue
		}
		tr := []int{seed}
		for i := range inTrace {
			inTrace[i] = false
		}
		inTrace[seed] = true

		full := func() bool { return maxBlocks > 0 && len(tr) >= maxBlocks }
		// A trace should cover one frequency region: growing a hot loop
		// trace across its boundary (into the once-executed preheader or
		// exit code) turns the loop header into a side entrance, putting a
		// compensation block on the back edge of every iteration. Stop when
		// the edge is much colder than the seed.
		coldEdge := func(w float64) bool { return w < weights[seed]/4 }
		// grow forward
		for b := seed; !full(); {
			best, bw := -1, 0.0
			for _, s := range f.Blocks[b].Succs() {
				if assigned[s] || inTrace[s] || f.Blocks[s].NoCompact {
					continue
				}
				if w := ew(b, s); w > bw {
					best, bw = s, w
				}
			}
			if best == -1 || coldEdge(bw) {
				break
			}
			// mutual-most-likely: b must also be best's hottest predecessor
			mutual := true
			for _, p := range preds[best] {
				if p != b && ew(p, best) > bw {
					mutual = false
					break
				}
			}
			if !mutual {
				break
			}
			tr = append(tr, best)
			inTrace[best] = true
			b = best
		}
		// grow backward from the seed
		for b := seed; !full(); {
			best, bw := -1, 0.0
			for _, p := range preds[b] {
				if assigned[p] || inTrace[p] || f.Blocks[p].NoCompact {
					continue
				}
				if w := ew(p, b); w > bw {
					best, bw = p, w
				}
			}
			if best == -1 || coldEdge(bw) {
				break
			}
			// mutual: b must be best's hottest successor
			mutual := true
			for _, s := range f.Blocks[best].Succs() {
				if s != b && ew(best, s) > bw {
					mutual = false
					break
				}
			}
			if !mutual {
				break
			}
			tr = append([]int{best}, tr...)
			inTrace[best] = true
			b = best
		}
		// If the trace's last block loops back into the middle of the
		// trace, truncate to the cyclic part: the hot back edge then
		// re-enters at offset 0 with no side-entrance compensation, and the
		// dropped prefix blocks seed their own traces.
		last := f.Blocks[tr[len(tr)-1]]
		cut := 0
		for _, s := range last.Succs() {
			for k := 1; k < len(tr); k++ {
				if tr[k] == s {
					cut = k
				}
			}
		}
		if cut > 0 {
			// the dropped prefix is itself a consecutive chain; keep it as
			// its own trace (it feeds the loop once, on entry)
			prefix := append([]int{}, tr[:cut]...)
			for _, b := range prefix {
				assigned[b] = true
			}
			traces = append(traces, Trace{Blocks: prefix})
			tr = tr[cut:]
		}
		for _, b := range tr {
			assigned[b] = true
		}
		traces = append(traces, Trace{Blocks: tr})
	}
	return traces
}
