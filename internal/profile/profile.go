// Package profile produces control-flow edge weights for trace selection.
// The paper's compiler uses "estimates of branch directions obtained
// automatically through heuristics or profiling" (§4); this package provides
// both: Static computes loop-depth-based heuristic weights, and FromRun
// executes the program in the IR interpreter to collect an exact profile.
package profile

import "github.com/multiflow-repro/trace/internal/ir"

// LoopWeight is the assumed iteration count of a loop for static estimation.
const LoopWeight = 10

// Static estimates edge weights for every function: block frequency is
// LoopWeight^depth, and conditional branches favor the successor that stays
// in the loop (90/10); even splits get 50/50. The weights conserve flow into
// each block: a block's in-edges are scaled to sum to its own frequency, so a
// loop header entered by several latches weighs what its body does, not a
// multiple of it (Wu & Larus's flow-consistent static frequencies).
func Static(p *ir.Program) ir.Profile {
	prof := ir.Profile{}
	for _, f := range p.Funcs {
		prof[f.Name] = staticFunc(f)
	}
	return prof
}

func staticFunc(f *ir.Func) ir.EdgeWeights {
	loops := f.NaturalLoops()
	depth := make([]int, len(f.Blocks))
	for _, l := range loops {
		for b := range l.Body {
			depth[b]++
		}
	}
	freq := make([]float64, len(f.Blocks))
	for i := range freq {
		freq[i] = pow(LoopWeight, depth[i])
	}
	edges := ir.EdgeWeights{}
	in := make([]float64, len(f.Blocks)) // summed in block order: deterministic
	add := func(a, b int, w float64) {
		edges[[2]int{a, b}] += w
		in[b] += w
	}
	for _, b := range f.Blocks {
		succs := b.Succs()
		switch len(succs) {
		case 1:
			add(b.ID, succs[0], freq[b.ID])
		case 2:
			p0 := 0.5
			d0, d1 := depth[succs[0]], depth[succs[1]]
			switch {
			case d0 > d1:
				p0 = 0.9
			case d1 > d0:
				p0 = 0.1
			}
			add(b.ID, succs[0], freq[b.ID]*p0)
			add(b.ID, succs[1], freq[b.ID]*(1-p0))
		}
	}
	for e, w := range edges {
		edges[e] = w * freq[e[1]] / in[e[1]]
	}
	return edges
}

func pow(base, exp int) float64 {
	v := 1.0
	for i := 0; i < exp; i++ {
		v *= float64(base)
	}
	return v
}

// FromRun executes the program in the interpreter and returns the exact edge
// profile. If execution fails (e.g. the instrumented run traps), it falls
// back to Static so compilation can proceed, mirroring the paper's
// heuristics-or-profiling choice.
func FromRun(p *ir.Program) ir.Profile {
	prof := ir.Profile{}
	in := &ir.Interp{Prog: p, Profile: prof}
	if _, _, err := in.Run(); err != nil {
		return Static(p)
	}
	// Functions never executed in the profiling run still need estimates.
	st := Static(p)
	for _, f := range p.Funcs {
		if len(prof[f.Name]) == 0 {
			prof[f.Name] = st[f.Name]
		}
	}
	return prof
}
