package opt

import "github.com/multiflow-repro/trace/internal/ir"

// Inline performs "automatic inline substitution of subroutines" (§4).
// A call site is inlined when the callee is non-recursive (no path back to
// itself in the call graph) and its op count is at most threshold. Inlining
// repeats until no eligible site remains or the caller exceeds growthCap
// ops, the heuristic that keeps code growth bounded. Then it deletes the
// functions no chain of calls from main reaches: every call to them was
// inlined, or there was none. Returns call sites inlined.
func Inline(p *ir.Program, threshold, growthCap int) int {
	recursive := findRecursive(p)
	total := 0
	for _, caller := range p.Funcs {
		for pass := 0; pass < 10; pass++ {
			if countOps(caller) > growthCap {
				break
			}
			n := inlineOne(p, caller, recursive, threshold)
			total += n
			if n == 0 {
				break
			}
		}
	}
	dropUncalled(p)
	return total
}

// dropUncalled deletes the functions no chain of calls from main reaches.
// A program without main keeps them all.
func dropUncalled(p *ir.Program) {
	if p.Func("main") == nil {
		return
	}
	reached := map[string]bool{"main": true}
	for work := []string{"main"}; len(work) > 0; {
		f := p.Func(work[len(work)-1])
		work = work[:len(work)-1]
		for _, b := range f.Blocks {
			for i := range b.Ops {
				if o := &b.Ops[i]; o.Kind == ir.Call && !reached[o.Sym] && p.Func(o.Sym) != nil {
					reached[o.Sym] = true
					work = append(work, o.Sym)
				}
			}
		}
	}
	kept := p.Funcs[:0]
	for _, f := range p.Funcs {
		if reached[f.Name] {
			kept = append(kept, f)
		}
	}
	p.Funcs = kept
}

func countOps(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Ops)
	}
	return n
}

// findRecursive returns the set of functions on a call-graph cycle.
func findRecursive(p *ir.Program) map[string]bool {
	calls := map[string][]string{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Ops {
				if b.Ops[i].Kind == ir.Call && !ir.IsBuiltin(b.Ops[i].Sym) {
					calls[f.Name] = append(calls[f.Name], b.Ops[i].Sym)
				}
			}
		}
	}
	rec := map[string]bool{}
	for _, f := range p.Funcs {
		// DFS from f; if we can reach f again it is on a cycle
		seen := map[string]bool{}
		var stack []string
		stack = append(stack, calls[f.Name]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == f.Name {
				rec[f.Name] = true
				break
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, calls[n]...)
		}
	}
	return rec
}

// inlineOne inlines the first eligible call site in caller; returns 1 if one
// was inlined.
func inlineOne(p *ir.Program, caller *ir.Func, recursive map[string]bool, threshold int) int {
	for bi := 0; bi < len(caller.Blocks); bi++ {
		b := caller.Blocks[bi]
		for oi := 0; oi < len(b.Ops); oi++ {
			o := &b.Ops[oi]
			if o.Kind != ir.Call || ir.IsBuiltin(o.Sym) {
				continue
			}
			callee := p.Func(o.Sym)
			if callee == nil || callee == caller || recursive[o.Sym] {
				continue
			}
			if countOps(callee) > threshold {
				continue
			}
			inlineSite(caller, bi, oi, callee)
			return 1
		}
	}
	return 0
}

// inlineSite splices callee's blocks into caller at block bi, op oi.
func inlineSite(caller *ir.Func, bi, oi int, callee *ir.Func) {
	b := caller.Blocks[bi]
	call := b.Ops[oi].Clone()

	// Split b: ops after the call move to a continuation block.
	cont := caller.AddBlock()
	cont.Ops = append(cont.Ops, b.Ops[oi+1:]...)
	b.Ops = b.Ops[:oi]

	// Map callee registers into fresh caller registers.
	regMap := make([]ir.Reg, callee.NumRegs())
	for r := 1; r < callee.NumRegs(); r++ {
		regMap[r] = caller.NewReg(callee.RegType(ir.Reg(r)))
	}
	mapReg := func(r ir.Reg) ir.Reg {
		if r == ir.None {
			return ir.None
		}
		return regMap[r]
	}

	// Callee frame slots live after the caller's own frame.
	caller.FrameSize = (caller.FrameSize + 7) &^ 7
	frameBase := caller.FrameSize
	caller.FrameSize += (callee.FrameSize + 7) &^ 7

	// Copy callee blocks; blockMap[calleeID] = caller block.
	blockMap := make([]int, len(callee.Blocks))
	for i := range callee.Blocks {
		nb := caller.AddBlock()
		blockMap[i] = nb.ID
	}
	for i, cb := range callee.Blocks {
		nb := caller.Blocks[blockMap[i]]
		for j := range cb.Ops {
			op := cb.Ops[j].Clone()
			op.Dst = mapReg(op.Dst)
			for k, a := range op.Args {
				op.Args[k] = mapReg(a)
			}
			switch op.Kind {
			case ir.FrAddr:
				op.ImmI += frameBase
			case ir.Br:
				op.T0 = blockMap[op.T0]
			case ir.CondBr:
				op.T0 = blockMap[op.T0]
				op.T1 = blockMap[op.T1]
			case ir.Ret:
				// return value -> call dst; jump to continuation
				if call.Dst != ir.None && len(op.Args) == 1 {
					nb.Ops = append(nb.Ops, ir.Op{
						Kind: ir.Mov, Type: caller.RegType(call.Dst),
						Dst: call.Dst, Args: []ir.Reg{op.Args[0]}, Line: op.Line,
					})
				}
				op = ir.Op{Kind: ir.Br, T0: cont.ID, Line: op.Line}
			}
			nb.Ops = append(nb.Ops, op)
		}
	}

	// Bind arguments and enter the inlined body.
	for i, p := range callee.Params {
		b.Ops = append(b.Ops, ir.Op{
			Kind: ir.Mov, Type: p.Type, Dst: mapReg(p.Reg),
			Args: []ir.Reg{call.Args[i]}, Line: call.Line,
		})
	}
	b.Ops = append(b.Ops, ir.Op{Kind: ir.Br, T0: blockMap[0], Line: call.Line})
}
