package tsched

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/alias"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// schedOp is one operation of a linearized trace, carrying its renamed vop,
// original position, dependence edges, and (once placed) its slot.
type schedOp struct {
	vop      VOp
	origIdx  int
	srcBlock int
	traceIdx int  // position of the op's block within the trace
	isSplit  bool // BrT whose taken edge leaves the trace
	isFinal  bool // the trace-terminating jump or transfer (scheduled last)

	ref   *alias.Ref // memory ops: address form for disambiguation
	isMem bool
	// compVop preserves the op's operands before the scheduler rewrote any
	// of them to board-local copies; compensation code re-executes this
	// form (comp blocks route each operand from its home board).
	compVop *VOp
	// converted marks a Load rewritten to the non-trapping speculative
	// opcode because it moved above a split (§7); compensation copies
	// revert it.
	converted bool
	// isRestore marks the final-exit moves that re-establish original
	// register names, and every op of a compensation block: their writes
	// must drain before control leaves.
	isRestore bool
	// keepsName marks a write rename left alone — to a precolored register,
	// or a parameter or return-value move at the trace's head — which is
	// visible off the trace.
	keepsName bool
	succs     []sedge
	npreds    int // unscheduled predecessors

	// placement
	placed bool
	instr  int
	beat   int // absolute issue beat
	unit   mach.Unit

	prio int64 // critical-path height in beats
	// chained marks an op consuming a same-kind producer (a reduction or
	// induction link); it follows its operands' board instead of spreading.
	chained bool
}

// sedge is a scheduling constraint: when minBeats ≥ 0, issue(to) ≥
// issue(from) + minBeats (minBeats -1 imposes no beat constraint);
// independently, instr(to) ≥ instr(from) + instrDelta (instrDelta 0 allows
// sharing an instruction, where hardware semantics make order irrelevant —
// e.g. multiway branch priorities, or ops sharing the branch's instruction,
// which execute on both paths).
type sedge struct {
	to         int
	minBeats   int
	instrDelta int
}

// traceGraph is a linearized, renamed trace with its dependence DAG and the
// bookkeeping needed to generate compensation code afterwards.
type traceGraph struct {
	vf  *VFunc
	ops []*schedOp

	// rename bookkeeping
	renameAtSplit map[int]map[VReg]VReg // op index -> snapshot of cur map
	renameAtJoin  map[int]map[VReg]VReg // linear position of join -> snapshot
	joinPos       map[int]int           // vblock ID -> linear position (first op index)
	splitTarget   map[int]int           // op index -> off-trace vblock
	finalIdx      int                   // index of the final exit op (-1 if none: trace ends in Halt-like)
	exit          int                   // the vblock the final exit leaves to (a transfer's NoCompact block)
	// rewritten holds the precolored registers the trace writes: never
	// renamed, they are not single-assignment within the trace, so nothing
	// may read through one to an older value.
	rewritten map[VReg]bool
	// comp marks the graph of a compensation block (compBlock).
	comp bool

	// restore moves appended for the final exit are ordinary ops; for splits
	// they are generated later from the snapshots.
}

var invCmp = map[ir.OpKind]ir.OpKind{
	ir.CmpEQ: ir.CmpNE, ir.CmpNE: ir.CmpEQ,
	ir.CmpLT: ir.CmpGE, ir.CmpGE: ir.CmpLT,
	ir.CmpLE: ir.CmpGT, ir.CmpGT: ir.CmpLE,
	ir.FCmpEQ: ir.FCmpNE, ir.FCmpNE: ir.FCmpEQ,
	ir.FCmpLT: ir.FCmpGE, ir.FCmpGE: ir.FCmpLT,
	ir.FCmpLE: ir.FCmpGT, ir.FCmpGT: ir.FCmpLE,
}

// linearize flattens the trace's blocks into one op sequence, turning
// on-trace jumps into fallthroughs and orienting conditional branches so
// their taken edge leaves the trace (inverting the producing compare when
// the trace follows the taken side). A jump to a NoCompact block — the one
// edge into it — is replaced by the block's transfer, which ends the trace.
func linearize(vf *VFunc, tr Trace) (*traceGraph, error) {
	g := &traceGraph{
		vf:            vf,
		renameAtSplit: map[int]map[VReg]VReg{},
		renameAtJoin:  map[int]map[VReg]VReg{},
		joinPos:       map[int]int{},
		splitTarget:   map[int]int{},
		finalIdx:      -1,
		rewritten:     map[VReg]bool{},
	}
	inTrace := map[int]int{} // block -> position in trace
	for i, b := range tr.Blocks {
		inTrace[b] = i
	}
	preds := vf.Preds()

	// A trace starting at the prologue holds the link register the prologue
	// saved until its first side entrance: a call only ever ends a trace. Its
	// link reloads are no-ops there.
	fromEntry := tr.Blocks[0] == 0
	curTI := 0
	emit := func(op VOp, src int) *schedOp {
		s := &schedOp{vop: op, origIdx: len(g.ops), srcBlock: src, traceIdx: curTI, instr: -1}
		g.ops = append(g.ops, s)
		if _, pre := vf.precolor[op.Dst]; pre {
			g.rewritten[op.Dst] = true
		}
		return s
	}

	for ti, bid := range tr.Blocks {
		curTI = ti
		b := vf.Blocks[bid]
		if ti > 0 {
			// join if any predecessor is not the previous trace block
			prev := tr.Blocks[ti-1]
			for _, p := range preds[bid] {
				if p != prev {
					g.joinPos[bid] = len(g.ops)
					fromEntry = false
					break
				}
			}
		}
		for oi := range b.Ops {
			op := b.Ops[oi] // copy
			isLast := oi == len(b.Ops)-1
			if !isLast {
				if !(fromEntry && op.Kind == ir.Load && op.Dst == vf.LR) {
					emit(op, bid)
				}
				continue
			}
			next := -1
			if ti+1 < len(tr.Blocks) {
				next = tr.Blocks[ti+1]
			}
			switch op.Kind {
			case mach.OpJmp:
				if op.T0 == next {
					continue // fallthrough
				}
				g.exit = op.T0
				if t := vf.Blocks[op.T0]; t.NoCompact {
					op = t.Ops[0]
				}
				s := emit(op, bid)
				s.isFinal = true
				g.finalIdx = s.origIdx
			case mach.OpBrT:
				if op.T1 == next {
					s := emit(op, bid)
					s.isSplit = true
					g.splitTarget[s.origIdx] = op.T0
				} else if op.T0 == next {
					// invert: find the BB def and flip its sense
					if err := invertBranch(g, &op); err != nil {
						return nil, err
					}
					op.T0, op.T1 = op.T1, op.T0
					s := emit(op, bid)
					s.isSplit = true
					g.splitTarget[s.origIdx] = op.T0
				} else {
					// trace ends at a two-way branch: split + final jump
					s := emit(op, bid)
					s.isSplit = true
					g.splitTarget[s.origIdx] = op.T0
					j := emit(VOp{Kind: mach.OpJmp, T0: op.T1, Line: op.Line}, bid)
					j.isFinal = true
					g.finalIdx = j.origIdx
					g.exit = op.T1
				}
			default:
				return nil, fmt.Errorf("%s: block b%d in compacted trace ends with %s",
					vf.Name, bid, mach.OpName(op.Kind))
			}
		}
	}
	return g, nil
}

// invertBranch flips the compare producing the branch's condition bit.
func invertBranch(g *traceGraph, br *VOp) error {
	bb := br.A.Reg
	for i := len(g.ops) - 1; i >= 0; i-- {
		o := &g.ops[i].vop
		if o.Dst != bb {
			continue
		}
		nk, ok := invCmp[o.Kind]
		if !ok {
			return fmt.Errorf("%s: branch condition defined by %s, cannot invert",
				g.vf.Name, mach.OpName(o.Kind))
		}
		o.Kind = nk
		return nil
	}
	return fmt.Errorf("%s: branch condition t%d not defined in trace", g.vf.Name, bb)
}

// rename gives every in-trace definition a fresh virtual register, breaking
// anti- and output-dependences so unrolled iterations can overlap. Snapshots
// of the renaming map are taken at every split and join for compensation.
// Precolored registers are never renamed. Nor is a move out of one at the
// head of the trace — a parameter, or a call's return value, ahead of the
// trace's first exit and first side entrance — that is its register's only
// definition in the trace: program order puts it before every edge leaving
// the trace, so writing the home register directly is what each of them
// expects, and no restore move has to re-establish it on every exit of the
// function's first trace.
//
// An exit's snapshot reads through in-trace moves: where a register's current
// name was last written by a same-class move from a register the trace wrote
// after its last side entrance, the exit restores from that source, which
// holds the same value on every path reaching the exit, and so does not wait
// for the move.
func (g *traceGraph) rename() {
	vf := g.vf
	cur := map[VReg]VReg{}
	wrote := map[VReg]bool{}     // names the trace wrote since its last side entrance
	movedFrom := map[VReg]VReg{} // a name a move wrote -> the move's source, if in wrote
	snap := func() map[VReg]VReg {
		m := make(map[VReg]VReg, len(cur))
		for k, v := range cur {
			m[k] = v
		}
		return m
	}
	exitSnap := func() map[VReg]VReg {
		m := snap()
		for k, v := range m {
			if src, ok := movedFrom[v]; ok {
				m[k] = src
			}
		}
		return m
	}
	// join snapshots are taken at linear positions; collect reverse map
	joinAt := map[int][]int{} // position -> blocks joining there
	head := len(g.ops)        // the ops before head precede every exit and entrance
	for b, pos := range g.joinPos {
		joinAt[pos] = append(joinAt[pos], b)
		head = min(head, pos)
	}
	defs := map[VReg]int{}
	for i, s := range g.ops {
		if s.isSplit || s.isFinal {
			head = min(head, i)
		}
		if s.vop.Dst != VNone {
			defs[s.vop.Dst]++
		}
	}
	resolve := func(a *VArg) {
		if a.IsImm || a.Reg == VNone {
			return
		}
		if r, ok := cur[a.Reg]; ok {
			a.Reg = r
		}
	}
	for i, s := range g.ops {
		if _, ok := joinAt[i]; ok {
			g.renameAtJoin[i] = snap()
			clear(wrote)
			clear(movedFrom)
		}
		o := &s.vop
		resolve(&o.A)
		resolve(&o.B)
		resolve(&o.C)
		if s.isSplit || s.isFinal {
			g.renameAtSplit[i] = exitSnap()
		}
		if o.Dst == VNone {
			continue
		}
		_, pre := vf.precolor[o.Dst]
		_, fromPre := vf.precolor[o.A.Reg]
		if pre || fromPre && o.Kind == ir.Mov && !o.A.IsImm && i < head && defs[o.Dst] == 1 {
			s.keepsName = true
		} else {
			fresh := vf.NewReg(vf.Class(o.Dst), vf.TypeOf(o.Dst))
			cur[o.Dst] = fresh
			o.Dst = fresh
		}
		if g.rewritten[o.Dst] {
			continue
		}
		wrote[o.Dst] = true
		if o.Kind == ir.Mov && !o.A.IsImm && wrote[o.A.Reg] && vf.Class(o.A.Reg) == vf.Class(o.Dst) {
			src := o.A.Reg
			if m, ok := movedFrom[src]; ok {
				src = m
			}
			movedFrom[o.Dst] = src
		}
	}
}

// foldGlobalConsts rewrites src2 register operands whose value is a
// function-level constant (e.g. a loop-invariant stride hoisted to the
// preheader) into immediates, freeing read ports and exposing add chains to
// collapsing. Only the src2 leg takes immediates in the encoding (§6.1).
func (g *traceGraph) foldGlobalConsts(consts map[VReg]int64) {
	fold := func(a *VArg) {
		if a.IsImm || a.Reg == VNone {
			return
		}
		c, ok := consts[a.Reg]
		// Only the inline 6-bit immediate is free; a 32-bit value would
		// compete for the pair's single shared immediate word per beat
		// (§6.1), which costs more than the register read it saves.
		if !ok || c < -32 || c > 31 {
			return
		}
		*a = VImmArg(int32(c))
	}
	for _, s := range g.ops {
		o := &s.vop
		switch o.Kind {
		case ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Sra,
			ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
			fold(&o.B)
		case ir.Select:
			if o.Type == ir.I32 {
				fold(&o.C)
			}
		}
	}
}

// forwardMoves rewrites operands that read the result of an in-trace
// register-to-register move to read the move's source directly, removing
// the move from dependence chains (the move still executes for its own
// consumers, e.g. exit restores). Like collapseAddChains, forwarding must
// not cross a side entrance: the joining path establishes only the current
// names. Nor does it read through a precolored register, which the trace
// may write again (the argument moves rewrite what the parameter moves
// read).
func (g *traceGraph) forwardMoves() {
	vf := g.vf
	defs := map[VReg]*VOp{}
	fwd := func(a *VArg) {
		if a.IsImm || a.Reg == VNone {
			return
		}
		for hops := 0; hops < 8; hops++ {
			d, ok := defs[a.Reg]
			if !ok || d.Kind != ir.Mov || d.A.IsImm || d.A.Reg == VNone || g.rewritten[d.A.Reg] {
				return
			}
			// only forward within a bank class; cross-bank moves are real
			// data routing
			if vf.Class(d.Dst) != vf.Class(d.A.Reg) {
				return
			}
			a.Reg = d.A.Reg
		}
	}
	for i, s := range g.ops {
		if _, isJoin := g.joinAtIndex(i); isJoin {
			defs = map[VReg]*VOp{}
		}
		o := &s.vop
		fwd(&o.A)
		fwd(&o.B)
		fwd(&o.C)
		if o.Dst != VNone {
			defs[o.Dst] = o
		}
	}
}

// collapseAddChains rewrites renamed add-immediate chains so each link
// depends on the chain's trace live-in rather than its predecessor:
// i1=i0+1, i2=i1+1 becomes i1=i0+1, i2=i0+2. Unrolled induction updates
// otherwise form a serial recurrence through the whole trace; collapsed,
// every unrolled iteration's address arithmetic is independent and can
// spread across the board pairs. (Height reduction in the style of
// Ellis's Bulldog generator.)
func (g *traceGraph) collapseAddChains() {
	defs := map[VReg]*VOp{}
	// chase resolves a register through in-trace I32 moves to its defining
	// op (renaming makes every def unique, so this is sound — but for the
	// precolored registers, which are never renamed: a chain ends at one).
	chase := func(r VReg) *VOp {
		for i := 0; i < 8; i++ {
			d, ok := defs[r]
			if !ok || g.rewritten[r] {
				return nil
			}
			if d.Kind == ir.Mov && d.Type == ir.I32 && !d.A.IsImm && d.A.Reg != VNone {
				r = d.A.Reg
				continue
			}
			return d
		}
		return nil
	}
	for i, s := range g.ops {
		// A side entrance re-establishes only the registers current at the
		// join; rewriting a later op to read an older rename would make the
		// joining path read a value its compensation never set. Chains must
		// not cross a join.
		if _, isJoin := g.joinAtIndex(i); isJoin {
			defs = map[VReg]*VOp{}
		}
		o := &s.vop
		if o.Kind == ir.Add && o.B.IsImm && o.B.Sym == "" && !o.A.IsImm && o.A.Reg != VNone {
			if d := chase(o.A.Reg); d != nil && d.Kind == ir.Add && d.B.IsImm && d.B.Sym == "" &&
				!d.A.IsImm && d.A.Reg != VNone && !g.rewritten[d.A.Reg] {
				sum := int64(o.B.Imm) + int64(d.B.Imm)
				if sum >= -1<<31 && sum < 1<<31 {
					o.A.Reg = d.A.Reg
					o.B.Imm = int32(sum)
				}
			}
		}
		if o.Dst != VNone {
			defs[o.Dst] = o
		}
	}
}

// origOf inverts a rename snapshot: renamed -> original.
func origOf(snap map[VReg]VReg) map[VReg]VReg {
	m := make(map[VReg]VReg, len(snap))
	for o, r := range snap {
		m[r] = o
	}
	return m
}

// addFinalRestores appends, just before the trace's final exit jump, a move
// re-establishing each original register (live into the exit's target) from
// its current renamed name, so off-trace code sees the canonical locations.
func (g *traceGraph) addFinalRestores(lv *VLiveness) {
	if g.finalIdx < 0 {
		return
	}
	snap := g.renameAtSplit[g.finalIdx]
	restores := restoreMovs(g.vf, lv, snap, g.exit)
	if len(restores) == 0 {
		return
	}
	movs := make([]*schedOp, len(restores))
	for i, m := range restores {
		movs[i] = &schedOp{vop: m, instr: -1, isRestore: true}
	}
	fi := g.finalIdx
	final := g.ops[fi]
	g.ops = append(g.ops[:fi], append(movs, final)...)
	for i := fi; i < len(g.ops); i++ {
		g.ops[i].origIdx = i
	}
	g.finalIdx = final.origIdx
	// the snapshot and split bookkeeping keyed by the old index move
	delete(g.renameAtSplit, fi)
	g.renameAtSplit[g.finalIdx] = snap
}

// buildDAG adds dependence edges. layout supplies global addresses, consts
// the function's single-assignment constants (globalConsts) for the
// disambiguator, and lv what each split's off-trace target reads.
func (g *traceGraph) buildDAG(cfg mach.Config, layout map[string]int64, consts map[VReg]int64, lv *VLiveness) {
	defsite := map[VReg]int{}
	var kept []int // writes so far that keep their names

	addEdge := func(from, to, minBeats, instrDelta int) {
		if from == to {
			return
		}
		g.ops[from].succs = append(g.ops[from].succs, sedge{to, minBeats, instrDelta})
		g.ops[to].npreds++
	}

	var mems []int           // indices of memory ops so far
	var splits []int         // indices of splits so far
	var aboveJoin []int      // ops before the most recent join (for split barriers)
	uses := map[VReg][]int{} // reads of each reg since its last definition

	formOf := newFormTracker(layout, consts)

	for i, s := range g.ops {
		o := &s.vop
		if _, ok := g.joinAtIndex(i); ok {
			aboveJoin = aboveJoinUpTo(g, i)
		}

		// flow dependences (halt and syscall read their convention registers
		// as they issue)
		reads := o.Uses()
		if o.Kind == mach.OpHalt || o.Kind == mach.OpSyscall {
			reads = implicitUses(g.vf, o, reads)
		}
		for _, u := range reads {
			if d, ok := defsite[u]; ok {
				lat := opLatency(&cfg, &g.ops[d].vop)
				// A convention write (an argument or return-value move) does
				// not share a word with the op computing its source: the
				// allocator takes a late-beat read of an early-beat write in
				// one word for a value live into that word, and so, for a
				// value computed there, live from the function's entry — one
				// more register held across the whole function for every
				// call and return. For the same reason no op of a
				// compensation block reads in its producer's word.
				delta := 0
				_, pre := g.vf.precolor[o.Dst]
				_, srcPre := g.vf.precolor[u]
				if g.comp || pre && !srcPre {
					delta = 1
				}
				addEdge(d, i, lat, delta)
				// chain detection looks through moves: acc = mov t after
				// t = fadd acc', x is still the same reduction
				dk := g.ops[d]
				for hops := 0; hops < 8 && dk.vop.Kind == ir.Mov; hops++ {
					src := dk.vop.A.Reg
					if dk.vop.A.IsImm || src == VNone {
						break
					}
					nd, ok := defsite[src]
					if !ok {
						break
					}
					dk = g.ops[nd]
				}
				if dk.vop.Kind == o.Kind || (o.Kind == ir.Mov && dk.vop.Kind != ir.Mov) {
					switch dk.vop.Kind {
					case ir.FAdd, ir.FSub, ir.FMul, ir.Add, ir.Sub:
						if o.Kind == dk.vop.Kind || o.Kind == ir.Mov {
							s.chained = true
						}
					}
				}
			}
			uses[u] = append(uses[u], i)
		}
		// Renaming removed almost all WAR/WAW hazards; the exceptions are
		// precolored registers and the restore moves that re-establish
		// original names at the trace's final exit. A write may not take
		// effect before an outstanding read issues (reads happen at issue,
		// writes land at issue+latency, so issue(def) ≥ issue(use) is
		// sufficient), and a write must follow a previous write by a beat.
		if o.Dst != VNone {
			for _, j := range uses[o.Dst] {
				addEdge(j, i, 0, 0)
			}
			if d, ok := defsite[o.Dst]; ok {
				addEdge(d, i, 1, 0)
			}
			uses[o.Dst] = nil
			defsite[o.Dst] = i
		}

		// memory dependences
		if o.IsMem() {
			s.isMem = true
			r := formOf.refOf(o)
			s.ref = &r
			for _, j := range mems {
				m := g.ops[j]
				if o.Kind != ir.Store && m.vop.Kind != ir.Store {
					continue // two loads commute
				}
				if alias.MayAlias(*m.ref, r) != alias.No {
					addEdge(j, i, 1, 0)
				}
			}
			mems = append(mems, i)
		}
		formOf.note(o)

		// control dependences
		if s.isSplit || s.isFinal {
			// branches stay ordered among themselves; multiway packing may
			// place several in one instruction (priority resolves), so the
			// edge is beat-level only when multiway is on — but for a
			// transfer, which takes no part in the priorities: it never
			// shares a split's instruction.
			brDelta := 1
			if cfg.MultiwayBranch && (o.Kind == mach.OpBrT || o.Kind == mach.OpJmp) {
				brDelta = 0
			}
			for _, j := range splits {
				addEdge(j, i, -1, brDelta)
			}
			// a branch may not move above any op that precedes the nearest
			// join (the entrance would have to move above it, impossible)
			for _, j := range aboveJoin {
				addEdge(j, i, -1, 1)
			}
			// A write that keeps its name and that the split's target reads,
			// issued at or before the split, has landed by the time the
			// target reads (one that cannot miss the next word needs no edge).
			if s.isSplit {
				for _, d := range kept {
					lat := opLatency(&cfg, &g.ops[d].vop)
					if lat >= 2 && lv.In[g.splitTarget[i]].Has(ir.Reg(g.ops[d].vop.Dst)) {
						addEdge(d, i, lat-2, 0)
					}
				}
			}
			splits = append(splits, i)
		} else if s.isRestore {
			// Restore moves write ORIGINAL register names, which are live
			// on every off-trace edge; moving one above a split would
			// clobber the value the off-trace path reads. Keep them below
			// all splits (the split's own compensation re-establishes names
			// from its snapshot).
			for _, j := range splits {
				addEdge(j, i, -1, 1)
			}
		} else {
			if s.keepsName {
				// The same rule for a write that keeps its name (a
				// convention register: no other follows a split), but only
				// where the split's target still reads it: the link reload
				// may rise above a test whose other side calls, the stack
				// release may not.
				for _, j := range splits {
					if lv.In[g.splitTarget[j]].Has(ir.Reg(o.Dst)) {
						addEdge(j, i, -1, 1)
					}
				}
				kept = append(kept, i)
			}
			switch o.Kind {
			case ir.Store, mach.OpMovSF:
				// stores never move above a split: the off-trace path must
				// not see the store. (MovSF is pure, but keeping it with its
				// store costs little and keeps the store file small.)
				if o.Kind == ir.Store {
					for _, j := range splits {
						addEdge(j, i, -1, 1)
					}
				}
			case ir.Load:
				if !cfg.SpeculativeLoads {
					// without the §7 non-trapping opcodes, loads cannot
					// cross a split either
					for _, j := range splits {
						addEdge(j, i, 0, 1)
					}
				}
			case ir.Div, ir.Rem:
				// integer divide can fault; never speculate it
				for _, j := range splits {
					addEdge(j, i, -1, 1)
				}
			}
		}
	}

	// The final jump must not precede anything: give every op an
	// instruction-level edge to it so it lands in the last instruction.
	// Ops that write ORIGINAL registers (the restores and the writes that
	// keep their names) additionally hold the jump until their writes will
	// have drained by the time the next block reads (next read beat = jump
	// issue + 2). A transfer holds every op so: nothing the trace wrote may
	// still be in flight in the callee, the caller or the runtime.
	if g.finalIdx >= 0 {
		transfer := g.ops[g.finalIdx].vop.Kind != mach.OpJmp
		for i := range g.ops {
			if i == g.finalIdx {
				continue
			}
			mb := -1
			if g.ops[i].isRestore || g.ops[i].keepsName || transfer {
				if l := opLatency(&cfg, &g.ops[i].vop) - 2; l > mb {
					mb = l
				}
			}
			addEdge(i, g.finalIdx, mb, 0)
		}
	}

	// critical-path priorities
	for i := len(g.ops) - 1; i >= 0; i-- {
		s := g.ops[i]
		h := int64(opLatency(&cfg, &s.vop))
		for _, e := range s.succs {
			mb := e.minBeats
			if mb < 0 {
				mb = 0
			}
			if v := g.ops[e.to].prio + int64(mb) + 1; v > h {
				h = v
			}
		}
		s.prio = h
	}
}

// joinAtIndex reports whether linear index i is a join position.
func (g *traceGraph) joinAtIndex(i int) (int, bool) {
	for _, pos := range g.joinPos {
		if pos == i {
			return pos, true
		}
	}
	return 0, false
}

// aboveJoinUpTo returns the indices of all ops before linear position pos.
func aboveJoinUpTo(g *traceGraph, pos int) []int {
	out := make([]int, 0, pos)
	for i := 0; i < pos; i++ {
		out = append(out, i)
	}
	return out
}

// opLatency returns the write latency of an op in beats.
func opLatency(cfg *mach.Config, o *VOp) int { return cfg.Latency(o.Kind, o.Type) }

// formTracker derives linear address forms (§6.4.2's derivation trees) for
// vops, whose operands may be immediates, walking a trace in execution order:
// a register written in the trace takes the form of its definition, one read
// before any write takes the function's constant for it (globalConsts), and
// anything else is a fresh opaque variable. Because the walk is in order,
// redefinitions version correctly: after i = i + 1, references through i
// differ from earlier ones by exactly the constant, which is what resolves
// the references of an unrolled loop.
type formTracker struct {
	forms  map[VReg]alias.Form
	consts map[VReg]int64
	gaddr  map[string]int64
	next   int
}

func newFormTracker(layout map[string]int64, consts map[VReg]int64) *formTracker {
	return &formTracker{forms: map[VReg]alias.Form{}, consts: consts, gaddr: layout, next: 1}
}

// globalConsts returns the constant each register holds that is assigned
// exactly once in the whole function, by an affine op (formTracker.derive)
// of immediates, located globals and such constants. Loop-invariant code
// motion hoists array base addresses and strides out of loops, so inside a
// loop trace they are live-ins; without these function-level values the
// disambiguator would treat two distinct arrays' bases as unrelated unknowns
// and answer "maybe" for every load/store pair, serializing the loop. A
// single-assignment register holds the same value at every point after its
// definition, so the value is sound across traces.
func globalConsts(vf *VFunc, layout map[string]int64) map[VReg]int64 {
	defs := map[VReg]*VOp{}
	count := map[VReg]int{}
	for _, b := range vf.Blocks {
		for i := range b.Ops {
			o := &b.Ops[i]
			if o.Dst != VNone {
				count[o.Dst]++
				defs[o.Dst] = o
			}
		}
	}
	t := newFormTracker(layout, map[VReg]int64{})
	// known reports whether a's form is already a constant.
	known := func(a VArg) bool {
		if a.IsImm {
			_, located := layout[a.Sym]
			return a.Sym == "" || located
		}
		_, ok := t.consts[a.Reg]
		return a.Reg == VNone || ok
	}
	for changed := true; changed; {
		changed = false
		for r, o := range defs {
			if _, done := t.consts[r]; done || count[r] != 1 || !known(o.A) || !known(o.B) {
				continue
			}
			if f := t.derive(o); f.IsConst() {
				t.consts[r] = f.Const
				changed = true
			}
		}
	}
	return t.consts
}

func (t *formTracker) fresh() alias.Form {
	t.next++
	return alias.VarForm(t.next)
}

func (t *formTracker) argForm(a VArg) alias.Form {
	if a.IsImm {
		if a.Sym != "" {
			if addr, ok := t.gaddr[a.Sym]; ok {
				return alias.ConstForm(addr)
			}
			return t.fresh()
		}
		return alias.ConstForm(int64(a.Imm))
	}
	if a.Reg == VNone {
		return alias.ConstForm(0)
	}
	if f, ok := t.forms[a.Reg]; ok {
		return f
	}
	if c, ok := t.consts[a.Reg]; ok {
		return alias.ConstForm(c)
	}
	f := t.fresh()
	t.forms[a.Reg] = f
	return f
}

// refOf returns the address form for a memory vop (A = base, B = offset).
func (t *formTracker) refOf(o *VOp) alias.Ref {
	base := t.argForm(o.A)
	off := t.argForm(o.B)
	return alias.Ref{Addr: base.Add(off), Size: o.Type.Size()}
}

// note updates derivations after executing o.
func (t *formTracker) note(o *VOp) {
	if o.Dst != VNone {
		t.forms[o.Dst] = t.derive(o)
	}
}

// derive is the one affine rule: the form o writes when it is ConstI, an I32
// Mov, Add, Sub, Neg, Mul by a constant or Shl by 0..30 of its operands'
// forms, and a fresh opaque variable for any other op.
func (t *formTracker) derive(o *VOp) alias.Form {
	switch o.Kind {
	case ir.ConstI:
		return t.argForm(o.A)
	case ir.Mov:
		if o.Type == ir.I32 {
			return t.argForm(o.A)
		}
	case ir.Add:
		return t.argForm(o.A).Add(t.argForm(o.B))
	case ir.Sub:
		return t.argForm(o.A).Sub(t.argForm(o.B))
	case ir.Mul:
		x, y := t.argForm(o.A), t.argForm(o.B)
		switch {
		case x.IsConst():
			return y.Scale(x.Const)
		case y.IsConst():
			return x.Scale(y.Const)
		}
	case ir.Shl:
		if y := t.argForm(o.B); y.IsConst() && y.Const >= 0 && y.Const < 31 {
			return t.argForm(o.A).Scale(1 << uint(y.Const))
		}
	case ir.Neg:
		return t.argForm(o.A).Scale(-1)
	}
	return t.fresh()
}
