package tsched

import (
	"cmp"
	"fmt"
	"maps"

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
	// An exit (a split or the final op) leaves to target; exit names, for
	// each original register, the register holding its value there
	// (nameValues), from which restore moves re-establish it.
	target int
	exit   map[VReg]VReg
	// joins lists the blocks entering the trace at this op, and entry the
	// names they find; the entrance's compensation establishes them.
	joins []int
	entry map[VReg]VReg

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

// traceGraph is a linearized, renamed trace with its dependence DAG; its
// exits and entrances carry what compensation code needs afterwards.
type traceGraph struct {
	vf       *VFunc
	ops      []*schedOp
	finalIdx int // index of the final exit op (-1 if none)
	// rewritten holds the precolored registers the trace writes: never
	// renamed, they are not single-assignment within the trace, so nothing
	// may read through one to an older value.
	rewritten map[VReg]bool
	// comp marks the graph of a compensation block (compBlock).
	comp bool
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
	g := &traceGraph{vf: vf, finalIdx: -1, rewritten: map[VReg]bool{}}
	preds := vf.Preds()

	// A trace starting at the prologue holds the link register the prologue
	// saved until its first side entrance: a call only ever ends a trace. Its
	// link reloads are no-ops there.
	fromEntry := tr.Blocks[0] == 0
	curTI := 0
	var joins []int // blocks entering at the next op
	emit := func(op VOp, src int) *schedOp {
		s := &schedOp{vop: op, origIdx: len(g.ops), srcBlock: src, traceIdx: curTI, instr: -1, joins: joins}
		g.ops, joins = append(g.ops, s), nil
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
					joins = append(joins, bid)
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
				exit := op.T0
				if t := vf.Blocks[op.T0]; t.NoCompact {
					op = t.Ops[0]
				}
				s := emit(op, bid)
				s.isFinal, s.target = true, exit
				g.finalIdx = s.origIdx
			case mach.OpBrT:
				if op.T0 == next && op.T1 != next {
					// invert: find the BB def and flip its sense
					if err := invertBranch(g, &op); err != nil {
						return nil, err
					}
					op.T0, op.T1 = op.T1, op.T0
				}
				s := emit(op, bid)
				s.isSplit, s.target = true, op.T0
				if op.T1 != next {
					// trace ends at a two-way branch: split + final jump
					j := emit(VOp{Kind: mach.OpJmp, T0: op.T1, Line: op.Line}, bid)
					j.isFinal, j.target = true, op.T1
					g.finalIdx = j.origIdx
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

// value is what nameValues knows of a register written since the trace's
// last side entrance: the op that wrote it and, for a same-class move from
// another such register, the first of the chain holding the same value
// (VNone otherwise).
type value struct {
	def  *VOp
	held VReg
}

// nameValues is the one forward walk that says what each register of the
// trace holds. Its table holds the registers written since the last side
// entrance: a joining path establishes only the current names, so nothing
// below a join reads through a register written above it. For each op it
//
//   - resolves each operand once: to its current name, then through
//     same-class in-trace moves to their source (the move stays for its own
//     readers; a precolored source, which the trace may write again, ends
//     the chain), and, when spread, to a function-level constant that fits
//     the inline 6-bit immediate (src2 only: a 32-bit one would compete for
//     the pair's one immediate word per beat, §6.1), and for an add of an
//     immediate, through a chain of such adds to its live-in (i2 = i1+1
//     after i1 = i0+1 becomes i2 = i0+2: Bulldog-style height reduction, so
//     unrolled iterations spread across board pairs);
//   - at a split or the final exit, records in exit the name of each
//     original register's value there. Where a name was last written by a
//     same-class move from a register in the table, the exit restores from
//     that source, which holds the same value on every path reaching the
//     exit, and does not wait for the move. The moves restoring what the
//     final exit's target reads are placed before it;
//   - gives its result a fresh register, breaking anti- and output
//     dependences so unrolled iterations can overlap. Precolored registers
//     keep their names, and so does a move out of one at the trace's head —
//     a parameter, or a call's return value, ahead of the first exit and
//     first side entrance — that is its register's only definition in the
//     trace: it precedes every edge leaving the trace, each of which expects
//     the home register written.
//
// At a side entrance it records in entry the names the entrance finds.
func (g *traceGraph) nameValues(lv *VLiveness, consts map[VReg]int64, spread bool) {
	vf := g.vf
	cur := map[VReg]VReg{} // original register -> its current name
	since := map[VReg]value{}
	head := len(g.ops) // the ops before head precede every exit and entrance
	defs := map[VReg]int{}
	for i, s := range g.ops {
		if s.isSplit || s.isFinal || s.joins != nil {
			head = min(head, i)
		}
		if s.vop.Dst != VNone {
			defs[s.vop.Dst]++
		}
	}
	ops := make([]*schedOp, 0, len(g.ops))
	for i, s := range g.ops {
		if s.joins != nil {
			s.entry = maps.Clone(cur)
			clear(since)
		}
		o := &s.vop
		src := VNone // the register a move reads, by its current name
		for k, a := range [...]*VArg{&o.A, &o.B, &o.C} {
			if a.IsImm || a.Reg == VNone {
				continue
			}
			if r, ok := cur[a.Reg]; ok {
				a.Reg = r
			}
			if k == 0 {
				src = a.Reg
			}
			for hops := 0; hops < 8; hops++ {
				d := since[a.Reg].def
				if d == nil || d.Kind != ir.Mov || d.A.IsImm || g.rewritten[d.A.Reg] || vf.Class(d.Dst) != vf.Class(d.A.Reg) {
					break
				}
				a.Reg = d.A.Reg
			}
		}
		if spread {
			switch o.Kind {
			case ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Sra,
				ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
				foldConst(&o.B, consts)
			case ir.Select:
				if o.Type == ir.I32 {
					foldConst(&o.C, consts)
				}
			}
			if d := g.addChain(since, o); d != nil {
				if sum := int64(o.B.Imm) + int64(d.B.Imm); sum == int64(int32(sum)) {
					o.A.Reg, o.B.Imm = d.A.Reg, int32(sum)
				}
			}
		}
		if s.isSplit || s.isFinal {
			s.exit = maps.Clone(cur)
			for r, v := range s.exit {
				if h := since[v].held; h != VNone {
					s.exit[r] = h
				}
			}
		}
		if s.isFinal {
			for k, m := range restoreMovs(vf, lv, s.exit, s.target) {
				r := &schedOp{vop: m, instr: -1, isRestore: true}
				if k == 0 { // an entrance at the exit enters at its restores
					r.joins, r.entry, s.joins, s.entry = s.joins, s.entry, nil, nil
				}
				ops = append(ops, r)
			}
		}
		if d := o.Dst; d != VNone {
			_, pre := vf.precolor[d]
			_, fromPre := vf.precolor[src]
			if pre || fromPre && o.Kind == ir.Mov && i < head && defs[d] == 1 {
				s.keepsName = true
			} else {
				o.Dst = vf.NewReg(vf.Class(d), vf.TypeOf(d))
				cur[d] = o.Dst
			}
			v := value{def: o}
			if w, ok := since[src]; ok && o.Kind == ir.Mov && !g.rewritten[src] && !g.rewritten[o.Dst] && vf.Class(src) == vf.Class(o.Dst) {
				v.held = cmp.Or(w.held, src)
			}
			since[o.Dst] = v
		}
		ops = append(ops, s)
	}
	g.ops = ops
	for i, s := range ops {
		s.origIdx = i
		if s.isFinal {
			g.finalIdx = i
		}
	}
}

// foldConst rewrites a register operand holding a function-level constant
// (consts) that fits the inline 6-bit immediate into that immediate.
func foldConst(a *VArg, consts map[VReg]int64) {
	if c, ok := consts[a.Reg]; ok && !a.IsImm && c >= -32 && c <= 31 {
		*a = VImmArg(int32(c))
	}
}

// addChain returns, for an add of an immediate to a register, the add of an
// immediate that wrote the register since the last side entrance, looking
// through I32 moves, if it reads a register too; nil otherwise. A chain ends
// at a precolored register the trace writes.
func (g *traceGraph) addChain(since map[VReg]value, o *VOp) *VOp {
	if o.Kind != ir.Add || !o.B.IsImm || o.B.Sym != "" || o.A.IsImm || o.A.Reg == VNone {
		return nil
	}
	r := o.A.Reg
	for hops := 0; hops < 8; hops++ {
		d := since[r].def
		switch {
		case d == nil || g.rewritten[r]:
			return nil
		case d.Kind == ir.Mov && d.Type == ir.I32 && !d.A.IsImm && d.A.Reg != VNone:
			r = d.A.Reg
		case d.Kind == ir.Add && d.B.IsImm && d.B.Sym == "" && !d.A.IsImm && d.A.Reg != VNone && !g.rewritten[d.A.Reg]:
			return d
		default:
			return nil
		}
	}
	return nil
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
	joined := 0              // the ops before it precede the most recent join
	uses := map[VReg][]int{} // reads of each reg since its last definition

	formOf := newFormTracker(layout, consts)

	for i, s := range g.ops {
		o := &s.vop
		if s.joins != nil {
			joined = i
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
			for j := range joined {
				addEdge(j, i, -1, 1)
			}
			// A write that keeps its name and that the split's target reads,
			// issued at or before the split, has landed by the time the
			// target reads (one that cannot miss the next word needs no edge).
			if s.isSplit {
				for _, d := range kept {
					lat := opLatency(&cfg, &g.ops[d].vop)
					if lat >= 2 && lv.In[s.target].Has(ir.Reg(g.ops[d].vop.Dst)) {
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
					if lv.In[g.ops[j].target].Has(ir.Reg(o.Dst)) {
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
