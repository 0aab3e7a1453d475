package tsched

import (
	"fmt"
	"os"
	"slices"
	"sort"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// SSlot is a scheduled op in a wide instruction, with its resolved branch
// target (filled by the stitcher).
type SSlot struct {
	Unit mach.Unit
	Beat uint8
	Op   VOp
	Prio int // branch priority within the instruction (lower wins)
	// Copy marks a cross-bank copy the scheduler inserted to route an
	// operand, rather than an op of the trace or compensation list.
	Copy bool

	// Branch resolution: TargetBlock/Off name an instruction inside another
	// SBlock (a call names its callee in Op.Sym, for the linker).
	TargetBlock int
	TargetOff   int
}

// SInstr is one wide instruction of scheduled code.
type SInstr struct {
	Slots []SSlot
}

// SBlock is a scheduled region: a compacted trace, a serialized transfer,
// or a compensation block. Control may enter at offset 0 or, for traces with
// relocated join entrances, at an interior instruction.
type SBlock struct {
	ID     int
	Instrs []SInstr

	// Serial marks a transfer (call, syscall, return, halt) that could not
	// end its trace, alone in a block that padSerial starts with exactly the
	// empty instructions the flight on its entering edges needs.
	Serial bool
	// Comp marks a compensation block (compBlock), which padSerial starts
	// the same way: no write from the code entering it is still in flight.
	Comp bool
	// Join marks a compensation block on a side entrance (emitJoinComp); a
	// compensation block without it is on a split's off-trace edge.
	Join bool
	// Falls is the block control continues in after this one's last word —
	// a call's return site, or where a syscall falls through — laid out
	// right behind it; nil if the last word transfers control.
	Falls *SBlock
}

// SFunc is a fully scheduled function awaiting register allocation.
type SFunc struct {
	Name   string
	VF     *VFunc
	Blocks []*SBlock
	Entry  int // SBlock holding the prologue
	home   homes

	// stats for the experiments
	CompOps      int // compensation ops emitted
	CopyOps      int // cross-bank copies inserted
	SpecLoads    int // loads converted to the non-trapping opcodes (§7)
	PadInstrs    int // empty instructions serialized blocks start with
	SerialInstrs int // instructions left in serialized blocks, pads included
}

// Layout returns the block IDs in emission order: the entry first, then the
// rest in creation order, each block followed by the chain of blocks it
// falls into.
func (sf *SFunc) Layout() []int {
	behind := make([]bool, len(sf.Blocks)) // laid out behind the block falling into it
	for _, b := range sf.Blocks {
		if b.Falls != nil {
			behind[b.Falls.ID] = true
		}
	}
	order := make([]int, 0, len(sf.Blocks))
	chain := func(b *SBlock) {
		for ; b != nil; b = b.Falls {
			order = append(order, b.ID)
		}
	}
	chain(sf.Blocks[sf.Entry])
	for _, b := range sf.Blocks {
		if b.ID != sf.Entry && !behind[b.ID] {
			chain(b)
		}
	}
	return order
}

// homes records the board whose banks hold each virtual register's value,
// indexed by VReg: 0 until something homes the register, then board+1.
type homes []uint8

func (h homes) get(r VReg) (board uint8, ok bool) {
	if int(r) >= len(h) || h[r] == 0 {
		return 0, false
	}
	return h[r] - 1, true
}

func (h *homes) set(r VReg, board uint8) {
	if n := int(r) + 1 - len(*h); n > 0 {
		*h = append(*h, make([]uint8, n)...)
	}
	(*h)[r] = board + 1
}

func (h homes) unset(r VReg) { h[r] = 0 }

// entrance locates where control enters a scheduled vblock.
type entrance struct {
	block int // SBlock
	off   int
}

// Assemble schedules every trace of the function and stitches the results —
// with all compensation code — into an SFunc. maxTraceBlocks (0 = no limit)
// caps trace length; the driver lowers it when register pressure overflows.
func Assemble(cfg mach.Config, vf *VFunc, prof ir.EdgeWeights, layout map[string]int64, maxTraceBlocks int) (*SFunc, error) {
	lv := vf.ComputeLiveness()
	traces := SelectTraces(vf, prof, maxTraceBlocks)
	sf := &SFunc{Name: vf.Name, VF: vf, home: make(homes, vf.NumRegs())}
	// precolored registers are homed by their colors
	for r, p := range vf.precolor {
		sf.home.set(r, p.Board)
	}

	if debugLog {
		for i, tr := range traces {
			fmt.Fprintf(os.Stderr, "trace %d: %v\n", i, tr.Blocks)
		}
	}
	st := &stitcher{cfg: cfg, vf: vf, sf: sf, lv: lv, layout: layout, consts: globalConsts(vf, layout),
		sched:     newScheduler(cfg, vf, &sf.home),
		entrances: map[int]entrance{}, joinComp: map[int]int{}, pending: map[int][]pendingBranch{},
		fallsTo: map[*SBlock]int{}}

	for _, tr := range traces {
		if vf.Blocks[tr.Blocks[0]].NoCompact {
			continue // its transfer ends the trace that jumps to it
		}
		if err := st.addTrace(tr); err != nil {
			return nil, err
		}
	}
	if err := st.resolve(); err != nil {
		return nil, err
	}
	// entry = the SBlock holding vblock 0 (the prologue)
	e, ok := st.entrances[0]
	if !ok || e.off != 0 {
		return nil, fmt.Errorf("%s: prologue has no entrance", vf.Name)
	}
	sf.Entry = e.block
	st.padSerial()
	return sf, nil
}

// pendingBranch records a branch slot awaiting target resolution.
type pendingBranch struct {
	block, instr, slot int
}

type stitcher struct {
	cfg    mach.Config
	vf     *VFunc
	sf     *SFunc
	lv     *VLiveness
	layout map[string]int64
	sched  *scheduler

	entrances map[int]entrance // vblock -> where control enters
	joinComp  map[int]int      // vblock -> comp SBlock that must precede entry
	pending   map[int][]pendingBranch
	fallsTo   map[*SBlock]int // trace ending in a call or syscall -> its continuation's vblock
	consts    map[VReg]int64  // the function's single-assignment constants (globalConsts)
}

// debugLog, read once: TSCHED_DEBUG prints the traces, the retries and the
// state of a failed stitch to stderr.
var debugLog = os.Getenv("TSCHED_DEBUG") != ""

func (st *stitcher) newBlock() *SBlock {
	b := &SBlock{ID: len(st.sf.Blocks)}
	st.sf.Blocks = append(st.sf.Blocks, b)
	return b
}

// wantTarget registers a branch slot to be pointed at vblock v's entrance
// once every trace is stitched.
func (st *stitcher) wantTarget(v int, pb pendingBranch) {
	st.pending[v] = append(st.pending[v], pb)
}

// resolve points every pending branch at its final location, routing
// through join-compensation blocks where the entrance was relocated.
func (st *stitcher) resolve() error {
	for v, pbs := range st.pending {
		e, ok := st.entrances[v]
		if !ok {
			if debugLog {
				fmt.Fprintf(os.Stderr, "entrances: %v\nvfunc:\n%s\n", st.entrances, st.vf)
			}
			return fmt.Errorf("%s: no entrance for vblock %d", st.vf.Name, v)
		}
		if jc, ok := st.joinComp[v]; ok {
			e = entrance{block: jc, off: 0}
		}
		for _, pb := range pbs {
			slot := &st.sf.Blocks[pb.block].Instrs[pb.instr].Slots[pb.slot]
			slot.TargetBlock = e.block
			slot.TargetOff = e.off
		}
	}
	// A call returns into the word behind it, and a syscall falls there. A
	// continuation heads its trace (its one predecessor is the transfer's
	// NoCompact block), so it is laid out behind the trace that ends in the
	// transfer — unless the chain of continuations leads back to that trace
	// (a loop whose continuation heads the trace that calls), which then
	// falls into a jump to its continuation instead.
	for _, sb := range st.sf.Blocks {
		v, ok := st.fallsTo[sb]
		if !ok {
			continue
		}
		e := st.entrances[v]
		if _, comp := st.joinComp[v]; comp || e.off != 0 {
			return fmt.Errorf("%s: continuation b%d does not head its trace", st.vf.Name, v)
		}
		sb.Falls = st.sf.Blocks[e.block]
	}
	for _, sb := range st.sf.Blocks {
		for b := sb.Falls; b != nil; b = b.Falls {
			if b == sb {
				j := st.newBlock()
				j.Instrs = []SInstr{{Slots: []SSlot{{Unit: mach.Unit{Kind: mach.UBR},
					Op: VOp{Kind: mach.OpJmp}, TargetBlock: sb.Falls.ID}}}}
				sb.Falls = j
				break
			}
		}
	}
	return nil
}

// padSerial makes sure nothing is airborne across a call, return, syscall
// or halt (registers cannot be tracked across functions, nor into the
// runtime), nor into compensation code, which re-executes ops whose
// speculative copies the entering trace may still have in flight. The
// dependence graph drains a trace's own writes before the transfer ending
// it; a write entering the trace from another one that is still in flight
// at the transfer's word moves the transfer out of the trace, into a
// serialized block of its own behind a jump (unfold). Every serialized and
// every compensation block starts with as many empty instructions as the
// writes in flight on its entering edges need to land. Placement inside a
// block is relative to its first op, so the pad can go in front after the
// fact; every edge into such a block targets its offset 0.
func (st *stitcher) padSerial() {
	sf := st.sf
	enter, at := st.entryFlight()
	if st.unfold(at) {
		enter, _ = st.entryFlight()
	}
	for id, f := range enter {
		if sb := sf.Blocks[id]; f > 0 {
			pad := (f + 1) / 2
			sb.Instrs = append(make([]SInstr, pad, pad+len(sb.Instrs)), sb.Instrs...)
			if sb.Serial {
				sf.PadInstrs += pad
			}
		}
	}
	for _, sb := range sf.Blocks {
		if sb.Serial {
			sf.SerialInstrs += len(sb.Instrs)
		}
	}
}

// unfold moves each transfer ending a trace whose word a write from another
// block is still in flight at (at, entryFlight's table) into a serialized
// block of its own, which the transfer's slot now jumps to and which falls
// where the trace fell. It reports whether it moved any.
func (st *stitcher) unfold(at [][]int) bool {
	moved := false
	for _, b := range st.sf.Blocks {
		k := len(b.Instrs) - 1
		if b.Serial || k < 0 {
			continue
		}
		for si := range b.Instrs[k].Slots {
			s := &b.Instrs[k].Slots[si]
			switch s.Op.Kind {
			case mach.OpCall, mach.OpSyscall, mach.OpJmpR, mach.OpHalt:
			default:
				continue
			}
			f := 0
			for i := 0; i <= k; i++ {
				f = max(f, at[b.ID][i]-2*(k-i))
			}
			if f <= 0 {
				continue
			}
			sb := st.newBlock()
			sb.Serial = true
			sb.Instrs = []SInstr{{Slots: []SSlot{*s}}}
			*s = SSlot{Unit: s.Unit, Prio: s.Prio, Op: VOp{Kind: mach.OpJmp, Line: s.Op.Line}, TargetBlock: sb.ID}
			sb.Falls, b.Falls = b.Falls, nil
			moved = true
		}
	}
	return moved
}

// entryFlight returns, indexed by block ID, the flight on the edges entering
// each serialized or compensation block: the latest beat, counted from the
// block's first early beat, at which a write issued before it lands (§6.2: a
// write issued at beat b with latency L is read from beat b+L on, so ≤ 0
// means nothing is in flight). It is a forward fixpoint over the resolved
// blocks of the latest landing at each instruction — at[b][i], the flight a
// branch or a fallthrough brings to instruction i of block b, is returned
// too; such a block's own code starts with nothing in flight, since its
// pad drains what enters, and a call or syscall passes nothing on to
// the word behind it (callees return drained; a trace drains its own writes
// by then, and unfold moves a transfer that writes from elsewhere reach).
// Calls enter the prologue with only their link write in flight, landing
// before its first word.
func (st *stitcher) entryFlight() (enter []int, at [][]int) {
	sf, cfg := st.sf, &st.cfg
	enter = make([]int, len(sf.Blocks))
	at = make([][]int, len(sf.Blocks))
	for _, b := range sf.Blocks {
		at[b.ID] = make([]int, len(b.Instrs))
	}
	changed := false
	reach := func(b, off, f int) {
		switch {
		case sf.Blocks[b].Serial || sf.Blocks[b].Comp:
			enter[b] = max(enter[b], f)
		case off < len(at[b]) && f > at[b][off]:
			at[b][off] = f
			changed = true
		}
	}
	order := sf.Layout()
	for {
		changed = false
		for pos, id := range order {
			b := sf.Blocks[id]
			cur, falls := 0, true
			for i := range b.Instrs {
				land := max(cur, at[id][i])
				falls = true
				for si := range b.Instrs[i].Slots {
					if s := &b.Instrs[i].Slots[si]; s.Op.Dst != VNone {
						land = max(land, int(s.Beat)+opLatency(cfg, &s.Op))
					}
				}
				cur = land - 2
				for si := range b.Instrs[i].Slots {
					switch s := &b.Instrs[i].Slots[si]; s.Op.Kind {
					case mach.OpJmp:
						falls = false
						reach(s.TargetBlock, s.TargetOff, cur)
					case mach.OpBrT:
						reach(s.TargetBlock, s.TargetOff, cur)
					case mach.OpJmpR, mach.OpHalt:
						falls = false
					case mach.OpCall, mach.OpSyscall:
						cur = min(cur, 0)
					}
				}
				if !falls {
					cur = 0
				}
			}
			if falls && len(b.Instrs) > 0 && pos+1 < len(order) {
				reach(order[pos+1], 0, cur)
			}
		}
		if !changed {
			return enter, at
		}
	}
}

// addTrace compacts one trace and emits its SBlock plus compensation blocks.
func (st *stitcher) addTrace(tr Trace) error {
	vf, cfg := st.vf, st.cfg
	g, err := linearize(vf, tr)
	if err != nil {
		return err
	}
	g.rename()
	g.forwardMoves()
	if cfg.Pairs > 1 {
		// Constant folding and add-chain collapsing exist to decouple the
		// unrolled iterations so they can spread across board pairs; on a
		// single pair there is nothing to spread to, and the extra
		// immediate-word traffic only costs.
		g.foldGlobalConsts(st.consts)
		g.collapseAddChains()
	}
	g.addFinalRestores(st.lv)
	g.buildDAG(cfg, st.layout, st.consts, st.lv)
	res, err := st.sched.scheduleTrace(g)
	if err != nil {
		return err
	}

	// speculative-load conversion: a load scheduled at or above a split it
	// originally followed becomes the non-trapping opcode (§7)
	var splitIdxs []int
	for i, op := range g.ops {
		if op.isSplit {
			splitIdxs = append(splitIdxs, i)
		}
	}
	for _, p := range res.placed {
		if p.src == nil || p.src.vop.Kind != ir.Load {
			continue
		}
		for _, si := range splitIdxs {
			if si < p.src.origIdx && g.ops[si].instr >= p.src.instr {
				p.src.vop.Kind = ir.LoadSpec
				p.src.vop.Spec = true
				p.src.converted = true
				st.sf.SpecLoads++
				break
			}
		}
	}

	sb, slotOf := st.emit(res)
	placed := res.placed
	// multiway branch priorities follow original program order (§6.5.2:
	// "the test that was originally first ... must be the highest priority")
	for ii := range sb.Instrs {
		type brSlot struct{ slotIdx, origIdx int }
		var brs []brSlot
		for si := range sb.Instrs[ii].Slots {
			k := sb.Instrs[ii].Slots[si].Op.Kind
			if k == mach.OpBrT || k == mach.OpJmp {
				oi := 1 << 30
				for src, pb := range slotOf {
					if pb.instr == ii && pb.slot == si {
						oi = src.origIdx
					}
				}
				brs = append(brs, brSlot{si, oi})
			}
		}
		sort.Slice(brs, func(a, b int) bool { return brs[a].origIdx < brs[b].origIdx })
		for rank, b := range brs {
			sb.Instrs[ii].Slots[b.slotIdx].Prio = rank
		}
	}
	// entrances for trace blocks; join entrance relocation
	for ti, v := range tr.Blocks {
		if ti == 0 {
			st.entrances[v] = entrance{block: sb.ID, off: 0}
			continue
		}
		pos, isJoin := g.joinPos[v]
		if !isJoin {
			continue // only reachable along the trace
		}
		// E = 1 + max instr of any op before the join
		e := 0
		for i := 0; i < pos; i++ {
			if g.ops[i].instr+1 > e {
				e = g.ops[i].instr + 1
			}
		}
		// copies read at/after E but placed before E must be re-executed on
		// the join path; find them
		var lateCopies []placedOp
		for _, p := range placed {
			if p.src != nil || p.instr >= e {
				continue
			}
			cp := p.vop.Dst
			for _, q := range placed {
				if q.instr >= e && readsReg(&q.vop, cp) {
					lateCopies = append(lateCopies, p)
					break
				}
			}
		}
		if err := st.emitJoinComp(g, sb, v, pos, e, lateCopies); err != nil {
			return err
		}
	}

	// split compensation and branch targets
	for _, si := range splitIdxs {
		sp := g.ops[si]
		target := g.splitTarget[si]
		comp := st.splitCompOps(g, sp, target)
		// locate the split's slot
		pb, ok := slotOf[sp]
		if !ok {
			return fmt.Errorf("%s: split op not found in schedule", vf.Name)
		}
		if len(comp) == 0 {
			st.wantTarget(target, pb)
			continue
		}
		cb, jump, err := st.compBlock(comp)
		if err != nil {
			return err
		}
		st.wantTarget(target, jump)
		slot := &sb.Instrs[pb.instr].Slots[pb.slot]
		slot.TargetBlock = cb.ID
		slot.TargetOff = 0
	}
	// final jump target, or the continuation a call or syscall falls into
	if g.finalIdx >= 0 {
		fj := g.ops[g.finalIdx]
		pb, ok := slotOf[fj]
		if !ok {
			return fmt.Errorf("%s: final jump not in schedule", vf.Name)
		}
		switch ops := vf.Blocks[g.exit].Ops; {
		case fj.vop.Kind == mach.OpJmp:
			st.wantTarget(g.exit, pb)
		case len(ops) > 1:
			st.fallsTo[sb] = ops[1].T0
		}
	}
	return nil
}

// emit lays a schedule out as a new SBlock, sorting res.placed into slot
// order, and returns the block and the slot of each op of the graph.
func (st *stitcher) emit(res *schedResult) (*SBlock, map[*schedOp]pendingBranch) {
	sb := st.newBlock()
	sb.Instrs = make([]SInstr, res.numInstr)
	// deterministic slot order within each instruction
	placed := res.placed
	sort.SliceStable(placed, func(a, b int) bool {
		if placed[a].instr != placed[b].instr {
			return placed[a].instr < placed[b].instr
		}
		return slotLess(placed[a], placed[b])
	})
	slotOf := map[*schedOp]pendingBranch{}
	for _, p := range placed {
		in := &sb.Instrs[p.instr]
		slot := SSlot{Unit: p.unit, Beat: p.beat, Op: p.vop}
		if p.src != nil {
			slot.Op = p.src.vop // includes LoadSpec conversion
			slotOf[p.src] = pendingBranch{sb.ID, p.instr, len(in.Slots)}
		} else {
			slot.Copy = true
			st.sf.CopyOps++
		}
		in.Slots = append(in.Slots, slot)
	}
	return sb, slotOf
}

// compBlock schedules one list of compensation ops into a block of its own,
// with the list scheduler that compacts the traces: the ops and a closing
// jump form a one-block trace in which every op is a restore (isRestore), so
// each write drains before the jump as at a trace's final exit, and no op
// reads a value in the word that writes it (traceGraph.comp). padSerial puts
// the pad for the flight entering it in front. It returns the block and the
// slot of its jump, whose target the caller sets.
func (st *stitcher) compBlock(ops []VOp) (*SBlock, pendingBranch, error) {
	g := &traceGraph{vf: st.vf, comp: true, finalIdx: len(ops)}
	for i, o := range ops {
		g.ops = append(g.ops, &schedOp{vop: o, origIdx: i, instr: -1, isRestore: true})
	}
	jump := &schedOp{vop: VOp{Kind: mach.OpJmp}, origIdx: len(ops), instr: -1, isFinal: true}
	g.ops = append(g.ops, jump)
	g.buildDAG(st.cfg, st.layout, st.consts, st.lv)
	res, err := st.sched.scheduleTrace(g)
	if err != nil {
		return nil, pendingBranch{}, err
	}
	cb, slotOf := st.emit(res)
	cb.Comp = true
	st.sf.CompOps += len(ops)
	return cb, slotOf[jump], nil
}

// slotLess orders placements within an instruction for determinism.
func slotLess(a, b placedOp) bool {
	if a.unit.Kind != b.unit.Kind {
		return a.unit.Kind < b.unit.Kind
	}
	if a.unit.Pair != b.unit.Pair {
		return a.unit.Pair < b.unit.Pair
	}
	if a.unit.Idx != b.unit.Idx {
		return a.unit.Idx < b.unit.Idx
	}
	return a.beat < b.beat
}

// readsReg reports whether the vop reads r.
func readsReg(o *VOp, r VReg) bool {
	for _, u := range o.Uses() {
		if u == r {
			return true
		}
	}
	return false
}

// splitCompOps collects the compensation code for one split: every op that
// originally preceded the split but was scheduled after its instruction
// (re-executed from its pre-copy form), followed by moves restoring the
// original register names live at the split target (§4: "the compiler
// inserts special compensation code into the program graph on the off-trace
// branch edges to undo these inconsistencies"). A pure op whose result
// neither a later op of the list nor the target reads is left out: the
// off-trace path would compute it for nothing. Loads, divides and stores
// stay, read or not: their traps and effects belong to the program.
func (st *stitcher) splitCompOps(g *traceGraph, sp *schedOp, target int) []VOp {
	var comp []VOp
	for i := 0; i < sp.origIdx; i++ {
		if op := g.ops[i]; op.instr > sp.instr {
			comp = append(comp, op.reexec())
		}
	}
	snap := g.renameAtSplit[sp.origIdx]
	comp = append(comp, restoreMovs(st.vf, st.lv, snap, target)...)
	read := map[VReg]bool{}
	keep := make([]VOp, 0, len(comp))
	for i := len(comp) - 1; i >= 0; i-- {
		o := comp[i]
		if pureOp(o.Kind) && !read[o.Dst] && !liveIn(st.lv, target, o.Dst) {
			continue
		}
		for _, u := range o.Uses() {
			read[u] = true
		}
		keep = append(keep, o)
	}
	slices.Reverse(keep)
	return keep
}

// pureOp reports whether an op of kind k does nothing but compute its
// result: a move, a constant, integer arithmetic or logic other than a
// divide, a compare, or a floating add, subtract or multiply.
func pureOp(k ir.OpKind) bool {
	switch k {
	case ir.Mov, ir.ConstI, ir.ConstF,
		ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Sra, ir.Neg, ir.Not,
		ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE,
		ir.FAdd, ir.FSub, ir.FMul:
		return true
	}
	return false
}

// liveIn reports whether r is live into vblock b. A register named after
// liveness was computed (a rename) is live nowhere off the trace.
func liveIn(lv *VLiveness, b int, r VReg) bool {
	in := lv.In[b]
	return int(r)/64 < len(in) && in.Has(ir.Reg(r))
}

// reexec returns the form compensation code re-executes op in: its operands
// from before the scheduler rewrote any to board-local copies (compVop), and
// a load converted to the speculative opcode back to the trapping one, since
// on the off-trace path it runs in its original position.
func (op *schedOp) reexec() VOp {
	v := op.vop
	if op.compVop != nil {
		v = *op.compVop
	}
	if op.converted {
		v.Kind = ir.Load
		v.Spec = false
	}
	return v
}

// restoreMovs builds "orig ← renamed" moves, in register order, for the
// registers renamed in snap that are live into target.
func restoreMovs(vf *VFunc, lv *VLiveness, snap map[VReg]VReg, target int) []VOp {
	var origs []VReg
	for o := range snap {
		origs = append(origs, o)
	}
	sort.Slice(origs, func(a, b int) bool { return origs[a] < origs[b] })
	var movs []VOp
	for _, orig := range origs {
		cur := snap[orig]
		if cur == orig || !lv.In[target].Has(ir.Reg(orig)) {
			continue
		}
		movs = append(movs, VOp{Kind: ir.Mov, Type: vf.TypeOf(orig), Dst: orig, A: VRegArg(cur)})
	}
	return movs
}

// emitJoinComp builds the compensation block for a side entrance at vblock v
// (linear position pos, relocated entrance instruction e): establish-moves
// for renamed registers, re-execution of on-trace ops that moved above the
// entrance, and re-execution of cross-bank copies the post-entrance code
// depends on.
func (st *stitcher) emitJoinComp(g *traceGraph, sb *SBlock, v, pos, e int, lateCopies []placedOp) error {
	snap := g.renameAtJoin[pos]
	// establish renamed names from the canonical registers the entering
	// flow provides: the restore moves reversed
	comp := restoreMovs(st.vf, st.lv, snap, v)
	for i := range comp {
		m := &comp[i]
		m.Dst, m.A = m.A.Reg, VRegArg(m.Dst)
	}
	// ops from at/after the join that were scheduled above the entrance
	for i := pos; i < len(g.ops); i++ {
		if op := g.ops[i]; op.instr < e {
			comp = append(comp, op.reexec())
		}
	}
	// cross-bank copies consumed past the entrance
	for _, p := range lateCopies {
		comp = append(comp, p.vop)
	}

	st.entrances[v] = entrance{block: sb.ID, off: e}
	if len(comp) == 0 {
		return nil
	}
	cb, jump, err := st.compBlock(comp)
	if err != nil {
		return err
	}
	cb.Join = true
	slot := &cb.Instrs[jump.instr].Slots[jump.slot]
	slot.TargetBlock, slot.TargetOff = sb.ID, e
	st.joinComp[v] = cb.ID
	return nil
}
