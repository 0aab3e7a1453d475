package tsched

import (
	"fmt"
	"os"
	"sort"

	"github.com/multiflow-repro/trace/internal/alias"
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
	globalForms := GlobalForms(vf, layout)
	st := &stitcher{cfg: cfg, vf: vf, sf: sf, lv: lv, layout: layout, globalForms: globalForms,
		sched:     &scheduler{cfg: cfg, vf: vf, home: &sf.home, gen: 1},
		entrances: map[int]entrance{}, joinComp: map[int]int{}, pending: map[int][]pendingBranch{},
		fallsTo:     map[*SBlock]int{},
		serialReady: map[*SBlock]map[VReg]int{}, serialRes: map[*SBlock]*serialState{}}

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

	entrances   map[int]entrance // vblock -> where control enters
	joinComp    map[int]int      // vblock -> comp SBlock that must precede entry
	pending     map[int][]pendingBranch
	fallsTo     map[*SBlock]int // trace ending in a call or syscall -> its continuation's vblock
	globalForms map[VReg]alias.Form

	// serialReady tracks, per compensation block, the earliest instruction
	// index at which each register's value is usable (its producer's write
	// has landed). These blocks insert empty instructions to respect
	// latencies — the interlock-free hardware will not wait for them.
	serialReady map[*SBlock]map[VReg]int
	// serialRes tracks slot usage for packed serialization.
	serialRes map[*SBlock]*serialState
}

// serialState is the lightweight reservation state for packing several
// independent ops into each instruction of a compensation block, honoring
// the same structural limits the main scheduler enforces.
type serialState struct {
	res resTable // unit slots, memory refs, immediate words, ports, copy-bus traffic

	// ordering state: packing must not reorder hazardous pairs
	floor    int          // entry padding boundary: no op before this
	lastRead map[VReg]int // WAR: a def may not land before a later read
	// writeEnd[r] is the first instruction index whose reads are safely
	// after r's last pending write lands (RAW safety net and WAW ordering).
	writeEnd    map[VReg]int
	lastMem     int // memory ops execute in program order
	barrier     int // ops after a branch start strictly after it
	maxUsed     int // branches go after everything placed so far
	maxWriteEnd int // latest landing instr of any write (the jump waits for it)
}

// Debugging aids, read once: TSCHED_DEBUG prints the traces, the retries and
// the state of a failed stitch to stderr; TSCHED_NOPACK disables comp-block
// packing.
var (
	debugLog          = os.Getenv("TSCHED_DEBUG") != ""
	serialDebugNoPack = os.Getenv("TSCHED_NOPACK") != ""
)

func newSerialState(floor int) *serialState {
	return &serialState{
		floor:    floor,
		lastRead: map[VReg]int{},
		writeEnd: map[VReg]int{},
		lastMem:  -1,
		barrier:  0,
		maxUsed:  -1,
	}
}

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
// runtime). The dependence graph drains a trace's own writes before the
// transfer ending it; a write entering the trace from another one that is
// still in flight at the transfer's word moves the transfer out of the
// trace, into a serialized block of its own behind a jump (unfold). Every
// serialized block starts with as many empty instructions as the writes in
// flight on its entering edges need to land. Placement inside a block is
// relative to its first op, so the pad can go in front after the fact;
// every edge into a serialized block targets its offset 0.
func (st *stitcher) padSerial() {
	sf := st.sf
	enter, at := st.entryFlight()
	if st.unfold(at) {
		enter, _ = st.entryFlight()
	}
	for id, f := range enter {
		if sb := sf.Blocks[id]; sb.Serial && f > 0 {
			pad := (f + 1) / 2
			sb.Instrs = append(make([]SInstr, pad, pad+len(sb.Instrs)), sb.Instrs...)
			sf.PadInstrs += pad
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
// each serialized block: the latest beat, counted from the block's first
// early beat, at which a write issued before the transfer lands (§6.2: a
// write issued at beat b with latency L is read from beat b+L on, so ≤ 0
// means nothing is in flight). It is a forward fixpoint over the resolved
// blocks of the latest landing at each instruction — at[b][i], the flight a
// branch or a fallthrough brings to instruction i of block b, is returned
// too; a serialized block's own code starts with nothing in flight, since
// its pad drains what enters, and a call or syscall passes nothing on to
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
		case sf.Blocks[b].Serial:
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

// serializeInto appends ops one per instruction, inserting cross-bank copy
// moves where an operand is not local to the op's unit. jumpTo, if ≥ 0,
// appends a final jump to that vblock's entrance.
func (st *stitcher) serializeInto(sb *SBlock, ops []VOp, jumpTo int) {
	for i := range ops {
		op := ops[i] // copy
		st.serializeOne(sb, op)
	}
	if jumpTo >= 0 {
		j := VOp{Kind: mach.OpJmp, T0: jumpTo}
		st.serializeOne(sb, j)
	}
}

// pad appends empty instructions so that sb's next instruction index is at
// least idx (used for latency spacing and for in-flight writes from a
// predecessor block).
func (st *stitcher) pad(sb *SBlock, idx int) {
	for len(sb.Instrs) < idx {
		sb.Instrs = append(sb.Instrs, SInstr{})
	}
}

// serializeOne appends a single op (plus any operand-routing moves) to sb.
func (st *stitcher) serializeOne(sb *SBlock, op VOp) {
	vf := st.vf
	home := &st.sf.home
	ready := st.serialReady[sb]
	if ready == nil {
		ready = map[VReg]int{}
		st.serialReady[sb] = ready
	}
	// Choose the executing pair. Destinations in the branch bank, store
	// file, or F bank (other than tagged-bus moves) can only be written
	// locally, so they pin the pair; otherwise SF/BB operand reads pin it;
	// otherwise prefer a board holding an operand.
	pair := -1
	if op.Dst != VNone {
		switch vf.Class(op.Dst) {
		case ClassB, ClassSF:
			if h, ok := home.get(op.Dst); ok {
				pair = int(h)
			}
		case ClassF:
			if op.Kind != ir.Mov {
				if h, ok := home.get(op.Dst); ok {
					pair = int(h)
				}
			}
		}
	}
	if pair < 0 {
		for _, r := range op.Uses() {
			switch vf.Class(r) {
			case ClassSF, ClassB:
				h, _ := home.get(r)
				pair = int(h) // hard
			}
		}
	}
	if pair < 0 {
		for _, r := range op.Uses() {
			if h, ok := home.get(r); ok {
				pair = int(h)
				break
			}
		}
	}
	if pair < 0 {
		pair = 0
	}
	// route non-local I/F operands through copies
	args := []*VArg{&op.A, &op.B, &op.C}
	for _, a := range args {
		if a.IsImm || a.Reg == VNone {
			continue
		}
		r := a.Reg
		cls := vf.Class(r)
		if cls != ClassI && cls != ClassF {
			continue
		}
		h, ok := home.get(r)
		if !ok {
			home.set(r, uint8(pair))
			continue
		}
		if int(h) == pair {
			continue
		}
		tmp := vf.NewReg(cls, vf.TypeOf(r))
		home.set(tmp, uint8(pair))
		mv := VOp{Kind: ir.Mov, Type: vf.TypeOf(r), Dst: tmp, A: VRegArg(r)}
		idx := st.placeSerial(sb, mv, int(h), ready[r])
		ready[tmp] = idx + (opLatency(&st.cfg, &mv)+1)/2
		a.Reg = tmp
		st.sf.CopyOps++
	}
	need := 0
	for _, r := range op.Uses() {
		if ready[r] > need {
			need = ready[r]
		}
	}
	idx := st.placeSerial(sb, op, pair, need)
	if op.Dst != VNone {
		ready[op.Dst] = idx + (opLatency(&st.cfg, &op)+1)/2
		if _, ok := home.get(op.Dst); !ok {
			if pre, isPre := vf.precolor[op.Dst]; isPre {
				home.set(op.Dst, pre.Board)
			} else {
				home.set(op.Dst, uint8(pair))
			}
		}
	}
}

// placeSerial finds a slot for op from the current ready frontier onward.
func (st *stitcher) placeSerial(sb *SBlock, op VOp, pair, minIdx int) int {
	ss := st.serialRes[sb]
	if ss == nil {
		ss = newSerialState(len(sb.Instrs))
		st.serialRes[sb] = ss
	}
	// ordering constraints
	if minIdx < ss.floor {
		minIdx = ss.floor
	}
	if minIdx < ss.barrier {
		minIdx = ss.barrier
	}
	if op.Dst != VNone {
		// WAR: strictly after the last read (a write can land mid-instr)
		if v, ok := ss.lastRead[op.Dst]; ok && v+1 > minIdx {
			minIdx = v + 1
		}
		// WAW: after the previous write has landed
		if v, ok := ss.writeEnd[op.Dst]; ok && v > minIdx {
			minIdx = v
		}
	}
	for _, u := range op.Uses() {
		// RAW: at or after the producer's landing instruction
		if v, ok := ss.writeEnd[u]; ok && v > minIdx {
			minIdx = v
		}
	}
	isBranch := false
	switch op.Kind {
	case mach.OpJmp, mach.OpBrT:
		// The target may read values computed here as soon as the next
		// instruction, so every pending write must land first (serialized
		// blocks have no DAG to carry the drain constraint).
		isBranch = true
		if ss.maxUsed > minIdx {
			minIdx = ss.maxUsed
		}
		if ss.maxWriteEnd-1 > minIdx {
			minIdx = ss.maxWriteEnd - 1
		}
	}
	if op.IsMem() && ss.lastMem+1 > minIdx {
		minIdx = ss.lastMem + 1
	}
	if serialDebugNoPack && ss.maxUsed+1 > minIdx {
		minIdx = ss.maxUsed + 1
	}
	// candidate units for this op on the pair
	var buf [4]unitChoice
	cands := buf[:0]
	p8 := uint8(pair)
	switch unitClass(st.vf, &op) {
	case UBRClass:
		cands = append(cands, unitChoice{mach.Unit{Kind: mach.UBR, Pair: p8}, 0})
	case UFAClass:
		cands = append(cands, unitChoice{mach.Unit{Kind: mach.UFA, Pair: p8}, 0})
	case UFMClass:
		cands = append(cands, unitChoice{mach.Unit{Kind: mach.UFM, Pair: p8}, 0})
	case UFEitherClass:
		cands = append(cands,
			unitChoice{mach.Unit{Kind: mach.UFA, Pair: p8}, 0},
			unitChoice{mach.Unit{Kind: mach.UFM, Pair: p8}, 0})
	default:
		for alu := uint8(0); alu < 2; alu++ {
			for beat := uint8(0); beat < 2; beat++ {
				cands = append(cands, unitChoice{mach.Unit{Kind: mach.UIALU, Pair: p8, Idx: alu}, beat})
			}
		}
	}
	isMem := op.IsMem()
	needsImmw := false
	switch op.Kind {
	case mach.OpBrT, mach.OpJmp, ir.ConstF:
		needsImmw = true
	default:
		for _, a := range []VArg{op.A, op.B, op.C} {
			if a.IsImm && !fitsImm6(a) {
				needsImmw = true
			}
		}
	}
	nReads := 0
	for _, a := range []VArg{op.A, op.B, op.C} {
		if !a.IsImm && a.Reg != VNone {
			nReads++
		}
	}
	pairBit := uint8(1) << pair
	for idx := minIdx; ; idx++ {
		for _, c := range cands {
			issue := 2*idx + int(c.beat)
			if ss.res.at(issue).units&unitBit(c.unit) != 0 {
				continue
			}
			if int(ss.res.at(issue).rd[pair])+nReads > st.cfg.RFReadPorts {
				continue
			}
			if op.Dst != VNone {
				wb := issue + opLatency(&st.cfg, &op)
				db := pair
				if h, ok := st.sf.home.get(op.Dst); ok {
					db = int(h)
				}
				if int(ss.res.at(wb).wr[db])+1 > st.cfg.RFWritePorts {
					continue
				}
				// Cross-board results ride the tagged load buses (§6.3) — a
				// machine-global resource the per-board port counts miss:
				// with homes spread over four boards, the write ports admit
				// eight retires per beat but only four bus deliveries.
				if db != pair && !op.IsMem() {
					kind, beats := busILoad, 1
					if st.vf.Class(op.Dst) == ClassF {
						kind, beats = busFLoad, 2
					}
					full := false
					for i := 0; i < beats; i++ {
						if int(ss.res.at(wb - i).bus[kind])+1 > busCap(&st.cfg, kind) {
							full = true
							break
						}
					}
					if full {
						continue
					}
				}
			}
			if isMem && ss.res.at(issue).mem&pairBit != 0 {
				continue
			}
			if needsImmw && ss.res.at(issue).imm&pairBit != 0 {
				continue
			}
			// an F constant needs both halves of the shared word (§6.5.1)
			if op.Kind == ir.ConstF && ss.res.at(2*idx+1).imm&pairBit != 0 {
				continue
			}
			// commit
			ss.res.row(issue).units |= unitBit(c.unit)
			if isMem {
				ss.res.row(issue).mem |= pairBit
			}
			if needsImmw {
				ss.res.row(issue).imm |= pairBit
				if op.Kind == ir.ConstF {
					ss.res.row(2*idx + 1).imm |= pairBit
				}
			}
			st.pad(sb, idx+1)
			slot := SSlot{Unit: c.unit, Beat: c.beat, Op: op}
			in := &sb.Instrs[idx]
			si := len(in.Slots)
			in.Slots = append(in.Slots, slot)
			switch op.Kind {
			case mach.OpJmp, mach.OpBrT:
				st.wantTarget(op.T0, pendingBranch{sb.ID, idx, si})
			}
			// ordering bookkeeping
			ss.res.row(issue).rd[pair] += uint16(nReads)
			if op.Dst != VNone {
				wb := issue + opLatency(&st.cfg, &op)
				db := pair
				if h, ok := st.sf.home.get(op.Dst); ok {
					db = int(h)
				}
				ss.res.row(wb).wr[db]++
				if db != pair && !op.IsMem() {
					kind, beats := busILoad, 1
					if st.vf.Class(op.Dst) == ClassF {
						kind, beats = busFLoad, 2
					}
					for i := 0; i < beats; i++ {
						ss.res.row(wb - i).bus[kind]++
					}
				}
			}
			if op.Dst != VNone {
				lat := opLatency(&st.cfg, &op)
				end := (issue + lat + 1) / 2
				if end <= idx {
					end = idx + 1
				}
				ss.writeEnd[op.Dst] = end
				if end > ss.maxWriteEnd {
					ss.maxWriteEnd = end
				}
			}
			for _, u := range op.Uses() {
				if v, ok := ss.lastRead[u]; !ok || idx > v {
					ss.lastRead[u] = idx
				}
			}
			if op.IsMem() && idx > ss.lastMem {
				ss.lastMem = idx
			}
			if isBranch {
				ss.barrier = idx + 1
			}
			if idx > ss.maxUsed {
				ss.maxUsed = idx
			}
			return idx
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
		g.foldGlobalConsts(st.globalForms)
		g.collapseAddChains()
	}
	g.addFinalRestores(st.lv)
	g.buildDAG(cfg, st.layout, st.globalForms, st.lv)
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

	// build the trace SBlock
	sb := st.newBlock()
	sb.Instrs = make([]SInstr, res.numInstr)
	// deterministic slot order within each instruction
	placed := append([]placedOp(nil), res.placed...)
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
		}
		idx := len(in.Slots)
		in.Slots = append(in.Slots, slot)
		if p.src != nil {
			slotOf[p.src] = pendingBranch{sb.ID, p.instr, idx}
		}
	}
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
		st.emitJoinComp(g, sb, v, pos, e, lateCopies)
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
		} else {
			cb := st.newBlock()
			st.pad(cb, splitDrain(st.cfg, res, sp))
			st.serializeInto(cb, comp, target)
			st.sf.CompOps += len(comp)
			slot := &sb.Instrs[pb.instr].Slots[pb.slot]
			slot.TargetBlock = cb.ID
			slot.TargetOff = 0
			// mark as resolved by NOT registering a pending target
		}
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
	for _, p := range placed {
		if p.src == nil {
			st.sf.CopyOps++
		}
	}
	return nil
}

// splitDrain returns how many empty instructions the split's compensation
// block needs at entry so that every on-trace write issued at or before the
// branch has drained by the time the comp code reads it.
func splitDrain(cfg mach.Config, res *schedResult, sp *schedOp) int {
	branchDone := 2*sp.instr + 2 // first beat after the branch's instruction
	drain := 0
	for i := range res.placed {
		p := &res.placed[i]
		if p.instr > sp.instr || p.vop.Dst == VNone {
			continue
		}
		w := 2*p.instr + int(p.beat) + opLatency(&cfg, &p.vop)
		if d := w - branchDone; d > drain {
			drain = d
		}
	}
	return (drain + 1) / 2
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
// branch edges to undo these inconsistencies").
func (st *stitcher) splitCompOps(g *traceGraph, sp *schedOp, target int) []VOp {
	var comp []VOp
	for i := 0; i < sp.origIdx; i++ {
		op := g.ops[i]
		if op.instr > sp.instr {
			v := op.vop
			if op.compVop != nil {
				v = *op.compVop
			}
			if op.converted {
				// on the off-trace path the load runs in its original
				// position, so the ordinary trapping opcode is correct
				v.Kind = ir.Load
				v.Spec = false
			}
			comp = append(comp, v)
		}
	}
	snap := g.renameAtSplit[sp.origIdx]
	comp = append(comp, restoreMovs(st.vf, st.lv, snap, target)...)
	return comp
}

// restoreMovs builds "orig ← renamed" moves for registers live into target.
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
func (st *stitcher) emitJoinComp(g *traceGraph, sb *SBlock, v, pos, e int, lateCopies []placedOp) {
	vf := st.vf
	snap := g.renameAtJoin[pos]
	var comp []VOp
	// establish renamed names from the canonical registers the entering
	// flow provides
	var origs []VReg
	for o := range snap {
		origs = append(origs, o)
	}
	sort.Slice(origs, func(a, b int) bool { return origs[a] < origs[b] })
	for _, orig := range origs {
		cur := snap[orig]
		if cur == orig || !st.lv.In[v].Has(ir.Reg(orig)) {
			continue
		}
		comp = append(comp, VOp{Kind: ir.Mov, Type: vf.TypeOf(cur), Dst: cur, A: VRegArg(orig)})
	}
	// ops from at/after the join that were scheduled above the entrance
	for i := pos; i < len(g.ops); i++ {
		op := g.ops[i]
		if op.instr < e {
			vop := op.vop
			if op.compVop != nil {
				vop = *op.compVop
			}
			if op.converted {
				vop.Kind = ir.Load
				vop.Spec = false
			}
			comp = append(comp, vop)
		}
	}
	// cross-bank copies consumed past the entrance
	for _, p := range lateCopies {
		comp = append(comp, p.vop)
	}

	st.entrances[v] = entrance{block: sb.ID, off: e}
	if len(comp) == 0 {
		return
	}
	cb := st.newBlock()
	// No entry padding: the entering edges' restore moves carry their own
	// drain constraints, so the canonical registers this comp reads are
	// settled by the time control arrives.
	st.serializeCompInto(cb, comp, sb.ID, e)
	st.sf.CompOps += len(comp)
	st.joinComp[v] = cb.ID
}

// serializeCompInto is serializeInto with a direct (block, offset) jump.
func (st *stitcher) serializeCompInto(cb *SBlock, ops []VOp, tblock, toff int) {
	for i := range ops {
		st.serializeOne(cb, ops[i])
	}
	// the jump goes after everything placed AND after every pending write
	// has drained (the trace reads the comp's results immediately on entry)
	idx := len(cb.Instrs)
	if ss := st.serialRes[cb]; ss != nil {
		idx = ss.maxUsed + 1
		if ss.maxWriteEnd-1 > idx {
			idx = ss.maxWriteEnd - 1
		}
	}
	st.pad(cb, idx+1)
	cb.Instrs[idx].Slots = append(cb.Instrs[idx].Slots, SSlot{
		Unit:        mach.Unit{Kind: mach.UBR, Pair: 0},
		Op:          VOp{Kind: mach.OpJmp},
		TargetBlock: tblock,
		TargetOff:   toff,
	})
}
