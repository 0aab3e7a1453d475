package tsched

import (
	"fmt"
	"sort"

	"github.com/multiflow-repro/trace/internal/alias"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// placedOp is an op (from the DAG or an inserted cross-bank copy) fixed in a
// slot of the scheduled trace.
type placedOp struct {
	instr int
	beat  uint8
	unit  mach.Unit
	vop   VOp
	src   *schedOp // nil for inserted copies
}

// schedResult is a compacted trace: wide instructions plus compensation
// bookkeeping for the stitcher.
type schedResult struct {
	placed   []placedOp
	numInstr int
}

// scheduler compacts the traces of one function, one at a time. The home
// table (virtual register -> board) persists across them so cross-trace reads
// agree on value locations; everything else is reservation state of the trace
// in hand.
type scheduler struct {
	cfg  mach.Config
	vf   *VFunc
	home *homes

	// regs is indexed by VReg. An entry counts only if the trace in hand
	// stamped it, so starting a trace forgets them all at once.
	regs  []regState
	trace uint32

	// reservations
	res resTable

	// pendingSF counts, per pair, the store-file registers written but not
	// yet consumed by their store; the compiler is responsible for not
	// overflowing the store file (no hardware manages it).
	pendingSF [maxBoards]int

	// gen counts reservations. Nothing but a reservation changes what a copy
	// search sees, so one that found no slot at this gen (regState.noCopy)
	// need not look at the same slots again.
	gen uint32

	placed   []placedOp
	maxInstr int
}

// regState is what the scheduler knows about one virtual register within
// the trace in hand.
type regState struct {
	trace     uint32          // the trace the rest describes
	pendingSF bool            // written into a store file, its store not yet placed
	avail     int             // beat its value is available (the write completes); 0 for live-ins
	copies    [maxBoards]VReg // its copy local to each other board, once one is placed
	noCopy    [maxBoards]struct {
		gen    uint32 // scheduler.gen when a search for a copy to the board last failed
		needBy int    // the beat that search needed the copy by
	}
}

const (
	busILoad = iota
	busFLoad
	busStore
	busPA
)

// maxTraceInstrs bounds a single trace's schedule as a runaway guard.
const maxTraceInstrs = 20000

// ErrScheduleSize reports a trace whose schedule exceeded the runaway guard.
// Like ErrPressure it is a structured capacity rejection, not a crash: the
// machine is finite and the compiler refuses rather than emitting a schedule
// it cannot prove out.
type ErrScheduleSize struct {
	Func  string
	Limit int
}

func (e *ErrScheduleSize) Error() string {
	return fmt.Sprintf("%s: trace schedule exceeded %d instructions", e.Func, e.Limit)
}

// newScheduler returns a scheduler for the traces of vf on machine cfg.
func newScheduler(cfg mach.Config, vf *VFunc, home *homes) *scheduler {
	return &scheduler{cfg: cfg, vf: vf, home: home, res: newResTable(&cfg), gen: 1}
}

// reg returns r's state in the trace in hand. The pointer is good until the
// next vf.NewReg.
func (s *scheduler) reg(r VReg) *regState {
	if n := s.vf.NumRegs() - len(s.regs); n > 0 {
		s.regs = append(s.regs, make([]regState, n)...)
	}
	e := &s.regs[r]
	if e.trace != s.trace {
		*e = regState{trace: s.trace}
	}
	return e
}

// scheduleTrace compacts one linearized, renamed trace with a list scheduler
// over the machine's resources.
func (s *scheduler) scheduleTrace(g *traceGraph) (*schedResult, error) {
	s.trace++
	s.res.reset()
	s.pendingSF = [maxBoards]int{}
	n := len(g.ops)
	// Room for the cross-bank copies too: they add 5–10 % to fft's and
	// matmul's traces, and a few traces half as many again.
	s.placed, s.maxInstr = make([]placedOp, 0, n+n/4), 0
	earliestBeat := make([]int, n)
	earliestInstr := make([]int, n)
	remaining := n

	ready := func() []*schedOp {
		var r []*schedOp
		for _, op := range g.ops {
			if !op.placed && op.npreds == 0 {
				r = append(r, op)
			}
		}
		sort.SliceStable(r, func(a, b int) bool {
			if r[a].prio != r[b].prio {
				return r[a].prio > r[b].prio
			}
			return r[a].origIdx < r[b].origIdx
		})
		return r
	}

	relax := func(op *schedOp) {
		for _, e := range op.succs {
			t := g.ops[e.to]
			if e.minBeats >= 0 {
				wb := op.beat + e.minBeats
				if wb > earliestBeat[e.to] {
					earliestBeat[e.to] = wb
				}
			}
			if v := op.instr + e.instrDelta; v > earliestInstr[e.to] {
				earliestInstr[e.to] = v
			}
			t.npreds--
		}
	}

	for k := 0; remaining > 0; k++ {
		if k > maxTraceInstrs {
			return nil, &ErrScheduleSize{Func: s.vf.Name, Limit: maxTraceInstrs}
		}
		for {
			progress := false
			for _, op := range ready() {
				if earliestInstr[op.origIdx] > k {
					continue
				}
				if s.tryPlace(op, k, earliestBeat[op.origIdx]) {
					relax(op)
					remaining--
					progress = true
				}
			}
			if !progress {
				break
			}
		}
	}

	return &schedResult{placed: s.placed, numInstr: s.maxInstr + 1}, nil
}

// unitChoice is a candidate placement.
type unitChoice struct {
	unit mach.Unit
	beat uint8
}

// maxCandidates is the most units any op can choose between: two ALUs in
// either beat on each of four pairs.
const maxCandidates = 4 * maxBoards

// candidateUnits lists legal units for the op's kind into buf, most preferred
// first. prefBoard biases toward boards already holding the operands.
func (s *scheduler) candidateUnits(o *VOp, prefBoard int, buf *[maxCandidates]unitChoice) []unitChoice {
	first := 0
	if prefBoard >= 0 && prefBoard < s.cfg.Pairs {
		first = prefBoard
	}
	// the first pair's units, then the same units on each other pair
	out := pairUnits(buf[:0], unitClass(s.vf, o), uint8(first))
	n := len(out)
	for p := 0; p < s.cfg.Pairs; p++ {
		if p == first {
			continue
		}
		for _, uc := range out[:n] {
			uc.unit.Pair = uint8(p)
			out = append(out, uc)
		}
	}
	return out
}

// pairUnits appends to out the units of pair p that run ops of class cls,
// and the beats they issue in.
func pairUnits(out []unitChoice, cls uclass, p uint8) []unitChoice {
	switch cls {
	case UIALUClass:
		for alu := uint8(0); alu < 2; alu++ {
			for beat := uint8(0); beat < 2; beat++ {
				out = append(out, unitChoice{mach.Unit{Kind: mach.UIALU, Pair: p, Idx: alu}, beat})
			}
		}
	case UFAClass:
		out = append(out, unitChoice{mach.Unit{Kind: mach.UFA, Pair: p}, 0})
	case UFMClass:
		out = append(out, unitChoice{mach.Unit{Kind: mach.UFM, Pair: p}, 0})
	case UFEitherClass:
		out = append(out, unitChoice{mach.Unit{Kind: mach.UFA, Pair: p}, 0}, unitChoice{mach.Unit{Kind: mach.UFM, Pair: p}, 0})
	case UBRClass:
		out = append(out, unitChoice{mach.Unit{Kind: mach.UBR, Pair: p}, 0})
	}
	return out
}

type uclass int

const (
	UIALUClass uclass = iota
	UFAClass
	UFMClass
	UFEitherClass
	UBRClass
)

// unitClass maps an op to the functional units that can execute it (§6.1,
// §6.2: the F board ALUs share opcodes with the adder/multiplier and carry
// the fast-move and SELECT paths). The F unit of an F opcode is mach's
// (FUnit); what stays here is the bank-dependent part. Moves and selects
// follow their source operand's bank: a value in an F bank — even a 32-bit
// integer staged for conversion — can only be read by an F-side unit.
func unitClass(vf *VFunc, o *VOp) uclass {
	switch o.Kind {
	case mach.OpBrT, mach.OpJmp, mach.OpJmpR, mach.OpCall, mach.OpHalt, mach.OpSyscall:
		return UBRClass
	case ir.ConstF:
		return UFEitherClass
	case ir.Mov, mach.OpMovSF:
		if o.Type == ir.F64 || (!o.A.IsImm && vf.Class(o.A.Reg) == ClassF) {
			return UFEitherClass
		}
		return UIALUClass
	case ir.Select:
		if o.Type == ir.F64 ||
			(!o.B.IsImm && vf.Class(o.B.Reg) == ClassF) ||
			(!o.C.IsImm && vf.Class(o.C.Reg) == ClassF) {
			return UFEitherClass
		}
		return UIALUClass
	}
	switch mach.FUnit(o.Kind) {
	case mach.UFA:
		return UFAClass
	case mach.UFM:
		return UFMClass
	}
	return UIALUClass
}

// operandBoards inspects the op's register operands: it returns the
// preferred board (where most reside) and the hard constraint, if any
// (SF/branch-bank reads are local-only).
func (s *scheduler) operandBoards(o *VOp) (pref int, hard int) {
	hard = -1
	var count [maxBoards]int
	for _, r := range o.Uses() {
		h, ok := s.home.get(r)
		if !ok {
			continue
		}
		count[h]++
		switch s.vf.Class(r) {
		case ClassSF, ClassB:
			hard = int(h)
		}
	}
	best := -1
	for b, c := range count { // fixed order: deterministic tie-breaking
		if c > 0 && (best == -1 || c > count[best]) {
			best = b
		}
	}
	if hard >= 0 {
		return hard, hard
	}
	return best, hard
}

// tryPlace attempts to schedule op into instruction k, first where its
// operands are, then on any unit with cross-bank copies inserted to bring
// them there.
//
// Board preference spreads the trace across the pairs: ops are hinted to
// the board given by their block's position in the trace, so the unrolled
// copies of a loop body land on different pairs (the data-parallel work
// spreads; loop-carried chains stay put because a unit whose operands are
// elsewhere loses to the operands' own board in the same candidate pass).
func (s *scheduler) tryPlace(op *schedOp, k, minBeat int) bool {
	o := &op.vop
	pref, hard := s.operandBoards(o)
	// Spread independent work across the pairs; chained ops (reduction and
	// induction links) stay with their operands so recurrences never pay
	// cross-board move latency.
	if hard < 0 && s.cfg.Pairs > 1 && !op.chained && !s.cfg.NoSpread {
		pref = op.traceIdx % s.cfg.Pairs
	}
	var buf [maxCandidates]unitChoice
	units := s.candidateUnits(o, pref, &buf)
	// The second pass allows placements that first route operands to the
	// target board over the buses (the per-trace copy cache dedups the moves).
	for _, allowCopies := range [...]bool{false, true} {
		for _, uc := range units {
			if hard >= 0 && int(uc.unit.Pair) != hard {
				continue
			}
			if s.placeOn(op, uc, k, minBeat, allowCopies) {
				return true
			}
		}
	}
	return false
}

// placeOn tries one specific unit/beat. When allowCopies is set, non-local
// I/F operands are routed to the unit's board with inserted move ops.
func (s *scheduler) placeOn(op *schedOp, uc unitChoice, k, minBeat int, allowCopies bool) bool {
	o := &op.vop
	issue := 2*k + int(uc.beat)
	if issue < minBeat {
		return false
	}
	board := uc.unit.Pair
	// the unit first: most candidate slots fall here
	if !s.takeUnit(op, uc, issue, false) {
		return false
	}

	// store-file pressure: hold back new store-file writes while too many
	// are outstanding on this pair (the allocator has no spill path into
	// the store file, so the scheduler keeps its footprint bounded)
	if o.Kind == mach.OpMovSF && s.pendingSF[board] >= s.cfg.StoreFile-2 {
		return false
	}

	// resolve operands to local names (or fail / insert copies). The lists
	// live in fixed arrays: an op has three operands, and a register named by
	// all three is planned, copied and rewritten three times over.
	type rewrite struct {
		arg *VArg
		reg VReg
	}
	var rewriteBuf [9]rewrite
	var planBuf, claimBuf [3]VReg
	rewrites := rewriteBuf[:0]
	copyPlans := planBuf[:0] // operands needing copies
	claims := claimBuf[:0]   // unhomed operands: first touch homes them here
	args := [...]*VArg{&o.A, &o.B, &o.C}
	for _, a := range args {
		if a.IsImm || a.Reg == VNone {
			continue
		}
		r := a.Reg
		h, homed := s.home.get(r)
		if !homed {
			// first touch: the value will live here (its definer will
			// cross-write to this board); recorded at commit below
			claims = append(claims, r)
			continue
		}
		if h == board {
			continue
		}
		switch s.vf.Class(r) {
		case ClassSF, ClassB:
			return false // local-only, wrong board
		}
		// existing copy?
		if cp := s.reg(r).copies[board]; cp != VNone {
			if s.reg(cp).avail <= issue {
				rewrites = append(rewrites, rewrite{a, cp})
				continue
			}
			return false // copy exists but not ready for this beat
		}
		if !allowCopies {
			return false
		}
		copyPlans = append(copyPlans, r)
	}

	// the destination is reachable from the unit, and the shared resources
	// the op takes at this slot are free (before committing copies)
	if !s.reachable(o, board) || !s.takeShared(op, uc, issue, false) {
		return false
	}

	// insert copies; each must complete by the issue beat. One that finds no
	// slot fails the placement but leaves the copies before it placed and
	// cached: later attempts find and use them.
	for _, r := range copyPlans {
		cp, ok := s.insertCopy(r, board, issue)
		if !ok {
			return false
		}
		for _, a := range args {
			if !a.IsImm && a.Reg == r {
				rewrites = append(rewrites, rewrite{a, cp})
			}
		}
	}
	// Preserve the pre-rewrite form for compensation code (comp blocks route
	// their own operands from their home boards, so they must not see
	// board-local copy registers that may not be written on their path).
	if len(rewrites) > 0 && op.compVop == nil {
		cv := *o
		op.compVop = &cv
	}
	for _, rw := range rewrites {
		rw.arg.Reg = rw.reg
	}
	for _, r := range claims {
		if _, ok := s.home.get(r); !ok {
			s.home.set(r, board)
		}
	}
	s.reserve(op, uc, issue)
	op.placed = true
	op.instr = k
	op.beat = issue
	op.unit = uc.unit
	if o.Dst != VNone {
		if _, ok := s.home.get(o.Dst); !ok {
			s.home.set(o.Dst, board)
		}
		// A precolored register is written again within a trace: copies of
		// its old value are no copies of the new one. (A renamed register is
		// written once, before anything copies it.)
		e := s.reg(o.Dst)
		e.avail, e.copies = issue+opLatency(&s.cfg, o), [maxBoards]VReg{}
	}
	switch o.Kind {
	case mach.OpMovSF:
		if e := s.reg(o.Dst); !e.pendingSF {
			e.pendingSF = true
			s.pendingSF[board]++
		}
	case ir.Store:
		if !o.C.IsImm && o.C.Reg != VNone {
			if e := s.reg(o.C.Reg); e.pendingSF {
				e.pendingSF = false
				s.pendingSF[board]--
			}
		}
	}
	s.placed = append(s.placed, placedOp{instr: k, beat: uc.beat, unit: uc.unit, vop: *o, src: op})
	if k > s.maxInstr {
		s.maxInstr = k
	}
	return true
}

// reachable checks destination-bank reachability (an encoding constraint,
// not a shared resource): the dest_bank field can route results to any I
// bank, but F/SF/branch-bank writes are pair-local, and SELECT's encoding
// spends the dest_bank field on its branch-bank selector, so its destination
// is local too. Enforced even on the Ideal machine for encodability.
func (s *scheduler) reachable(o *VOp, board uint8) bool {
	h, ok := s.home.get(o.Dst)
	if o.Dst == VNone || !ok || h == board {
		return true
	}
	// MOV is the exception: data moves ride the tagged load buses (§6.3)
	// and can deliver to any board's F bank, like loads.
	cls := s.vf.Class(o.Dst)
	return (cls == ClassI || o.Kind == ir.Mov && cls == ClassF) && o.Kind != ir.Select
}

// reserve books everything op takes issuing on uc at beat issue.
func (s *scheduler) reserve(op *schedOp, uc unitChoice, issue int) {
	s.gen++
	s.takeUnit(op, uc, issue, true)
	s.takeShared(op, uc, issue, true)
}

// takeUnit and takeShared are the one account of what op takes issuing on uc
// at beat issue, which placeOn tests in two halves (a slot whose unit is
// taken needs no operand routing) and reserve books whole. Each hands its
// claims in turn to take or hold: with book set it books them all,
// otherwise it reports whether all are free, stopping at the first that is
// not.
//
// takeUnit claims the unit's issue slot, and the divider holding it.
func (s *scheduler) takeUnit(op *schedOp, uc unitChoice, issue int, book bool) bool {
	o := &op.vop
	board := uc.unit.Pair
	unit := claim{slot: unitSlot(uc.unit), beat: issue, beats: 1, n: 1}
	switch {
	case o.Kind == ir.Div || o.Kind == ir.Rem:
		// the iterative divide holds its ALU from its issue on, one divide at
		// a time per pair when there are other pairs to move work to
		unit.beats = opLatency(&s.cfg, o)
		if s.cfg.Pairs > 1 && !hold(&s.res.idiv[board], issue, issue+unit.beats, book) {
			return false
		}
	case uc.unit.Kind == mach.UFM:
		// nothing issues on a multiplier the FP divide holds
		end := 0
		if o.Kind == ir.FDiv {
			end = 2 * (op2instr(issue) + (s.cfg.LatFDiv+1)/2)
		}
		if !hold(&s.res.fdiv[board], issue, end, book) {
			return false
		}
	}
	return s.take(unit, book)
}

// takeShared claims what the units share: the immediate word, register
// ports, buses, and the memory rules of §6.4.1. The Ideal machine (Figure 1)
// has no shared resources.
func (s *scheduler) takeShared(op *schedOp, uc unitChoice, issue int, book bool) bool {
	if s.cfg.Ideal {
		return true
	}
	o := &op.vop
	board := uc.unit.Pair
	// the shared immediate word (one long immediate or branch per
	// pair-beat) and the register file read ports
	if !s.take(claim{slot: slotImm + board, beat: issue, beats: immWordBeats(o), n: 1}, book) ||
		!s.take(claim{slot: slotRead + board, beat: issue, beats: 1, n: len(o.Uses())}, book) {
		return false
	}
	// destination write port (and cross-board bus for non-load writes)
	if o.Dst != VNone {
		wb := issue + opLatency(&s.cfg, o)
		db := s.dstBoard(o, uc.unit)
		var bus claim // none for a write to the unit's own board, or a load's
		switch {
		case db == int(board) || o.IsMem():
		case s.vf.Class(o.Dst) == ClassF:
			bus = claim{slot: slotBus + busFLoad, beat: wb - 1, beats: 2, n: 1}
		default:
			bus = claim{slot: slotBus + busILoad, beat: wb, beats: 1, n: 1}
		}
		if !s.take(claim{slot: slotWrite + uint8(db), beat: wb, beats: 1, n: 1}, book) ||
			!s.take(bus, book) {
			return false
		}
	}
	if !o.IsMem() {
		return true
	}

	// memory reference rules: one reference per I board per beat, the
	// address bus, the data bus, and the banks and controllers the
	// references in flight keep busy
	data := claim{slot: slotBus + busILoad, beat: issue + mach.StageData, beats: 1, n: 1}
	switch {
	case o.Kind == ir.Store:
		data = claim{slot: slotBus + busStore, beat: issue + mach.StagePA, beats: 1, n: 1}
	case s.vf.Class(o.Dst) == ClassF:
		data = claim{slot: slotBus + busFLoad, beat: issue + mach.StageData, beats: 1, n: 1}
	}
	if !s.take(claim{slot: slotMem + board, beat: issue, beats: 1, n: 1}, book) ||
		!s.take(claim{slot: slotBus + busPA, beat: issue + mach.StagePA, beats: 1, n: 1}, book) || !s.take(data, book) {
		return false
	}
	ref := s.refOfPlaced(op)
	if book {
		s.res.refs = append(s.res.refs, memRef{ref, issue})
	}
	return book || s.bankFree(ref, issue)
}

// take books claim c when book is set, and otherwise reports whether it
// fits. It is the one place a row of the table is read or written.
func (s *scheduler) take(c claim, book bool) bool {
	for b := c.beat; b < c.beat+c.beats; b++ {
		used := &s.res.row(b)[c.slot]
		if book {
			*used += uint8(c.n)
		} else if int(*used)+c.n > int(s.res.limit[c.slot]) {
			return false
		}
	}
	return true
}

// hold books a divider's hold until beat end when book is set, and
// otherwise reports whether the divider takes an op at beat.
func hold(busy *int, beat, end int, book bool) bool {
	if book {
		*busy = max(*busy, end)
	}
	return book || beat >= *busy
}

// bankFree reports whether a reference issued at beat issue keeps clear of
// the banks and controllers the scheduled references keep busy.
func (s *scheduler) bankFree(ref alias.Ref, issue int) bool {
	bankBeat := issue + mach.StageBank
	modBank := int64(8 * s.cfg.Controllers * s.cfg.BanksPerController)
	modCtrl := int64(8 * s.cfg.Controllers)
	for _, m := range s.res.refs {
		d := bankBeat - (m.issueBeat + mach.StageBank)
		if d < 0 {
			d = -d
		}
		if d >= s.cfg.BankBusyBeats {
			continue
		}
		switch alias.SameBank(ref, m.ref, modBank) {
		case alias.Yes:
			return false
		case alias.Maybe:
			if !s.cfg.RollTheDice {
				return false
			}
		}
		if d == 0 {
			switch alias.SameBank(ref, m.ref, modCtrl) {
			case alias.Yes:
				return false
			case alias.Maybe:
				if !s.cfg.RollTheDice {
					return false
				}
			}
		}
	}
	return true
}

// refOfPlaced returns the op's alias reference (computed at DAG time).
func (s *scheduler) refOfPlaced(op *schedOp) alias.Ref {
	if op.ref != nil {
		return *op.ref
	}
	return alias.Ref{Addr: alias.VarForm(0), Size: 8}
}

// dstBoard returns the board whose register file receives the result: the
// destination's home, or the unit's own board for one nothing has homed yet
// (Assemble homes the precolored registers before any trace is scheduled).
func (s *scheduler) dstBoard(o *VOp, u mach.Unit) int {
	if h, ok := s.home.get(o.Dst); ok {
		return int(h)
	}
	return int(u.Pair)
}

func op2instr(beat int) int { return beat / 2 }

// fitsImm6 reports whether the value fits the inline 6-bit immediate field.
func fitsImm6(a VArg) bool {
	return a.Sym == "" && a.Imm >= -32 && a.Imm <= 31
}

// immWordBeats returns how many beats of the pair's shared immediate words
// the op occupies, from its issue beat on. Branches own the early word (their
// displacement rides the PC adder's leg; they issue in the early beat); long
// immediates own their issue beat's word; ConstF needs both halves.
func immWordBeats(o *VOp) int {
	switch o.Kind {
	case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR, mach.OpHalt, mach.OpSyscall:
		return 1
	case ir.ConstF:
		return 2
	}
	for _, a := range [...]*VArg{&o.A, &o.B, &o.C} {
		if a.IsImm && !fitsImm6(*a) {
			return 1
		}
	}
	return 0
}

// insertCopy schedules a cross-bank move of r to the target board, in the
// first slot it fits with completion no later than needBy. Returns the copy
// register.
func (s *scheduler) insertCopy(r VReg, board uint8, needBy int) (VReg, bool) {
	cls := s.vf.Class(r)
	typ := s.vf.TypeOf(r)
	src, _ := s.home.get(r)
	earliest := s.reg(r).avail // 0 for live-ins
	// A bounded window keeps the placement near the consumer.
	first := func(by int) int {
		return max(op2instr(earliest), op2instr(by)-64)
	}
	kStart := first(needBy)
	// If a search found nothing since the last reservation, every slot it
	// looked at is still taken: a later deadline within its window leaves the
	// slots completing after the earlier one, in the same order, and an
	// earlier one over the same window leaves none. (An earlier deadline whose
	// window starts lower looks again.)
	known := -1
	if m := s.reg(r).noCopy[board]; m.gen == s.gen {
		switch {
		case needBy > m.needBy:
			known = m.needBy
		case first(m.needBy) == kStart:
			return VNone, false
		}
	}

	// The copy's register exists for the whole search — the resource checks
	// route its write to the target board — and is given back if no slot is
	// found.
	cp := s.vf.NewReg(cls, typ)
	s.home.set(cp, board)
	tmp := schedOp{vop: VOp{Kind: ir.Mov, Type: typ, Dst: cp, A: VRegArg(r)}, instr: -1}
	lat := opLatency(&s.cfg, &tmp.vop)

	// candidate units on the SOURCE board (reads must be local)
	var ucBuf [4]unitChoice
	ucs := pairUnits(ucBuf[:0], unitClass(s.vf, &tmp.vop), src)
	for k := max(kStart, op2instr(known+1-lat)); 2*k+lat <= needBy+1; k++ {
		for _, uc := range ucs {
			issue := 2*k + int(uc.beat)
			if issue < earliest || issue+lat > needBy || issue+lat <= known {
				continue
			}
			// (a move reaches the I or F bank of any board)
			if !s.takeUnit(&tmp, uc, issue, false) || !s.takeShared(&tmp, uc, issue, false) {
				continue
			}
			s.reserve(&tmp, uc, issue)
			s.reg(cp).avail = issue + lat
			s.reg(r).copies[board] = cp
			s.placed = append(s.placed, placedOp{instr: k, beat: uc.beat, unit: uc.unit, vop: tmp.vop})
			if k > s.maxInstr {
				s.maxInstr = k
			}
			return cp, true
		}
	}
	s.home.unset(cp)
	s.vf.dropReg(cp)
	m := &s.reg(r).noCopy[board]
	m.gen, m.needBy = s.gen, needBy
	return VNone, false
}
