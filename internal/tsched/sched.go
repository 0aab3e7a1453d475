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
	// fdivBusy[pair] is the first instruction at which the pair's
	// multiplier/divider accepts a new op again (the iterative divide
	// occupies it).
	fdivBusy [maxBoards]int
	// idivBusy[pair] is the first beat at which an iterative divide may
	// take one of the pair's I ALUs: with other pairs to move work to, one
	// divide at a time per pair, so the other ALU is left for the copies.
	idivBusy [maxBoards]int
	memRefs  []memRef // scheduled memory references

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

type memRef struct {
	ref       alias.Ref
	issueBeat int
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
	s.res.rows = s.res.rows[:0]
	s.fdivBusy = [maxBoards]int{}
	s.idivBusy = [maxBoards]int{}
	s.memRefs = s.memRefs[:0]
	s.pendingSF = [maxBoards]int{}
	s.placed, s.maxInstr = nil, 0

	n := len(g.ops)
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
	out := buf[:0]
	pairs := s.cfg.Pairs
	var orderBuf [maxBoards]int
	order := orderBuf[:0]
	if prefBoard >= 0 && prefBoard < pairs {
		order = append(order, prefBoard)
	}
	for p := 0; p < pairs; p++ {
		if p != prefBoard {
			order = append(order, p)
		}
	}
	switch unitClass(s.vf, o) {
	case UIALUClass:
		for _, p := range order {
			for alu := 0; alu < 2; alu++ {
				for beat := uint8(0); beat < 2; beat++ {
					out = append(out, unitChoice{mach.Unit{Kind: mach.UIALU, Pair: uint8(p), Idx: uint8(alu)}, beat})
				}
			}
		}
	case UFAClass:
		for _, p := range order {
			out = append(out, unitChoice{mach.Unit{Kind: mach.UFA, Pair: uint8(p)}, 0})
		}
	case UFMClass:
		for _, p := range order {
			out = append(out, unitChoice{mach.Unit{Kind: mach.UFM, Pair: uint8(p)}, 0})
		}
	case UFEitherClass:
		for _, p := range order {
			out = append(out, unitChoice{mach.Unit{Kind: mach.UFA, Pair: uint8(p)}, 0})
			out = append(out, unitChoice{mach.Unit{Kind: mach.UFM, Pair: uint8(p)}, 0})
		}
	case UBRClass:
		for _, p := range order {
			out = append(out, unitChoice{mach.Unit{Kind: mach.UBR, Pair: uint8(p)}, 0})
		}
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
// the fast-move and SELECT paths; conversions run on the F side). Moves and
// selects follow their source operand's bank: a value in an F bank — even a
// 32-bit integer staged for conversion — can only be read by an F-side unit.
func unitClass(vf *VFunc, o *VOp) uclass {
	switch o.Kind {
	case mach.OpBrT, mach.OpJmp, mach.OpJmpR, mach.OpCall, mach.OpHalt, mach.OpSyscall:
		return UBRClass
	case ir.FAdd, ir.FSub, ir.FNeg, ir.FtoI, ir.ItoF,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return UFAClass
	case ir.FMul, ir.FDiv:
		return UFMClass
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
	default:
		return UIALUClass
	}
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

	// unit availability
	if !s.unitFree(uc, k) {
		return false
	}
	if o.Kind == ir.Div || o.Kind == ir.Rem {
		// the divide holds its ALU from its issue on: nothing placed there
		// before it may fall inside the hold
		if s.cfg.Pairs > 1 && issue < s.idivBusy[board] {
			return false
		}
		for b := issue + 1; b < issue+opLatency(&s.cfg, o); b++ {
			if s.res.at(b).units&unitBit(uc.unit) != 0 {
				return false
			}
		}
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

	// resource feasibility at this slot (before committing copies)
	if !s.resourcesFree(op, uc, issue) {
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

// unitFree reports whether the unit slot is open at instruction k.
func (s *scheduler) unitFree(uc unitChoice, k int) bool {
	if uc.unit.Kind == mach.UFM && k < s.fdivBusy[uc.unit.Pair] {
		return false
	}
	return s.res.at(2*k+int(uc.beat)).units&unitBit(uc.unit) == 0
}

// resourcesFree checks ports, buses, and the memory rules of §6.4.1 for
// issuing op at the given slot. The Ideal machine (Figure 1) skips all
// shared-resource checks.
func (s *scheduler) resourcesFree(op *schedOp, uc unitChoice, issue int) bool {
	o := &op.vop
	board := int(uc.unit.Pair)

	// Destination-bank reachability (encoding constraint, not a shared
	// resource): the dest_bank field can route results to any I bank, but
	// F/SF/branch-bank writes are pair-local, and SELECT's encoding spends
	// the dest_bank field on its branch-bank selector, so its destination
	// is local too. Enforced even on the Ideal machine for encodability.
	if o.Dst != VNone {
		cls := s.vf.Class(o.Dst)
		if h, ok := s.home.get(o.Dst); ok && int(h) != board {
			// MOV is the exception: data moves ride the tagged load buses
			// (§6.3) and can deliver to any board's F bank, like loads.
			crossOK := cls == ClassI || (o.Kind == ir.Mov && cls == ClassF)
			if !crossOK || o.Kind == ir.Select {
				return false
			}
		}
	}
	if s.cfg.Ideal {
		return true
	}

	// shared immediate word (one long immediate or branch per pair-beat)
	for b := issue; b < issue+immWordBeats(o); b++ {
		if s.res.at(b).imm&(1<<board) != 0 {
			return false
		}
	}

	// register file read ports
	if int(s.res.at(issue).rd[board])+len(o.Uses()) > s.cfg.RFReadPorts {
		return false
	}

	// destination write port (and cross-board bus for non-load writes)
	if o.Dst != VNone {
		wb := issue + opLatency(&s.cfg, o)
		db := s.dstBoard(o, uc.unit)
		if int(s.res.at(wb).wr[db])+1 > s.cfg.RFWritePorts {
			return false
		}
		if db != board && !o.IsMem() {
			kind, beats := busILoad, 1
			if s.vf.Class(o.Dst) == ClassF {
				kind, beats = busFLoad, 2
			}
			for i := 0; i < beats; i++ {
				if int(s.res.at(wb - i).bus[kind])+1 > busCap(&s.cfg, kind) {
					return false
				}
			}
		}
	}

	// memory reference rules
	if o.IsMem() {
		// one reference per I board per beat
		if s.res.at(issue).mem&(1<<board) != 0 {
			return false
		}
		if int(s.res.at(issue + mach.StagePA).bus[busPA])+1 > s.cfg.PABuses {
			return false
		}
		if o.Kind == ir.Store {
			if int(s.res.at(issue + mach.StagePA).bus[busStore])+1 > s.cfg.StoreBuses {
				return false
			}
		} else {
			kind := busILoad
			if s.vf.Class(o.Dst) == ClassF {
				kind = busFLoad
			}
			if int(s.res.at(issue + mach.StageData).bus[kind])+1 > busCap(&s.cfg, kind) {
				return false
			}
		}
		// bank and controller disambiguation against in-flight references
		ref := s.refOfPlaced(op)
		bankBeat := issue + mach.StageBank
		modBank := int64(8 * s.cfg.Controllers * s.cfg.BanksPerController)
		modCtrl := int64(8 * s.cfg.Controllers)
		for _, m := range s.memRefs {
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

// busCap returns the number of buses of the given kind.
func busCap(cfg *mach.Config, kind int) int {
	switch kind {
	case busILoad:
		return cfg.ILoadBuses
	case busFLoad:
		return cfg.FLoadBuses
	case busStore:
		return cfg.StoreBuses
	default:
		return cfg.PABuses
	}
}

// reserve commits the op's resource usage.
func (s *scheduler) reserve(op *schedOp, uc unitChoice, issue int) {
	s.gen++
	o := &op.vop
	board := int(uc.unit.Pair)
	bit := unitBit(uc.unit)
	s.res.row(issue).units |= bit
	switch o.Kind {
	case ir.Div, ir.Rem:
		// the iterative divide occupies this ALU
		for b := issue; b < issue+opLatency(&s.cfg, o); b++ {
			s.res.row(b).units |= bit
		}
		s.idivBusy[board] = issue + opLatency(&s.cfg, o)
	case ir.FDiv:
		s.fdivBusy[board] = op2instr(issue) + (s.cfg.LatFDiv+1)/2
	}
	if s.cfg.Ideal {
		return
	}
	for b := issue; b < issue+immWordBeats(o); b++ {
		s.res.row(b).imm |= 1 << board
	}
	s.res.row(issue).rd[board] += uint16(len(o.Uses()))
	if o.Dst != VNone {
		wb := issue + opLatency(&s.cfg, o)
		db := s.dstBoard(o, uc.unit)
		s.res.row(wb).wr[db]++
		if db != board && !o.IsMem() {
			kind, beats := busILoad, 1
			if s.vf.Class(o.Dst) == ClassF {
				kind, beats = busFLoad, 2
			}
			for i := 0; i < beats; i++ {
				s.res.row(wb - i).bus[kind]++
			}
		}
	}
	if o.IsMem() {
		s.res.row(issue).mem |= 1 << board
		s.res.row(issue + mach.StagePA).bus[busPA]++
		if o.Kind == ir.Store {
			s.res.row(issue + mach.StagePA).bus[busStore]++
		} else {
			kind := busILoad
			if s.vf.Class(o.Dst) == ClassF {
				kind = busFLoad
			}
			s.res.row(issue + mach.StageData).bus[kind]++
		}
		s.memRefs = append(s.memRefs, memRef{s.refOfPlaced(op), issue})
	}
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
	ucs := ucBuf[:0]
	if cls == ClassI {
		for alu := 0; alu < 2; alu++ {
			for beat := uint8(0); beat < 2; beat++ {
				ucs = append(ucs, unitChoice{mach.Unit{Kind: mach.UIALU, Pair: src, Idx: uint8(alu)}, beat})
			}
		}
	} else {
		ucs = append(ucs,
			unitChoice{mach.Unit{Kind: mach.UFA, Pair: src}, 0},
			unitChoice{mach.Unit{Kind: mach.UFM, Pair: src}, 0})
	}
	for k := max(kStart, op2instr(known+1-lat)); 2*k+lat <= needBy+1; k++ {
		for _, uc := range ucs {
			issue := 2*k + int(uc.beat)
			if issue < earliest || issue+lat > needBy || issue+lat <= known {
				continue
			}
			if !s.unitFree(uc, k) || !s.resourcesFree(&tmp, uc, issue) {
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
