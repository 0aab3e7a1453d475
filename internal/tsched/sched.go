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
	g        *traceGraph
}

// scheduler holds reservation state while compacting one trace. The home
// map (virtual register -> board) and copies cache persist per function so
// cross-trace reads agree on value locations.
type scheduler struct {
	cfg    mach.Config
	vf     *VFunc
	g      *traceGraph
	home   map[VReg]uint8
	layout map[string]int64

	// per-trace copy cache: (vreg, board) -> local copy
	copies map[copyKey]VReg

	// reservations
	res resTable
	// fdivBusy[pair] is the first instruction at which the pair's
	// multiplier/divider accepts a new op again (the iterative divide
	// occupies it).
	fdivBusy [4]int
	memRefs  []memRef     // scheduled memory references
	avail    map[VReg]int // value availability beat (writes complete)

	// pendingSF tracks store-file registers written but not yet consumed by
	// their store, per pair; the compiler is responsible for not
	// overflowing the store file (no hardware manages it).
	pendingSF map[uint8]map[VReg]bool

	placed   []placedOp
	maxInstr int
	maxPrio  int64
}

type copyKey struct {
	reg   VReg
	board uint8
}

type memRef struct {
	ref       alias.Ref
	issueBeat int
	isStore   bool
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

// scheduleTrace compacts one linearized, renamed trace with a list scheduler
// over the machine's resources.
func scheduleTrace(cfg mach.Config, vf *VFunc, g *traceGraph, home map[VReg]uint8, layout map[string]int64) (*schedResult, error) {
	var maxPrio int64
	for _, op := range g.ops {
		if op.prio > maxPrio {
			maxPrio = op.prio
		}
	}
	s := &scheduler{
		cfg: cfg, vf: vf, g: g, home: home, layout: layout, maxPrio: maxPrio,
		copies:    map[copyKey]VReg{},
		avail:     map[VReg]int{},
		pendingSF: map[uint8]map[VReg]bool{},
	}

	n := len(g.ops)
	earliestBeat := make([]int, n)
	earliestInstr := make([]int, n)
	waited := make([]int, n)
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
			return nil, &ErrScheduleSize{Func: vf.Name, Limit: maxTraceInstrs}
		}
		for {
			progress := false
			for _, op := range ready() {
				if earliestInstr[op.origIdx] > k {
					continue
				}
				if s.tryPlace(op, k, earliestBeat[op.origIdx], waited[op.origIdx]) {
					relax(op)
					remaining--
					progress = true
				} else {
					waited[op.origIdx]++
				}
			}
			if !progress {
				break
			}
		}
	}

	return &schedResult{placed: s.placed, numInstr: s.maxInstr + 1, g: g}, nil
}

// unitChoice is a candidate placement.
type unitChoice struct {
	unit mach.Unit
	beat uint8
}

// candidateUnits lists legal units for the op's kind, most preferred first.
// prefBoard biases toward boards already holding the operands.
func (s *scheduler) candidateUnits(o *VOp, prefBoard int) []unitChoice {
	var out []unitChoice
	pairs := s.cfg.Pairs
	order := make([]int, 0, pairs)
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
// preferred board (where most reside), the set of hard constraints
// (SF/branch-bank reads are local-only), and whether homes are mixed.
func (s *scheduler) operandBoards(o *VOp) (pref int, hard int, regs []VReg) {
	pref, hard = -1, -1
	count := map[uint8]int{}
	for _, r := range o.Uses() {
		regs = append(regs, r)
		h, ok := s.home[r]
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
	for b := 0; b < 4; b++ { // fixed order: deterministic tie-breaking
		c, ok := count[uint8(b)]
		if !ok {
			continue
		}
		if best == -1 || c > count[uint8(best)] {
			best = b
		}
	}
	pref = best
	if hard >= 0 {
		pref = hard
	}
	return pref, hard, regs
}

// tryPlace attempts to schedule op into instruction k. waited counts how
// many instructions the op has been ready but unplaced; after a threshold
// the scheduler inserts cross-bank copies to unblock it.
//
// Board preference spreads the trace across the pairs: ops are hinted to
// the board given by their block's position in the trace, so the unrolled
// copies of a loop body land on different pairs (the data-parallel work
// spreads; loop-carried chains stay put because a unit whose operands are
// elsewhere loses to the operands' own board in the same candidate pass).
func (s *scheduler) tryPlace(op *schedOp, k, minBeat, waited int) bool {
	o := &op.vop
	pref, hard, _ := s.operandBoards(o)
	// Spread independent work across the pairs; chained ops (reduction and
	// induction links) stay with their operands so recurrences never pay
	// cross-board move latency.
	if hard < 0 && s.cfg.Pairs > 1 && !op.chained && !s.cfg.NoSpread {
		pref = op.traceIdx % s.cfg.Pairs
	}
	for _, uc := range s.candidateUnits(o, pref) {
		if hard >= 0 && int(uc.unit.Pair) != hard {
			continue
		}
		if s.placeOn(op, uc, k, minBeat, false) {
			return true
		}
	}
	// Copy pass: allow placements that first route operands to the target
	// board over the buses (the per-trace copy cache dedups the moves).
	for _, uc := range s.candidateUnits(o, pref) {
		if hard >= 0 && int(uc.unit.Pair) != hard {
			continue
		}
		if s.placeOn(op, uc, k, minBeat, true) {
			return true
		}
	}
	_ = waited
	return false
}

// mixedHomes reports whether the op's I/F operands live on different boards
// (so no board can host it without a copy).
func (s *scheduler) mixedHomes(o *VOp) bool {
	seen := -1
	for _, r := range o.Uses() {
		c := s.vf.Class(r)
		if c != ClassI && c != ClassF {
			continue
		}
		h, ok := s.home[r]
		if !ok {
			continue
		}
		if seen == -1 {
			seen = int(h)
		} else if seen != int(h) {
			return true
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

	// store-file pressure: hold back new store-file writes while too many
	// are outstanding on this pair (the allocator has no spill path into
	// the store file, so the scheduler keeps its footprint bounded)
	if o.Kind == mach.OpMovSF {
		if sf := s.pendingSF[board]; len(sf) >= s.cfg.StoreFile-2 {
			return false
		}
	}

	// resolve operands to local names (or fail / insert copies)
	type rewrite struct {
		arg *VArg
		reg VReg
	}
	var rewrites []rewrite
	var copyPlans []VReg // operands needing copies
	var claims []VReg    // unhomed operands: first touch homes them here
	args := []*VArg{&o.A, &o.B, &o.C}
	for _, a := range args {
		if a.IsImm || a.Reg == VNone {
			continue
		}
		r := a.Reg
		c := s.vf.Class(r)
		h, homed := s.home[r]
		if !homed {
			// first touch: the value will live here (its definer will
			// cross-write to this board); recorded at commit below
			claims = append(claims, r)
			continue
		}
		if h == board {
			continue
		}
		switch c {
		case ClassSF, ClassB:
			return false // local-only, wrong board
		}
		// existing copy?
		if cp, ok := s.copies[copyKey{r, board}]; ok {
			if s.avail[cp] <= issue {
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

	// insert copies; each must complete by the issue beat
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
	// Preserve the pre-rewrite form for compensation code (comp blocks are
	// serial and read operands from their home boards, so they must not see
	// board-local copy registers that may not be written on their path).
	if len(rewrites) > 0 && op.compVop == nil {
		cv := *o
		op.compVop = &cv
	}
	for _, rw := range rewrites {
		rw.arg.Reg = rw.reg
	}
	for _, r := range claims {
		if _, ok := s.home[r]; !ok {
			s.home[r] = board
		}
	}
	s.reserve(op, uc, issue)
	op.placed = true
	op.instr = k
	op.beat = issue
	op.unit = uc.unit
	if o.Dst != VNone {
		if _, ok := s.home[o.Dst]; !ok {
			if pre, isPre := s.vf.precolor[o.Dst]; isPre {
				s.home[o.Dst] = pre.Board
			} else {
				s.home[o.Dst] = board
			}
		}
		s.avail[o.Dst] = issue + opLatency(s.cfg, o)
	}
	switch o.Kind {
	case mach.OpMovSF:
		if s.pendingSF[board] == nil {
			s.pendingSF[board] = map[VReg]bool{}
		}
		s.pendingSF[board][o.Dst] = true
	case ir.Store:
		if !o.C.IsImm && o.C.Reg != VNone {
			delete(s.pendingSF[board], o.C.Reg)
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
		if h, ok := s.home[o.Dst]; ok && int(h) != board {
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
	for _, b := range immWordBeats(o, issue) {
		if s.res.at(b).imm&(1<<board) != 0 {
			return false
		}
	}

	// register file read ports
	nr := 0
	for _, a := range []*VArg{&o.A, &o.B, &o.C} {
		if !a.IsImm && a.Reg != VNone {
			nr++
		}
	}
	if int(s.res.at(issue).rd[board])+nr > s.cfg.RFReadPorts {
		return false
	}

	// destination write port (and cross-board bus for non-load writes)
	if o.Dst != VNone {
		wb := issue + opLatency(s.cfg, o)
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

// dstBoard returns the board whose register file receives the result.
func (s *scheduler) dstBoard(o *VOp, u mach.Unit) int {
	if h, ok := s.home[o.Dst]; ok {
		return int(h)
	}
	if pre, ok := s.vf.precolor[o.Dst]; ok {
		return int(pre.Board)
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
	o := &op.vop
	board := int(uc.unit.Pair)
	bit := unitBit(uc.unit)
	s.res.row(issue).units |= bit
	switch o.Kind {
	case ir.Div, ir.Rem:
		// the iterative divide occupies this ALU
		for b := issue; b < issue+opLatency(s.cfg, o); b++ {
			s.res.row(b).units |= bit
		}
	case ir.FDiv:
		s.fdivBusy[board] = op2instr(issue) + (s.cfg.LatFDiv+1)/2
	}
	if s.cfg.Ideal {
		return
	}
	for _, b := range immWordBeats(o, issue) {
		s.res.row(b).imm |= 1 << board
	}
	nr := 0
	for _, a := range []*VArg{&o.A, &o.B, &o.C} {
		if !a.IsImm && a.Reg != VNone {
			nr++
		}
	}
	s.res.row(issue).rd[board] += uint16(nr)
	if o.Dst != VNone {
		wb := issue + opLatency(s.cfg, o)
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
		s.memRefs = append(s.memRefs, memRef{s.refOfPlaced(op), issue, o.Kind == ir.Store})
	}
}

func op2instr(beat int) int { return beat / 2 }

// fitsImm6 reports whether the value fits the inline 6-bit immediate field.
func fitsImm6(a VArg) bool {
	return a.Sym == "" && a.Imm >= -32 && a.Imm <= 31
}

// immWordBeats returns which beats of the pair's shared immediate words the
// op occupies at instruction k (absolute beats). Branches own the early
// word (their displacement rides the PC adder's leg); long immediates own
// their issue beat's word; ConstF needs both halves.
func immWordBeats(o *VOp, issue int) []int {
	switch o.Kind {
	case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR, mach.OpHalt, mach.OpSyscall:
		return []int{issue} // branches issue in the early beat
	case ir.ConstF:
		return []int{issue, issue + 1}
	}
	for _, a := range []VArg{o.A, o.B, o.C} {
		if a.IsImm && !fitsImm6(a) {
			return []int{issue}
		}
	}
	return nil
}

// insertCopy schedules a cross-bank move of r to the target board, somewhere
// it fits with completion no later than needBy. Returns the copy register.
func (s *scheduler) insertCopy(r VReg, board uint8, needBy int) (VReg, bool) {
	cls := s.vf.Class(r)
	typ := s.vf.TypeOf(r)
	mov := VOp{Kind: ir.Mov, Type: typ, A: VRegArg(r)}
	lat := opLatency(s.cfg, &mov)
	src := s.home[r]
	earliest := s.avail[r] // 0 for live-ins

	// candidate units on the SOURCE board (reads must be local)
	var ucs []unitChoice
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
	kStart := op2instr(earliest)
	if lo := op2instr(needBy) - 64; lo > kStart {
		kStart = lo // bounded window keeps placement near the consumer
	}
	for k := kStart; 2*k+lat <= needBy+1; k++ {
		for _, uc := range ucs {
			issue := 2*k + int(uc.beat)
			if issue < earliest || issue+lat > needBy {
				continue
			}
			if !s.unitFree(uc, k) {
				continue
			}
			cp := s.vf.NewReg(cls, typ)
			s.home[cp] = board
			m := mov
			m.Dst = cp
			tmp := &schedOp{vop: m, instr: -1}
			if !s.resourcesFree(tmp, uc, issue) {
				// un-home: try another slot
				delete(s.home, cp)
				continue
			}
			tmp.placed = true
			tmp.instr = k
			tmp.beat = issue
			tmp.unit = uc.unit
			s.reserve(tmp, uc, issue)
			s.avail[cp] = issue + lat
			s.copies[copyKey{r, board}] = cp
			s.placed = append(s.placed, placedOp{instr: k, beat: uc.beat, unit: uc.unit, vop: m})
			if k > s.maxInstr {
				s.maxInstr = k
			}
			return cp, true
		}
	}
	return VNone, false
}
