package vliw

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file is the pre-decoder. The TRACE has no interlocks precisely so that
// nothing dynamic stands between the static plan and execution (§6); the
// simulator mirrors that by flattening every decoded instruction word into an
// execution plan once, at image load, instead of re-deriving it every beat:
//
//   - every slot is translated, once, into the record every tier executes
//     (planOp, translate): its operands and its address sum resolved to
//     indexes of the value file, its write latency — which depends only on
//     (opcode, type, Config) — and, for an opcode of the shared value table
//     (mach.ValueOf), its value function;
//   - slots are split into per-beat lists, so the beat loop walks exactly
//     the operations that initiate, with no per-slot beat filtering, and each
//     list comes with the sum of what its slots count (opBulk);
//   - the unit name used for fault attribution is rendered once per slot
//     instead of fmt.Sprintf-ing on every execution;
//   - memory references are collected into a prescan list with each
//     effective-address sum resolved the same way (address), so words with no
//     references skip the TLB/bank-stall prescan entirely and the rest
//     re-decode no operand;
//   - the memory-bank geometry and the icache line index are resolved to
//     shifts and masks (bankGeom, itagMask), and the retire ring is sized
//     from the longest latency the image can issue;
//   - the §6 per-beat resource check (unit double-booking, register-file
//     read ports, one reference per I board, PA buses) is a function of the
//     instruction word alone, so it is evaluated once per word here and the
//     checked interpreter merely consults the precomputed verdict — the
//     per-beat map allocations of the old checkBeatResources disappear.
//
// The plan resolves the image's operations as they stand when it is decoded: an
// image is immutable once a plan of it exists (the mutation tests corrupt theirs
// before New). A linked image never changes (§4, §6), so everything derived
// from it is computed once and belongs to the plan, which lives as long as the
// image does and is run by any number of machines at once: the pre-decoded
// words (code), the copy a SafetyCertificate re-kinds (certified) and the
// regions fused on either as runs arrive (native.go). A machine owns none of
// it; pointing a pooled machine at another program rebuilds nothing.

// Plan is one image's pre-decoded form, for any number of machines to run at
// once: NewPlan names the image, the first machine Reset onto the plan decodes
// it, and every later one — ResetPlan, ResetPlans — finds the words decoded and
// the hot runs already fused into regions. A core.Artifact owns the plan of its
// image; a machine Reset onto a raw image owns a private one.
type Plan struct {
	img *isa.Image
	code

	// A plan derived from base under cert (certified): the code is a copy with
	// the proven sites' guards deleted, the region table its own. Nil on a base
	// plan.
	base *Plan
	cert SafetyCertificate

	// The plan's regions, by head word, published once built and never changed
	// after (what a run leaves is in Context.run and Context.resident). A head
	// that will never have a region — its word has a resource verdict, or the
	// budget is spent — holds noRegion.
	heads []atomic.Pointer[region]

	// decoded says code and heads are there to read; mu orders whoever makes
	// them so, and guards what only the cold paths touch: heat, a word's
	// arrivals by the per-word path up to regionHeat; regions, regionWords and
	// regionBytes, what the regions built so far hold against the budget; and
	// safe, the one certified derivative a base plan keeps.
	decoded     atomic.Bool
	mu          sync.Mutex
	heat        []uint8
	regions     int
	regionWords int
	regionBytes int64
	safe        *Plan
}

// code is the pre-decoded words of an image plus the constants every tier's
// step shares: what buildPlan computes, and what a certified plan copies.
type code struct {
	words    []planWord  // the prescan list of every word
	slots    []wordSlots // what the interpreter executes, word for word
	geom     bankGeom
	icache   int   // ICacheInstrs: the lines of the instruction cache
	itagMask int   // icache-1 when that is a power of two, else -1
	maxLat   int64 // longest write latency the image can issue, in beats
	ringSize int64 // retire-ring buckets: the power of two above maxLat
	ringCap  int64 // writes one beat can retire: over the latencies, the most any beat issues of each
	bytes    int64 // what the arrays above hold, roughly (Plan.Bytes)
}

// NewPlan returns the plan of img. It costs nothing until a machine is Reset
// onto it; img must not change from then on.
func NewPlan(img *isa.Image) *Plan { return &Plan{img: img} }

// decode makes the plan ready to run and reports whether this call did the
// work: the first machine to be Reset onto a plan pre-decodes its image.
func (p *Plan) decode() (built bool) {
	if p.decoded.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.decoded.Load() {
		return false
	}
	p.code = buildPlan(p.img)
	p.tables()
	p.decoded.Store(true)
	return true
}

// tables gives a plan whose code is in place its empty region table.
func (p *Plan) tables() {
	p.heads = make([]atomic.Pointer[region], len(p.words))
	p.heat = make([]uint8, len(p.words))
}

// certified returns the plan's guard-free derivative under cert and reports
// whether this call built it. A base plan keeps one: an image has one
// certificate for as long as its artifact lives, and a second one arming the
// same raw image takes the slot.
func (p *Plan) certified(cert SafetyCertificate) (safe *Plan, built bool) {
	if p.base != nil {
		p = p.base
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.safe == nil || p.safe.cert != cert {
		p.safe, built = buildSafePlan(p, cert), true
	}
	return p.safe, built
}

// Bytes estimates what the plan holds in memory: the decoded words, the
// certified copy if one was derived, and the regions built on either so far.
// It grows as machines run the plan; an undecoded plan holds nothing.
func (p *Plan) Bytes() int64 {
	if !p.decoded.Load() {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.bytes + p.regionBytes + int64(len(p.heads))*(8+1) // a head and its heat
	if p.safe != nil {
		n += p.safe.Bytes()
	}
	return n
}

// bankGeom is the memory-system geometry resolved at plan build: the one
// place an address becomes a bank id, for the prescan, the per-reference busy
// update, DMA and StallBank. The interleave (mach.Config.BankOf) repeats every
// Controllers × BanksPerController doublewords, so it is a table over one
// period — repeated to fill the table when the period is a power of two, which
// makes the lookup a mask; period is non-zero for the geometries that divide.
type bankGeom struct {
	tab    [64]uint8 // BankOf(8*i) as an index into Context.bankBusy, by doubleword i of a period
	period int64
	busy   int64 // StageBank + BankBusyBeats: the bank-busy window
}

func geomOf(cfg *mach.Config) bankGeom {
	g := bankGeom{busy: mach.StageBank + int64(cfg.BankBusyBeats)}
	n := cfg.Banks()
	if n <= 0 {
		return g // Validate refuses it; every reference falls on bank 0
	}
	if n&(n-1) != 0 {
		g.period = int64(n)
	}
	for i := range g.tab {
		ctrl, bank := cfg.BankOf(int64(8 * (i % n)))
		g.tab[i] = uint8(ctrl*8+bank) & 63
	}
	return g
}

// id returns the index of ea's RAM bank in Context.bankBusy.
func (g *bankGeom) id(ea int64) int64 {
	w := ea >> 3
	if g.period != 0 {
		w %= g.period
	}
	return int64(g.tab[w&63])
}

// planOp is one slot, translated: the record that says what the operation does
// (uop; exec runs it) and what a record has no room for. The interpreter runs
// the record as it stands — its result goes to resultCell and from there into
// the retire ring under dst and lat — and a region copies it into its stream
// with the result aimed at a scratch slot (regionBuilder.issue). At a site a
// SafetyCertificate proves can never fault, the safe-tier plan's record is of
// the guard-free kind (buildSafePlan).
type planOp struct {
	uop
	op       *mach.Op
	fn       func(a, b uint64) uint64 // the op's value semantics; nil unless mach.ValueOf(op.Kind) has them
	lat      int64                    // precomputed write latency in beats
	dst      mach.PReg                // where the result goes: op.Dst, a call's link register, nothing for a kind that leaves none
	unit     mach.Unit
	unitName string // precomputed fault attribution
}

// operand is a mach.Arg resolved for a record — in one an operand is an
// index, whichever bank it names — to be read as Context.readArg reads it: the
// value at an index of the value file plus a constant. A register is its index
// plus 0; an immediate — or no operand, which reads as 0 — is the zero cell
// plus its value. Reading one (vals[idx]+k, in a record's case) never asks
// which it is.
type operand struct {
	idx uint16
	k   uint64
}

func operandOf(a mach.Arg) operand {
	switch {
	case a.IsImm:
		return operand{idx: zeroCell, k: uint64(uint32(a.Imm))}
	case a.Reg.Valid():
		return operand{idx: uint16(a.Reg.Index())}
	}
	return operand{idx: zeroCell}
}

// address is a memory operation's effective-address sum, A + B, with its
// operands resolved: the integers at two indexes of the value file plus a
// constant. An immediate operand is folded into the constant and reads the
// zero cell, so every shape of reference — register plus offset, register plus
// register, absolute — is the same two loads and two adds, with nothing to
// dispatch on. A reference whose base names no register has no address: it
// computes 0, below mapped memory, and so faults (or returns the §7 funny
// number) when it executes.
type address struct {
	a, b uint16
	off  int64
}

func addressOf(o *mach.Op) address {
	if !o.A.IsImm && !o.A.Reg.Valid() {
		return address{a: zeroCell, b: zeroCell}
	}
	a, b := operandOf(o.A), operandOf(o.B)
	return address{a: a.idx, b: b.idx, off: int64(int32(a.k)) + int64(int32(b.k))}
}

// at is the address as the registers stand.
func (ad *address) at(c *Context) int64 {
	return int64(int32(c.vals[ad.a&valMask])) + int64(int32(c.vals[ad.b&valMask])) + ad.off
}

// planMem is one memory reference for the prescan loop.
type planMem struct {
	address
	beat int64 // issue beat within the instruction (0 or 1)
}

// resViol is a precomputed static resource violation for one (word, beat).
// The checked interpreter reports it when the beat executes, exactly where
// the old dynamic counting would have faulted; the certified fast path
// skips the consultation.
type resViol struct {
	code TrapCode
	msg  string
}

// planWord is what step's front half reads of a pre-decoded instruction word:
// the prescan list. The interpreter's form of the word lives in the parallel
// plan.slots, so the prescan and the issue loop each walk a dense array.
type planWord struct {
	mem []planMem
}

// wordSlots is the interpreted form of one instruction word: per-beat issue
// lists, what each list counts (the sum of its slots' opBulk) and the
// precomputed static resource verdicts.
type wordSlots struct {
	beats [2][]planOp
	bulk  [2]statsBulk
	viol  [2]*resViol
}

// through is what the slots of s's beat count up to and including s: what a
// fault at s — a guard's, or a panic the Go runtime raised where a proven
// site's guard stood — leaves of its beat.
func (ws *wordSlots) through(s *planOp) (b statsBulk) {
	for _, ops := range ws.beats {
		for i := range ops {
			if &ops[i] == s {
				for j := range ops[:i+1] {
					b.add(opBulk(&ops[j]))
				}
				return b
			}
		}
	}
	return b
}

// buildPlan pre-decodes every instruction word of the image.
func buildPlan(img *isa.Image) code {
	cfg := img.Cfg
	p := code{
		words:    make([]planWord, len(img.Instrs)),
		slots:    make([]wordSlots, len(img.Instrs)),
		geom:     geomOf(&img.Cfg),
		icache:   cfg.ICacheInstrs,
		itagMask: -1,
		maxLat:   1,
	}
	if n := cfg.ICacheInstrs; n > 0 && n&(n-1) == 0 {
		p.itagMask = n - 1
	}

	// Unit names are shared across the image: render each once.
	unitNames := map[mach.Unit]string{}
	nameOf := func(u mach.Unit) string {
		s, ok := unitNames[u]
		if !ok {
			s = u.String()
			unitNames[u] = s
		}
		return s
	}

	// A plan lives as long as its image and is held by whatever caches the
	// image: every issue list is a run of one array, every prescan list of
	// another, each exactly as long as the image needs.
	nops, nmems := 0, 0
	for a := range img.Instrs {
		for si := range img.Instrs[a].Slots {
			if nops++; prescanned(&img.Instrs[a].Slots[si].Op) {
				nmems++
			}
		}
	}
	flat, mems := make([]planOp, 0, nops), make([]planMem, 0, nmems)

	// A bucket of the retire ring receives the writes of latency l issued l
	// beats before it, for every l: at most, for each latency, as many as any
	// one beat of the image issues with it.
	most, here := map[int64]int64{}, map[int64]int64{} // by latency: in any beat, in the beat in hand
	for a := range img.Instrs {
		in := &img.Instrs[a]
		pw := &p.words[a]
		ws := &p.slots[a]
		first := 0 // slots of the first beat
		for si := range in.Slots {
			if in.Slots[si].Beat&1 == 0 {
				first++
			}
		}
		n := len(flat)
		flat = flat[:n+len(in.Slots)]
		ws.beats[0], ws.beats[1] = flat[n:n:n+first], flat[n+first:n+first:n+len(in.Slots)]
		pw.mem = mems[len(mems):]
		for si := range in.Slots {
			s := &in.Slots[si]
			b := s.Beat & 1
			po := translate(a, s, &cfg)
			po.unitName = nameOf(s.Unit)
			p.maxLat = max(p.maxLat, po.lat)
			ws.beats[b] = append(ws.beats[b], po)
			ws.bulk[b].add(opBulk(&po))
			if prescanned(&s.Op) {
				pw.mem = append(pw.mem, planMem{addressOf(&s.Op), int64(b)})
			}
		}
		pw.mem = pw.mem[:len(pw.mem):len(pw.mem)]
		mems = mems[:len(mems)+len(pw.mem)]
		p.bytes += wordBytes + int64(len(in.Slots))*opBytes + int64(len(pw.mem))*memBytes
		ws.viol[0] = staticBeatViolation(in, cfg, 0)
		ws.viol[1] = staticBeatViolation(in, cfg, 1)
		for _, ops := range ws.beats {
			clear(here)
			for i := range ops {
				here[ops[i].lat]++
				most[ops[i].lat] = max(most[ops[i].lat], here[ops[i].lat])
			}
		}
	}
	for _, n := range most {
		p.ringCap += n
	}
	// Strictly more buckets than the longest latency, so a freshly issued
	// write can never alias a bucket that has not drained yet.
	p.ringSize = 2
	for p.ringSize <= p.maxLat {
		p.ringSize *= 2
	}
	return p
}

// What a word, a slot and a prescan entry of a plan cost, for Plan.Bytes.
const (
	wordBytes = int64(unsafe.Sizeof(planWord{}) + unsafe.Sizeof(wordSlots{}))
	opBytes   = int64(unsafe.Sizeof(planOp{}))
	memBytes  = int64(unsafe.Sizeof(planMem{}))
)

// prescanned reports whether o is a memory reference step's prescan asks about.
// A reference with no base operand has no address to translate or bank to stall
// on; it faults (or returns the §7 funny number) at execution.
func prescanned(o *mach.Op) bool {
	return isMemOp(o.Kind) && (o.A.IsImm || o.A.Reg.Valid())
}

// staticBeatViolation evaluates the §6 static resource plan for one beat of
// an instruction word: ALU slot uniqueness, register-file port limits, bus
// counts, and the one-reference-per-I-board rule. Any overflow is a
// compiler bug surfacing as a hardware fault. The rules and messages are
// the ones the dynamic checkBeatResources used to apply every beat; the
// result depends only on the word, so it is computed once here.
func staticBeatViolation(in *mach.Instr, cfg mach.Config, beat uint8) *resViol {
	// Per-beat unit occupancy: 5 units per pair, up to 4 pairs.
	var units [4 * 5]bool
	var reads [4]int       // register-file reads per board
	var memPerBoard [4]int // memory references per I board
	pa := 0
	for si := range in.Slots {
		s := &in.Slots[si]
		if s.Beat != beat {
			continue
		}
		if ui := unitIndex(s.Unit); ui >= 0 {
			if units[ui] {
				return &resViol{TrapResource, fmt.Sprintf("two ops on unit %s in one beat", s.Unit)}
			}
			units[ui] = true
		}
		board := int(s.Unit.Pair)
		if board >= len(reads) {
			continue // out-of-config slots fault as TrapBadOp at execution
		}
		for _, a := range []mach.Arg{s.Op.A, s.Op.B, s.Op.C} {
			if !a.IsImm && a.Reg.Valid() {
				reads[board]++
			}
		}
		if isMemOp(s.Op.Kind) {
			memPerBoard[board]++
			pa++
		}
	}
	for b, n := range reads {
		if n > cfg.RFReadPorts {
			return &resViol{TrapResource, fmt.Sprintf("board %d: %d register reads in one beat (max %d)", b, n, cfg.RFReadPorts)}
		}
	}
	for b, n := range memPerBoard {
		if n > 1 {
			return &resViol{TrapResource, fmt.Sprintf("board %d initiated %d memory references in one beat", b, n)}
		}
	}
	if pa > cfg.PABuses {
		return &resViol{TrapResource, fmt.Sprintf("%d physical-address bus uses in one beat (max %d)", pa, cfg.PABuses)}
	}
	return nil
}

// translate is the one translation a slot gets: the operation at slot s of word
// pc as a record, operands resolved (operandOf, addressOf), with the kind that
// keeps every guard. A non-branch slot is the two-operand form unless its
// opcode says otherwise; on a branch unit the condition or the indirect target
// is operand a, the multiway priority rides in k1's high half and the target in
// k2's low half. The result of a kind that leaves one is aimed at resultCell
// when there is a register to take it and at noDest when there is not.
func translate(pc int, s *mach.SlotOp, cfg *mach.Config) planOp {
	o := &s.Op
	// A zero latency retires at the next beat's drain, like 1.
	p := planOp{op: o, lat: max(int64(cfg.Latency(o.Kind, o.Type)), 1), dst: o.Dst, unit: s.Unit}
	res := uint16(noDest)
	if o.Dst.Valid() {
		res = resultCell
	}
	x, y := operandOf(o.A), operandOf(o.B)
	u := uop{kind: uBadOp, d: res, a: x.idx, b: y.idx, k1: x.k, k2: y.k}
	if s.Unit.Kind == mach.UBR {
		prio := uint64(uint32(o.Prio)) << 32
		u = uop{kind: uBadOp, a: x.idx, k1: x.k | prio, k2: uint64(uint32(o.Target))}
		p.dst = mach.PReg{}
		switch o.Kind {
		case mach.OpBrT, mach.OpJmp:
			switch {
			case o.Target < 0:
				u.kind = uNop // counted, and nowhere to go
			case o.Kind == mach.OpBrT:
				u.kind = uBrT
			default:
				u.kind = uJmp
			}
		case mach.OpCall:
			u.kind, u.d, u.k1 = uCall, resultCell, uint64(uint32(pc+1))|prio // the link address
			p.dst = mach.RegLR
		case mach.OpJmpR:
			u.kind = uJmpR
		case mach.OpHalt:
			u.kind = uHalt
		case mach.OpSyscall:
			u.kind = uSyscall
		}
		p.uop = u
		return p
	}
	switch v := mach.ValueOf(o.Kind); {
	case v != nil:
		// Div and Rem run the table's function behind the zero-divisor guard
		// until a certificate discharges it; an op with no destination is still
		// evaluated.
		if u.kind, p.fn = uValue, v.Fn; o.Kind == ir.Div || o.Kind == ir.Rem {
			u.kind = uDiv
		}
	case o.Kind == ir.ConstI && o.A.IsImm:
		u = uop{kind: uConst, d: res, k1: x.k}
	case o.Kind == ir.ConstI:
		u.kind = uConstI
	case o.Kind == ir.ConstF:
		u = uop{kind: uConst, d: res, k1: mach.FBits(o.FImm)}
	case o.Kind == ir.Mov, o.Kind == mach.OpMovSF:
		u.kind = uMov
	case o.Kind == ir.Select:
		// condition from the branch bank (A, read through op); B = then, C = else
		z := operandOf(o.C)
		u = uop{kind: uSelect, d: res, a: y.idx, b: z.idx, k1: y.k, k2: z.k}
	case o.Kind == ir.Load, o.Kind == ir.LoadSpec:
		ea := addressOf(o)
		u = uop{kind: uLoad, d: res, a: ea.a, b: ea.b, k1: uint64(ea.off)}
	case o.Kind == ir.Store:
		ea, z := addressOf(o), operandOf(o.C) // data comes from the store file (§6.2)
		u = uop{kind: uStore, d: z.idx, a: ea.a, b: ea.b, k1: uint64(ea.off), k2: z.k}
	case o.Kind == ir.Nop:
		u.kind = uNop
	}
	if u.kind == uStore || u.kind == uNop || u.kind == uBadOp {
		p.dst = mach.PReg{} // whatever the slot names, these leave no result
	}
	p.uop = u
	return p
}

// guardFree is the kind slot s runs as where a certificate proves it can never
// fault: the same record with the verdict on the address, or on the divisor,
// deleted, by access size so that nothing is left to branch on. ok is false for
// an operation with no guard, or with an access type the analysis never proves.
// If the image was mutated after certification, the Go runtime's own
// slice-bounds and divide checks are the backstop; slice converts that
// panic back into the matching Fault (safeTierFault).
func (s *planOp) guardFree() (kind uint8, ok bool) {
	switch t := s.op.Type; {
	case s.kind == uDiv:
		return uValue, true
	case s.kind == uLoad && t == ir.I32: // a LoadSpec too: the §7 funny-number path is dead
		return uLoad4, true
	case s.kind == uLoad && t == ir.F64:
		return uLoad8, true
	case s.kind == uStore && t == ir.I32:
		return uStore4, true
	case s.kind == uStore && t == ir.F64:
		return uStore8, true
	}
	return s.kind, false
}

// buildSafePlan derives the safe-tier execution plan from the base plan:
// every slot the certificate's bitmask covers gets its guard-free kind;
// everything else keeps the guarded one, so a partially-proven image simply
// keeps more of its guards. A beat list is copied when a slot of it changes
// (the base plan is shared by checked contexts and must stay pristine); the
// untouched lists, the mem prescan list and the static resource verdicts are
// shared. Regions copy a plan's records, so the derived plan starts with none
// of the base plan's.
func buildSafePlan(base *Plan, cert SafetyCertificate) *Plan {
	p := &Plan{img: base.img, code: base.code, base: base, cert: cert}
	p.slots = append([]wordSlots(nil), base.slots...)
	p.bytes = int64(len(p.slots)) * int64(unsafe.Sizeof(wordSlots{}))
	p.tables()
	p.decoded.Store(true)
	for a := range p.slots {
		ws := &p.slots[a]
		for b := range ws.beats {
			own := false
			for i := range ws.beats[b] {
				s := &ws.beats[b][i]
				if k, ok := s.guardFree(); ok && cert.SafeSite(a, s.unit, uint8(b)) {
					if !own {
						ws.beats[b], own = append([]planOp(nil), ws.beats[b]...), true
						p.bytes += int64(len(ws.beats[b])) * opBytes
					}
					ws.beats[b][i].kind = k
				}
			}
		}
	}
	return p
}

// unitIndex maps a functional unit to a dense per-pair index, or -1 when
// the unit names a pair or ALU slot no TRACE configuration has.
func unitIndex(u mach.Unit) int {
	if u.Pair >= 4 || (u.Kind == mach.UIALU && u.Idx > 1) {
		return -1
	}
	base := int(u.Pair) * 5
	switch u.Kind {
	case mach.UIALU:
		return base + int(u.Idx)
	case mach.UFA:
		return base + 2
	case mach.UFM:
		return base + 3
	case mach.UBR:
		return base + 4
	}
	return -1
}
