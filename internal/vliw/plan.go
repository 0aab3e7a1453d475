package vliw

import (
	"fmt"

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
// The plan resolves the image's operations as they stand when it is built: an
// image is immutable once a machine is Reset onto it (the mutation tests
// corrupt theirs before New). The plan is rebuilt whenever Reset targets a
// different image. Every tier runs from a plan — the safe and native tiers from
// a copy whose proven sites carry their guard-free kinds (buildSafePlan) — and
// fuses the runs of words it arrives at repeatedly into regions of that plan as
// it goes (native.go).

// plan is one image's pre-decoded form plus the constants every tier's step
// shares.
type plan struct {
	words    []planWord  // the prescan list of every word
	slots    []wordSlots // what the interpreter executes, word for word
	geom     bankGeom
	icache   int   // ICacheInstrs: the lines of the instruction cache
	itagMask int   // icache-1 when that is a power of two, else -1
	maxLat   int64 // longest write latency the image can issue, in beats
	ringSize int64 // retire-ring buckets: the power of two above maxLat
	ringCap  int64 // writes one beat can retire: over the latencies, the most any beat issues of each

	// The plan's regions, by head word: heat counts a word's arrivals by the
	// per-word path up to regionHeat, and regionWords is what the regions built
	// so far hold against the budget.
	heads       []*region
	heat        []uint8
	regions     int
	regionWords int
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
func buildPlan(img *isa.Image) *plan {
	cfg := img.Cfg
	p := &plan{
		words:    make([]planWord, len(img.Instrs)),
		slots:    make([]wordSlots, len(img.Instrs)),
		geom:     geomOf(&img.Cfg),
		icache:   cfg.ICacheInstrs,
		itagMask: -1,
		maxLat:   1,
		heads:    make([]*region, len(img.Instrs)),
		heat:     make([]uint8, len(img.Instrs)),
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

	// A bucket of the retire ring receives the writes of latency l issued l
	// beats before it, for every l: at most, for each latency, as many as any
	// one beat of the image issues with it.
	most, here := map[int64]int64{}, map[int64]int64{} // by latency: in any beat, in the beat in hand
	for a := range img.Instrs {
		in := &img.Instrs[a]
		pw := &p.words[a]
		ws := &p.slots[a]
		for si := range in.Slots {
			s := &in.Slots[si]
			b := s.Beat & 1
			po := translate(a, s, &cfg)
			po.unitName = nameOf(s.Unit)
			p.maxLat = max(p.maxLat, po.lat)
			ws.beats[b] = append(ws.beats[b], po)
			ws.bulk[b].add(opBulk(&po))
			// A reference with no base operand has no address to translate or
			// bank to stall on; it faults (or returns the §7 funny number) at
			// execution.
			if isMemOp(s.Op.Kind) && (s.Op.A.IsImm || s.Op.A.Reg.Valid()) {
				pw.mem = append(pw.mem, planMem{addressOf(&s.Op), int64(b)})
			}
		}
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
func buildSafePlan(base *plan, cert SafetyCertificate) *plan {
	p := new(plan)
	*p = *base
	p.slots = append([]wordSlots(nil), base.slots...)
	p.heads, p.heat = make([]*region, len(p.words)), make([]uint8, len(p.words))
	p.regions, p.regionWords = 0, 0
	for a := range p.slots {
		ws := &p.slots[a]
		for b := range ws.beats {
			own := false
			for i := range ws.beats[b] {
				s := &ws.beats[b][i]
				if k, ok := s.guardFree(); ok && cert.SafeSite(a, s.unit, uint8(b)) {
					if !own {
						ws.beats[b], own = append([]planOp(nil), ws.beats[b]...), true
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
