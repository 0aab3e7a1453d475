package vliw

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file is the fast-path pre-decoder. The TRACE has no interlocks
// precisely so that nothing dynamic stands between the static plan and
// execution (§6); the simulator mirrors that by flattening every decoded
// instruction word into an execution plan once, at image load, instead of
// re-deriving it every beat:
//
//   - slots are split into per-beat lists, so the beat loop walks exactly
//     the operations that initiate, with no per-slot beat filtering;
//   - write latencies, which depend only on (opcode, type, Config), are
//     precomputed per slot, and so is each pure opcode's value function
//     (mach.ValueOf): the beat loop calls it, it does not re-derive it;
//   - the unit name used for fault attribution is rendered once per slot
//     instead of fmt.Sprintf-ing on every execution;
//   - memory references are collected into a prescan list with each
//     effective-address sum resolved to indexes of the value file (address),
//     so words with no references skip the TLB/bank-stall prescan entirely
//     and the rest re-decode no operand;
//   - the memory-bank geometry and the icache line index are resolved to
//     shifts and masks (bankGeom, itagMask), and the retire ring is sized
//     from the longest latency the image can issue;
//   - the §6 per-beat resource check (unit double-booking, register-file
//     read ports, one reference per I board, PA buses) is a function of the
//     instruction word alone, so it is evaluated once per word here and the
//     checked interpreter merely consults the precomputed verdict — the
//     per-beat map allocations of the old checkBeatResources disappear.
//
// The plan aliases the image's operations (planOp.op points into
// Img.Instrs); it snapshots structure, not values, and is rebuilt whenever
// Reset targets a different image. Every tier runs from a plan: the safe
// tier from a copy with proven sites re-dispatched (buildSafePlan), the
// native tier from that copy too, fusing the runs of words it arrives at
// repeatedly into regions as it goes (native.go).

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

	// The native tier's regions, by head word; nil until the tier is armed.
	// heat counts a word's arrivals by the per-word path up to regionHeat, and
	// regionWords is what the regions built so far hold against the budget.
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

// planOp is one pre-decoded slot operation. kind is the dispatch opcode the
// beat loop switches on: op.Kind for the structural operations (memory,
// moves, constants, select) and for a guarded Div/Rem, the synthetic opPure
// or opPureFlop for everything the shared value table computes, and — in
// the safe-tier plan (buildSafePlan) — a guard-free synthetic opcode at
// sites a SafetyCertificate proves can never fault.
type planOp struct {
	op       *mach.Op
	kind     ir.OpKind
	fn       func(a, b uint64) uint64 // the op's value semantics; nil unless mach.ValueOf(op.Kind) has them
	lat      int64                    // precomputed write latency in beats
	unitKind mach.UnitKind
	unitName string // precomputed fault attribution
}

// address is a memory operation's effective-address sum (Context.eaOf) with
// its operands resolved: the integers at two indexes of the value file plus a
// constant. An immediate operand is folded into the constant and reads the
// zero cell, so every shape of reference — register plus offset, register plus
// register, absolute — is the same two loads and two adds, with nothing to
// dispatch on. A reference with no base has no address: it computes 0.
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
// lists and the precomputed static resource verdicts.
type wordSlots struct {
	beats [2][]planOp
	viol  [2]*resViol
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
			kind, fn := planKind(s.Op.Kind)
			// A zero latency retires at the next beat's drain, like 1.
			lat := max(int64(cfg.Latency(s.Op.Kind, s.Op.Type)), 1)
			p.maxLat = max(p.maxLat, lat)
			ws.beats[b] = append(ws.beats[b], planOp{
				op:       &s.Op,
				kind:     kind,
				fn:       fn,
				lat:      lat,
				unitKind: s.Unit.Kind,
				unitName: nameOf(s.Unit),
			})
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

// Synthetic plan opcodes. They exist only inside execution plans
// (planOp.kind) — never in a mach.Op. opPure and opPureFlop dispatch every
// opcode of the shared value table through planOp.fn, so the beat loop has
// one case for all of them and a new pure opcode needs no edit here. The
// opSafe* block names the guard-free variant of a guarded memory operation,
// specialized by access type so the beat loop pays no per-op size/type
// branch either; a proven Div/Rem is simply opPure. The block sits above
// every ir and mach opcode (those stay below 128; see the init check below).
const (
	opPure        ir.OpKind = 128 + iota // dst = fn(A, B)
	opPureFlop                           // the same, counted in Stats.FloatOps
	opSafeLoadI32                        // a proven Load or LoadSpec: for the latter the §7 funny-number path is dead
	opSafeLoadF64
	opSafeStoreI32
	opSafeStoreF64
)

func init() {
	// mach appends its opcodes after the IR range at 64; both must stay
	// below the plan-private block.
	if mach.OpHalt >= opPure {
		panic("vliw: machine opcode range collides with plan opcodes")
	}
}

// planKind resolves an opcode's dispatch kind and value function once, at
// plan build. Div and Rem keep their own kind: they run the table's function
// behind the zero-divisor guard until a certificate discharges it.
func planKind(k ir.OpKind) (ir.OpKind, func(a, b uint64) uint64) {
	v := mach.ValueOf(k)
	switch {
	case v == nil:
		return k, nil
	case k == ir.Div || k == ir.Rem:
		return k, v.Fn
	case v.Flop:
		return opPureFlop, v.Fn
	}
	return opPure, v.Fn
}

// safeKind returns the guard-free synthetic opcode for a guarded operation,
// or ok=false when the operation has no safe variant (or an access type the
// analysis never proves).
func safeKind(o *mach.Op) (ir.OpKind, bool) {
	switch o.Kind {
	case ir.Load, ir.LoadSpec:
		switch o.Type {
		case ir.I32:
			return opSafeLoadI32, true
		case ir.F64:
			return opSafeLoadF64, true
		}
	case ir.Store:
		switch o.Type {
		case ir.I32:
			return opSafeStoreI32, true
		case ir.F64:
			return opSafeStoreF64, true
		}
	case ir.Div, ir.Rem:
		return opPure, true
	}
	return 0, false
}

// buildSafePlan derives the safe-tier execution plan from the base plan:
// every slot the certificate's bitmask covers is re-dispatched to its
// guard-free synthetic opcode; everything else keeps the checked opcode, so
// a partially-proven image simply keeps more of its guards. A beat list is
// copied when a slot of it changes (the base plan is shared by checked
// contexts and must stay pristine); the untouched lists, the mem prescan
// list and the static resource verdicts are shared.
//
// The walk mirrors buildPlan's slot order exactly, which is what lets it
// recover each planOp's (unit, beat) identity — the key the certificate's
// per-site bitmask is indexed by.
func buildSafePlan(img *isa.Image, base *plan, cert SafetyCertificate) *plan {
	p := new(plan)
	*p = *base
	p.words = append([]planWord(nil), base.words...)
	p.slots = append([]wordSlots(nil), base.slots...)
	for a := range img.Instrs {
		in := &img.Instrs[a]
		ws := &p.slots[a]
		var idx [2]int
		var own [2]bool
		for si := range in.Slots {
			s := &in.Slots[si]
			b := s.Beat & 1
			i := idx[b]
			idx[b]++
			if k, ok := safeKind(&s.Op); ok && cert.SafeSite(a, s.Unit, s.Beat) {
				if !own[b] {
					ws.beats[b], own[b] = append([]planOp(nil), ws.beats[b]...), true
				}
				ws.beats[b][i].kind = k
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
