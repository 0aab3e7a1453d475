package safecheck

import (
	"math"
	"slices"

	"github.com/multiflow-repro/trace/internal/absval"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
)

// The analyzer: a forward abstract interpretation over the same machine-level
// CFG schedcheck certifies (schedcheck.CFG), one abstract state per block —
// a run of words each entered only by the plain fallthrough from the one
// before — and per edge that leaves one. The word transfer function is
// deliberately latency-free:
// on a schedcheck-clean image every read that could observe an in-flight
// write is an error-severity finding (stale read, retire race, inverted
// WAW), so for the images safecheck certifies — which must also hold a
// resource certificate — beat-0 reads see the word-entry state, beat-1 reads
// see beat-0 results, and successors see everything. Where the machine's
// timing is ambiguous inside one word (two writes to one register), the
// abstract write joins instead of overwriting. Images that violate those
// scheduling invariants simply cannot reach the safe tier: Certify requires
// the resource certificate first.

const (
	widenAt       = 8     // transfers of a component head before joins into it widen
	defaultBudget = 50000 // word-transfer cap before the analysis gives up
)

type analyzer struct {
	img    *isa.Image
	memLen int64
	src    schedcheck.SourceMap

	budget    int
	transfers int
	starved   bool // a word needed a transfer after the budget ran out
	names     *regNames
	pool      statePool
	plans     []wordPlan

	// The iteration (see fixpoint): the weak topological order, the blocks,
	// each word's in-edges, and what the ascending phase accumulates at
	// component heads.
	order  []int
	end    []int // end[i] > i: order[i] heads the component order[i:end[i]]; else i
	last   []int // the last word of the block w starts; -1: w is inside a block
	ins    [][]*edgePlan
	in     []*state
	visits []int
	dirty  []bool
	widen  bool
	boot   *state

	// Scratch reused by every transfer: the one wordOut the transfer function
	// runs in, the edge state a refining branch copies the out-state into,
	// the join of a word's in-edges, the entry state of a block's last word,
	// and small buffers.
	out    wordOut
	edgeSt *state
	joined *state
	lastIn *state
	writes []write
	seen   []bool
	queue  []clampItem
}

func (a *analyzer) argVal(s *state, arg mach.Arg) absval.Val {
	if arg.IsImm {
		return absval.Exact(int64(arg.Imm))
	}
	if !arg.Reg.Valid() {
		return absval.Exact(0) // readArg returns 0 for an unwired operand
	}
	switch arg.Reg.Bank {
	case mach.BankI:
		if ri, ok := a.names.ireg(arg.Reg); ok {
			return s.regs[ri]
		}
	case mach.BankB:
		return absval.Bool
	}
	return absval.Top // F/SF bits reinterpreted as i32: anything
}

func (a *analyzer) trackOperand(arg mach.Arg) (operand, bool) {
	if arg.IsImm {
		return operand{imm: true, val: int64(arg.Imm), reg: -1}, true
	}
	if arg.Reg.Valid() && arg.Reg.Bank == mach.BankI {
		if ri, ok := a.names.ireg(arg.Reg); ok {
			return operand{reg: int16(ri)}, true
		}
	}
	return operand{}, false
}

func (s *state) operandVal(o operand) absval.Val {
	if o.imm {
		// No int32 wrap: predicate shifting can push an immediate past the
		// int32 range ("i < 256" hoisted over i += 1 becomes "i < 257"
		// repeatedly), and the comparison math here is pure int64.
		return absval.Val{Lo: o.val, Hi: o.val, R: o.val}
	}
	return s.regs[o.reg]
}

// wordOut is the result of one word transfer: the out-state plus what the
// word wrote. The analyzer owns exactly one and every transfer reuses it.
type wordOut struct {
	st *state
	// wrote[ri] is 1+lastWriteBeat of the word's writes to I-register ri
	// (0: untouched). predBorn[bi] is 1+issueBeat of a predicate recorded
	// this word (0: inherited from the entry state). Together they decide
	// which predicates survive the word: a compare at beat b reads operand
	// values from before beat b, so any operand write at a beat >= b means
	// the recorded relation talks about stale values.
	wrote    []uint8
	predBorn [nBB]uint8
}

func (o *wordOut) dirty(ri int16) bool { return ri >= 0 && o.wrote[ri] > 0 }

// stillborn reports whether an operand of a compare issued at beat was
// rewritten at that beat: the compare read the old value, the state holds
// the new one, so the relation talks about a dead value.
func (o *wordOut) stillborn(p pred, beat uint8) bool {
	return (p.a.reg >= 0 && o.wrote[p.a.reg] == beat+1) || (p.b.reg >= 0 && o.wrote[p.b.reg] == beat+1)
}

type write struct {
	dst mach.PReg
	v   absval.Val
	op  *mach.Op
}

// xfer runs one word's transfer function from the entry state s0 into the
// analyzer's wordOut; s0 is left untouched unless it is the out-state itself,
// which a word inside a block runs from in place. When rep is non-nil it also
// emits the per-site safety verdicts (the final reporting sweep).
func (a *analyzer) xfer(w int, s0 *state, rep *Report) {
	a.transfers++
	out := &a.out
	st := out.st
	if s0 != st {
		st.copyFrom(s0)
	}
	clear(out.wrote)
	out.predBorn = [nBB]uint8{}
	writes := a.writes[:0]
	in := &a.img.Instrs[w]
	for beat := 0; beat < 2; beat++ {
		writes = writes[:0]
		for si := range in.Slots {
			s := &in.Slots[si]
			if int(s.Beat&1) != beat {
				continue
			}
			o := &s.Op
			if s.Unit.Kind == mach.UBR {
				switch o.Kind {
				case mach.OpCall:
					// link register receives the return address
					writes = append(writes, write{mach.RegLR, absval.Exact(int64(w + 1)), o})
				case mach.OpJmpR:
					if rep != nil {
						a.addJmpRSite(rep, w, s, st)
					}
				}
				continue
			}
			switch o.Kind {
			case ir.Nop:
			case ir.Load, ir.LoadSpec:
				if rep != nil {
					a.addMemSite(rep, w, s, st)
				}
				writes = append(writes, write{o.Dst, absval.Top, o})
			case ir.Store:
				if rep != nil {
					a.addMemSite(rep, w, s, st)
				}
			case ir.Div, ir.Rem:
				if rep != nil {
					a.addDivSite(rep, w, s, st)
				}
				writes = append(writes, write{o.Dst, a.evalOp(st, o), o})
			default:
				if o.Dst.Valid() {
					writes = append(writes, write{o.Dst, a.evalOp(st, o), o})
				}
			}
		}
		for i := range writes {
			a.applyWrite(out, &writes[i], uint8(beat))
		}
	}
	a.writes = writes[:0]
}

func (a *analyzer) applyWrite(out *wordOut, x *write, beat uint8) {
	st := out.st
	switch x.dst.Bank {
	case mach.BankI:
		ri, ok := a.names.ireg(x.dst)
		if !ok {
			return
		}
		// Relational bookkeeping, all against the pre-write state: does the
		// new value relate to the old one (r' = r + delta), and does it
		// relate exactly to some other live register?
		delta, affine := a.selfDelta(out, x.op, ri, beat)
		old := st.regs[ri]
		canShift := affine && out.wrote[ri] == 0 &&
			old.Lo+delta >= math.MinInt32 && old.Hi+delta <= math.MaxInt32
		newRel := a.eqRelFor(out, x.op, ri, beat)
		shiftPreds(out, ri, delta, canShift, beat)
		for c := range st.eq {
			if e := &st.eq[c]; e.ok && e.base == int16(ri) && c != ri {
				if canShift {
					// c == old_ri + d and new_ri == old_ri + delta, so
					// c == new_ri + (d - delta)
					e.delta -= delta
				} else {
					*e = rel{}
				}
			}
		}
		switch {
		case out.wrote[ri] == 0 && newRel.ok:
			st.eq[ri] = newRel
		case canShift && st.eq[ri].ok:
			// old_ri == base + d, new_ri == old_ri + delta
			st.eq[ri] = rel{ok: true, base: st.eq[ri].base, delta: st.eq[ri].delta + delta}
		default:
			st.eq[ri] = rel{}
		}
		// A compare retiring into the I-bank remembers its relation, with
		// the same stillborn and double-write rules as branch-bank bits.
		np := pred{}
		if out.wrote[ri] == 0 {
			np = a.predFor(x.op)
			if np.ok && (out.stillborn(np, beat) || np.a.reg == int16(ri) || np.b.reg == int16(ri)) {
				// operand rewritten this beat, or the compare overwrites its
				// own operand: the relation talks about a dead value
				np = pred{}
			}
		}
		st.ipred[ri] = np
		if out.wrote[ri] > 0 {
			// two retires into one register within one word: the winner
			// depends on latencies we do not model, so keep both
			st.regs[ri] = st.regs[ri].Join(x.v)
		} else {
			st.regs[ri] = x.v
		}
		out.wrote[ri] = beat + 1
	case mach.BankB:
		bi, ok := bbIndex(x.dst)
		if !ok {
			return
		}
		p := pred{}
		if out.predBorn[bi] == 0 { // double write: meaning ambiguous
			p = a.predFor(x.op)
		}
		if p.ok && out.stillborn(p, beat) {
			p = pred{}
		}
		// A bit testing a compare result held in the I-bank ("i = cmplt a, b;
		// bb = cmpeq i, #0") records the compare's own relation (here a >= b),
		// which outlives i: allocators reuse i as soon as the bit is written,
		// and the bit would then mean nothing.
		if p.ok && p.a.reg >= 0 && p.b.imm {
			if ip := st.ipred[p.a.reg]; ip.ok && !out.stillborn(ip, beat) {
				if w, known := boolTest(p.kind, p.b.val); known {
					if !w {
						ip.kind = absval.Negate(ip.kind)
					}
					p = ip
				}
			}
		}
		st.preds[bi] = p
		out.predBorn[bi] = beat + 1
	}
}

// shiftPreds keeps the recorded branch predicates consistent when one of
// their operand registers is overwritten. Schedulers routinely hoist the
// induction update above the exit branch (`i = i+1; ...; brT i<256`), so a
// plain invalidation would lose every loop bound. For an update that adds a
// known constant to the register's own old value (r = r ± imm directly, or
// via an affine copy — see selfDelta) and provably cannot wrap, the
// predicate's immediate side shifts by the delta ("old r < 256" becomes
// "new r < 257"). Otherwise, where another register still holds r's old value
// plus a constant d (an affine copy, st.eq) and the other side is a known
// constant, the predicate moves onto that register ("old r < n" becomes
// "c < n + d"): an allocator may reuse r in the very word that branches on
// it, once the incremented copy carries the count. Anything else invalidates
// the predicate.
func shiftPreds(out *wordOut, ri int, delta int64, canShift bool, beat uint8) {
	st := out.st
	rebase := func(p *pred) bool {
		own, other := &p.a, &p.b
		if p.b.reg == int16(ri) {
			own, other = &p.b, &p.a
		}
		if own.reg != int16(ri) || other.reg == int16(ri) {
			return false
		}
		k := other.val
		if !other.imm {
			v := st.regs[other.reg]
			if v.M != 0 {
				return false
			}
			k = v.R
		}
		for c := range st.eq {
			if e := st.eq[c]; e.ok && e.base == int16(ri) && c != ri {
				*own = operand{reg: int16(c)}
				*other = operand{imm: true, val: k + e.delta, reg: -1}
				return true
			}
		}
		return false
	}
	shift := func(p *pred) {
		switch {
		case canShift && p.a.reg == int16(ri) && p.b.imm:
			p.b.val += delta
		case canShift && p.b.reg == int16(ri) && p.a.imm:
			p.a.val += delta
		case !rebase(p):
			*p = pred{}
		}
	}
	for i := range st.preds {
		p := &st.preds[i]
		if !p.ok || (p.a.reg != int16(ri) && p.b.reg != int16(ri)) {
			continue
		}
		if out.predBorn[i] > beat+1 {
			continue // compare issued after this write: it read the new value
		}
		shift(p)
	}
	for i := range st.ipred {
		p := &st.ipred[i]
		if !p.ok || (p.a.reg != int16(ri) && p.b.reg != int16(ri)) {
			continue
		}
		if out.wrote[i] > beat+1 {
			continue // compare issued after this write: it read the new value
		}
		shift(p)
	}
}

// liveSrc resolves an operand to the I-register the op read, provided the
// register still holds that value (no write at this or a later beat).
func (a *analyzer) liveSrc(out *wordOut, arg mach.Arg, beat uint8) (int, bool) {
	if arg.IsImm || !arg.Reg.Valid() || arg.Reg.Bank != mach.BankI {
		return 0, false
	}
	j, ok := a.names.ireg(arg.Reg)
	if !ok || out.wrote[j] > beat {
		return 0, false
	}
	return j, true
}

// constArg resolves an operand the op read to a compile-time constant: an
// immediate, or an I-register whose abstract value is exact. The latter is
// what narrow machines produce — with too few immediate slots per word, the
// scheduler materializes strides and loop bounds into registers ("add i14,
// i22" where i22 always holds 1), and the affine bookkeeping must see
// through that or every rotated loop on such a machine loses its bound.
// The register must still hold the value the op read (no write at this or
// a later beat).
func (a *analyzer) constArg(out *wordOut, arg mach.Arg, beat uint8) (int64, bool) {
	if arg.IsImm {
		return int64(arg.Imm), true
	}
	if j, ok := a.liveSrc(out, arg, beat); ok {
		if v := out.st.regs[j]; v.M == 0 {
			return v.R, true
		}
	}
	return 0, false
}

// selfDelta recognizes writes whose new value equals the register's own old
// value plus a constant: directly (r = r ± imm), or through a recorded
// affine copy (r = mov r2 or r = r2 ± imm where r2 == r + d) — the shape
// rotated loops produce when the scheduler carries the incremented counter
// in a scratch register and copies it back. Source registers must still
// hold the value the op read (no write at this or a later beat).
func (a *analyzer) selfDelta(out *wordOut, o *mach.Op, ri int, beat uint8) (int64, bool) {
	if d, ok := a.affineDelta(out, o, ri, beat); ok {
		return d, true
	}
	st := out.st
	switch o.Kind {
	case ir.Mov:
		if o.Type == ir.F64 {
			return 0, false
		}
		if rs, ok := a.liveSrc(out, o.A, beat); ok {
			if d, ok := st.deltaTo(rs, ri); ok {
				return d, true
			}
		}
	case ir.Add:
		if rs, ok := a.liveSrc(out, o.A, beat); ok {
			if c, okc := a.constArg(out, o.B, beat); okc {
				if d, ok := st.deltaTo(rs, ri); ok {
					return d + c, true
				}
			}
		}
		if rs, ok := a.liveSrc(out, o.B, beat); ok {
			if c, okc := a.constArg(out, o.A, beat); okc {
				if d, ok := st.deltaTo(rs, ri); ok {
					return d + c, true
				}
			}
		}
	case ir.Sub:
		if rs, ok := a.liveSrc(out, o.A, beat); ok {
			if c, okc := a.constArg(out, o.B, beat); okc {
				if d, ok := st.deltaTo(rs, ri); ok {
					return d - c, true
				}
			}
		}
	}
	return 0, false
}

// deltaTo resolves value(rs) == value(ri) + d by walking parent links of
// the equality graph. The walk is hop-bounded (consistent cycles exist and
// are fine): every register has one parent, so a walk that has not met ri
// after one hop per register never will.
func (s *state) deltaTo(rs, ri int) (int64, bool) {
	d := int64(0)
	for hops := 0; hops < len(s.eq); hops++ {
		if rs == ri {
			return d, true
		}
		e := s.eq[rs]
		if !e.ok {
			return 0, false
		}
		d += e.delta
		rs = int(e.base)
	}
	return 0, false
}

// eqRelFor derives the written value's exact affine relation to another
// live register: reg-to-reg copies and reg ± imm where the add provably
// cannot wrap (otherwise the int64 equality would be false on the wrapped
// path). The relation is recorded against the source operand itself — NOT
// compressed through the source's own equality chain. Bases picked by
// compression depend on whatever relations happen to hold on the first
// visit (often an init-path artifact), and the accumulating fixpoint join
// permanently drops any relation that differs between two visits; operand
// bases are the ones the loop body recreates identically every iteration.
// Refinement walks the graph transitively instead (refineReg).
func (a *analyzer) eqRelFor(out *wordOut, o *mach.Op, ri int, beat uint8) rel {
	src := func(arg mach.Arg) (int, bool) {
		j, ok := a.liveSrc(out, arg, beat)
		return j, ok && j != ri
	}
	mkRel := func(rs int, imm int64) rel {
		v := out.st.regs[rs]
		if v.Lo+imm < math.MinInt32 || v.Hi+imm > math.MaxInt32 {
			return rel{} // the write may wrap: no exact int64 equality
		}
		return rel{ok: true, base: int16(rs), delta: imm}
	}
	switch o.Kind {
	case ir.Mov:
		if o.Type != ir.F64 {
			if rs, ok := src(o.A); ok {
				return mkRel(rs, 0)
			}
		}
	case ir.Add:
		if rs, ok := src(o.A); ok {
			if c, okc := a.constArg(out, o.B, beat); okc {
				return mkRel(rs, c)
			}
		}
		if rs, ok := src(o.B); ok {
			if c, okc := a.constArg(out, o.A, beat); okc {
				return mkRel(rs, c)
			}
		}
	case ir.Sub:
		if rs, ok := src(o.A); ok {
			if c, okc := a.constArg(out, o.B, beat); okc {
				return mkRel(rs, -c)
			}
		}
	}
	return rel{}
}

// affineDelta recognizes r' = r + delta updates of register ri.
func (a *analyzer) affineDelta(out *wordOut, o *mach.Op, ri int, beat uint8) (int64, bool) {
	regIs := func(arg mach.Arg) bool {
		if arg.IsImm || !arg.Reg.Valid() || arg.Reg.Bank != mach.BankI {
			return false
		}
		j, ok := a.names.ireg(arg.Reg)
		return ok && j == ri
	}
	switch o.Kind {
	case ir.Add:
		if regIs(o.A) {
			if c, ok := a.constArg(out, o.B, beat); ok {
				return c, true
			}
		}
		if regIs(o.B) {
			if c, ok := a.constArg(out, o.A, beat); ok {
				return c, true
			}
		}
	case ir.Sub:
		if regIs(o.A) {
			if c, ok := a.constArg(out, o.B, beat); ok {
				return -c, true
			}
		}
	}
	return 0, false
}

// predFor records the meaning of a compare writing the branch bank; any
// other producer leaves the bit opaque.
func (a *analyzer) predFor(o *mach.Op) pred {
	switch o.Kind {
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		pa, oka := a.trackOperand(o.A)
		pb, okb := a.trackOperand(o.B)
		if oka && okb {
			return pred{ok: true, kind: o.Kind, a: pa, b: pb}
		}
	}
	return pred{}
}

// evalOp abstracts one non-memory ALU op. Results destined for non-integer
// banks are discarded by applyWrite, so a float op may report Top.
func (a *analyzer) evalOp(st *state, o *mach.Op) absval.Val {
	k := o.Kind
	if k == mach.OpMovSF {
		k = ir.Mov
	}
	if k == ir.Mov && o.Type == ir.F64 {
		return absval.Top
	}
	return absval.Eval(k, a.argVal(st, o.A), a.argVal(st, o.B), a.argVal(st, o.C))
}

// wordPlan is the static branch structure of one word, derived once per
// image: its distinct in-image successors in CFG order and, per successor,
// what taking that edge says about the word's branch conditions.
type wordPlan struct {
	edges []edgePlan
	brs   []mach.Arg // conditions of the word's conditional branches, slot order
}

type edgePlan struct {
	to   int
	mode uint8
	arg  mach.Arg // edgeTaken: the condition that tested true
	st   *state   // what the edge carried at its source's last transfer; nil: nothing
}

const (
	edgePlain uint8 = iota // nothing known (several causes, or a return edge)
	edgeTaken              // sole cause: one conditional branch tested true
	edgeFall               // fallthrough: every branch test in the word was false
)

func (a *analyzer) planWord(w int, succ []int) wordPlan {
	var p wordPlan
	if len(succ) == 0 {
		return p
	}
	in := &a.img.Instrs[w]
	var brTargets, jumps []int // conditional targets; static always-taken targets (jmp, call)
	hasJmpR := false
	transfer := false
	for si := range in.Slots {
		s := &in.Slots[si]
		if s.Unit.Kind != mach.UBR {
			continue
		}
		switch s.Op.Kind {
		case mach.OpBrT:
			brTargets = append(brTargets, s.Op.Target)
			p.brs = append(p.brs, s.Op.A)
		case mach.OpJmp, mach.OpCall:
			transfer = true
			jumps = append(jumps, s.Op.Target)
		case mach.OpJmpR:
			transfer = true
			hasJmpR = true
		}
	}
	fallthru := -1
	if !transfer {
		fallthru = w + 1
	}
	for i, t := range succ {
		if slices.Contains(succ[:i], t) || t < 0 || t >= len(a.img.Instrs) {
			continue
		}
		e := edgePlan{to: t}
		if !hasJmpR { // jmpr targets are return sites; causes ambiguous
			brCount, brArg := 0, mach.Arg{}
			for bi, bt := range brTargets {
				if bt == t {
					brCount++
					brArg = p.brs[bi]
				}
			}
			otherCause := t == fallthru || slices.Contains(jumps, t)
			switch {
			case brCount == 1 && !otherCause:
				e.mode, e.arg = edgeTaken, brArg
			case brCount == 0 && t == fallthru && len(p.brs) > 0:
				e.mode = edgeFall
			}
		}
		p.edges = append(p.edges, e)
	}
	return p
}

// edges streams the out-edges of word w — whose transfer from s0 sits in
// a.out — to flow, with branch-predicate refinement applied; an edge the
// refinement proves dead passes nil. An edge that refines nothing passes the
// out-state itself; one that does passes the analyzer's edge scratch state.
// Either is only valid during the call. Refinement is valid only for
// registers the word itself did not write (their out-state value is the one
// the branch tested).
func (a *analyzer) edges(w int, s0 *state, flow func(e *edgePlan, st *state)) {
	p := &a.plans[w]
	for i := range p.edges {
		e := &p.edges[i]
		r := refiner{a: a, s0: s0, o: &a.out, st: a.out.st}
		live := true
		switch e.mode {
		case edgeTaken:
			live = r.cond(e.arg, true)
		case edgeFall:
			for _, arg := range p.brs {
				if !r.cond(arg, false) {
					live = false
					break
				}
			}
		}
		if !live {
			r.st = nil
		}
		flow(e, r.st)
	}
}

// refiner narrows one edge's state under what its branch conditions imply.
// st starts out as the word's out-state and is copied into the analyzer's
// edge scratch state by the first refinement that actually changes a
// register, so edges that refine nothing cost no copy.
type refiner struct {
	a  *analyzer
	s0 *state   // word-entry state: what the branches read
	o  *wordOut // the word's transfer
	st *state   // the edge state
}

func (r *refiner) setReg(ri int, v absval.Val) {
	if r.st.regs[ri] == v {
		return
	}
	if r.st == r.o.st {
		r.a.edgeSt.copyFrom(r.st)
		r.st = r.a.edgeSt
	}
	r.st.regs[ri] = v
}

// view is the state a predicate's operand values and relational facts are
// read from: the edge state itself, or — in clean-only mode — the entry
// state s0.
func (r *refiner) view(cleanOnly bool) *state {
	if cleanOnly {
		return r.s0
	}
	return r.st
}

// cond narrows the edge state under "this branch condition evaluated to
// want". The condition value was read at beat 0 of the word, i.e. against
// s0. Predicates come in two flavors of validity: the out-state predicate
// (kept aligned with the out-state register values by shiftPreds) refines
// freely, while a predicate only valid in s0 — the word rewrote the bit, or
// invalidated the out-state copy by overwriting an operand — still refines
// every register the word left untouched (clean-only mode: for those, the
// read-time value IS the out-state value). Reports false when the condition
// is infeasible — the edge is dead.
func (r *refiner) cond(arg mach.Arg, want bool) bool {
	if arg.IsImm {
		return (arg.Imm != 0) == want
	}
	if !arg.Reg.Valid() {
		return !want // unwired condition reads 0: never taken
	}
	switch arg.Reg.Bank {
	case mach.BankB:
		bi, ok := bbIndex(arg.Reg)
		if !ok {
			return true
		}
		if r.o.predBorn[bi] == 0 {
			if p := r.st.preds[bi]; p.ok {
				return r.pred(false, p, want, 0)
			}
		}
		// Rewritten bit (the branch read the OLD one — retires are
		// next-beat) or invalidated predicate: fall back to what the branch
		// actually read, clamping only clean registers.
		if p := r.s0.preds[bi]; p.ok {
			return r.pred(true, p, want, 0)
		}
		return true
	case mach.BankI:
		ri, ok := r.a.names.ireg(arg.Reg)
		if !ok {
			return true
		}
		if !r.o.dirty(int16(ri)) {
			if want {
				v, live := r.st.regs[ri].TrimNE(0)
				if !live {
					return false
				}
				r.setReg(ri, v)
			} else if !r.clampReg(int16(ri), 0, 0) {
				return false
			}
			// A compare result branched on directly: 0/1 value, so taken
			// means the compare held and fallthrough means its negation.
			if p := r.st.ipred[ri]; p.ok {
				return r.pred(false, p, want, 0)
			}
			return true
		}
		if p := r.s0.ipred[ri]; p.ok {
			return r.pred(true, p, want, 0)
		}
	}
	return true
}

// pred applies predicate p (negated when want is false) to the edge state.
// In clean-only mode operand values and nested facts come from s0 and clamps
// apply only to registers the word did not write.
func (r *refiner) pred(cleanOnly bool, p pred, want bool, depth int) bool {
	k := p.kind
	if !want {
		k = absval.Negate(k)
	}
	return r.cmp(cleanOnly, k, p.a, p.b, depth)
}

type clampItem struct {
	reg    int16
	lo, hi int64
}

// clampReg clamps one register to [lo, hi] and propagates the new bounds
// through the whole affine-equality graph (breadth-first over parent and
// child links, composing deltas — equalities are exact, so every hop
// transfers the clamp losslessly). Returns false when any intersection is
// empty — the refinement is infeasible and the edge it came from is dead.
func (r *refiner) clampReg(ri int16, lo, hi int64) bool {
	seen := r.a.seen
	clear(seen)
	queue := append(r.a.queue[:0], clampItem{ri, lo, hi})
	seen[ri] = true
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		v, ok := r.st.regs[it.reg].Clamp(it.lo, it.hi)
		if !ok {
			r.a.queue = queue
			return false
		}
		r.setReg(int(it.reg), v)
		eq := r.st.eq
		if e := eq[it.reg]; e.ok && !seen[e.base] {
			seen[e.base] = true
			queue = append(queue, clampItem{e.base, v.Lo - e.delta, v.Hi - e.delta})
		}
		for c := range eq {
			if ce := &eq[c]; ce.ok && ce.base == it.reg && !seen[c] {
				seen[c] = true
				queue = append(queue, clampItem{int16(c), v.Lo + ce.delta, v.Hi + ce.delta})
			}
		}
	}
	r.a.queue = queue // keep the grown buffer
	return true
}

// narrowOperand narrows op's register to n, the value absval.Narrow found
// for it, unless clean-only mode leaves a register the word wrote alone. A
// clamp propagates through the affine equalities; an NE trim does not.
func (r *refiner) narrowOperand(cleanOnly bool, op operand, n absval.Val, trim bool) bool {
	if op.reg < 0 || cleanOnly && r.o.dirty(op.reg) {
		return true
	}
	if !trim {
		return r.clampReg(op.reg, n.Lo, n.Hi)
	}
	v, ok := r.st.regs[op.reg].Clamp(n.Lo, n.Hi)
	if ok {
		r.setReg(int(op.reg), v)
	}
	return ok
}

// cmp narrows the operand registers under "kind(a, b) is true". Operand
// values and nested facts come from the view; clamps land in the edge state
// (identical unless clean-only mode fell back to the entry state). Returns
// false when the comparison is infeasible for the view ranges.
func (r *refiner) cmp(cleanOnly bool, k ir.OpKind, a, b operand, depth int) bool {
	view := r.view(cleanOnly)
	na, nb, ok := absval.Narrow(k, view.operandVal(a), view.operandVal(b), true)
	if !ok || !r.narrowOperand(cleanOnly, a, na, k == ir.CmpNE) || !r.narrowOperand(cleanOnly, b, nb, k == ir.CmpNE) {
		return false
	}
	// A compare result tested against a constant refines the compare's own
	// relation: "i = cmplt x, y; brT i == 0" means x >= y. The ipred being
	// live certifies the register holds exactly 0 or 1.
	if depth < 4 {
		if a.reg >= 0 && b.imm {
			if p := r.view(cleanOnly).ipred[a.reg]; p.ok {
				if w, known := boolTest(k, b.val); known {
					if !r.pred(cleanOnly, p, w, depth+1) {
						return false
					}
				}
			}
		}
		if b.reg >= 0 && a.imm {
			if p := r.view(cleanOnly).ipred[b.reg]; p.ok {
				if w, known := boolTest(flipCmp(k), a.val); known {
					if !r.pred(cleanOnly, p, w, depth+1) {
						return false
					}
				}
			}
		}
	}
	return true
}

// boolTest interprets "v k c is true" for a v known to be exactly 0 or 1:
// does it pin v's truth value?
func boolTest(k ir.OpKind, c int64) (val, known bool) {
	switch k {
	case ir.CmpEQ:
		if c == 0 || c == 1 {
			return c == 1, true
		}
	case ir.CmpNE:
		if c == 0 || c == 1 {
			return c == 0, true
		}
	case ir.CmpLT: // v < c
		if c == 1 {
			return false, true
		}
	case ir.CmpLE: // v <= c
		if c == 0 {
			return false, true
		}
	case ir.CmpGT: // v > c
		if c == 0 {
			return true, true
		}
	case ir.CmpGE: // v >= c
		if c == 1 {
			return true, true
		}
	}
	return false, false
}

// flipCmp rewrites "a k b" as "b flip(k) a".
func flipCmp(k ir.OpKind) ir.OpKind {
	switch k {
	case ir.CmpLT:
		return ir.CmpGT
	case ir.CmpLE:
		return ir.CmpGE
	case ir.CmpGT:
		return ir.CmpLT
	case ir.CmpGE:
		return ir.CmpLE
	}
	return k // EQ and NE are symmetric
}

// setBoot mirrors Context.boot(): every register is zero except SP, which
// points at the 8-aligned top of the program's RAM.
func (a *analyzer) setBoot(s *state) {
	for i := range s.regs {
		s.regs[i] = absval.Exact(0)
	}
	if ri, ok := a.names.ireg(mach.RegSP); ok {
		s.regs[ri] = absval.Exact(a.memLen &^ 7)
	}
	clear(s.eq)
	clear(s.ipred)
	s.preds = [nBB]pred{}
}

func (a *analyzer) funcOf(w int) string {
	for name, base := range a.img.FuncBase {
		if w >= base && w < base+a.img.FuncLen[name] {
			return name
		}
	}
	return ""
}

// run drives the fixpoint, then the reporting sweep mints per-site verdicts
// into rep; with no fixpoint to report from, every site is unproven.
func (a *analyzer) run(rep *Report) {
	if reason := a.fixpoint(rep); reason != "" {
		for w := range a.img.Instrs {
			a.sweep(rep, w, false, reason)
		}
		return
	}
	var s0 *state
	for w := range a.img.Instrs {
		if a.last[w] >= 0 {
			s0 = a.entry(w)
		}
		if s0 == nil {
			a.sweep(rep, w, true, "unreachable: no path executes this site")
			continue
		}
		a.xfer(w, s0, rep)
		s0 = a.out.st // the next word's entry, if it is inside this block
	}
}

// fixpoint runs one strategy for both phases (Bourdoncle, "Efficient chaotic
// iteration strategies with widenings", FMPA 1993): walk the weak topological
// order of the reachable words, stabilising each component until its head's
// entry state stops changing. A block is visited only when something one of
// its first word's in-edges carries has changed; it joins them, transfers
// each of its words once and pushes its last word's refined out-edges. The
// ascending phase accumulates each head's entry state, widening after
// widenAt transfers; the descending phase walks the same order, every head
// marked, until no state changes. Each descending
// step applies the transfer system to states that already cover every
// execution, so it is sound wherever the budget stops it; an ascending phase
// cut short is not, and gives up.
func (a *analyzer) fixpoint(rep *Report) (giveUp string) {
	n := len(a.img.Instrs)
	entry := a.img.Entry
	if n == 0 || entry < 0 || entry >= n {
		return "no entry point: analysis not run"
	}
	a.prepare()
	a.widen, a.dirty[entry] = true, true
	if a.stabilize(0, len(a.order)); a.starved {
		rep.Exhausted = true
		return "analysis budget exhausted: value ranges unavailable"
	}
	a.widen = false
	for i, end := range a.end {
		a.dirty[a.order[i]] = end > i
	}
	a.stabilize(0, len(a.order))
	return ""
}

// prepare builds what the iteration runs on, for an image with an entry
// point: the register names, the scratch states, the word plans and their
// in-edges, the weak topological order and the blocks.
func (a *analyzer) prepare() {
	n := len(a.img.Instrs)
	a.names = nameRegs(a.img.Instrs)
	a.pool.nr = a.names.n
	a.out.st, a.edgeSt, a.joined, a.lastIn, a.boot = a.pool.get(), a.pool.get(), a.pool.get(), a.pool.get(), a.pool.get()
	a.out.wrote, a.seen = make([]uint8, a.names.n), make([]bool, a.names.n)
	a.setBoot(a.boot)
	succ, _ := schedcheck.CFG(a.img)
	a.plans, a.ins = make([]wordPlan, n), make([][]*edgePlan, n)
	for w := range a.plans {
		a.plans[w] = a.planWord(w, succ[w])
		for i := range a.plans[w].edges {
			e := &a.plans[w].edges[i]
			a.ins[e.to] = append(a.ins[e.to], e)
		}
	}
	a.wto(a.img.Entry)
	a.blocks()
	a.in, a.visits, a.dirty = make([]*state, n), make([]int, n), make([]bool, n)
}

// wto computes the weak topological order of the words reachable from entry
// over the plan edges (Bourdoncle's algorithm): a.order lists them so that
// every edge runs forward except one into the head of a component that holds
// its source, and a.end marks the components. Every cycle passes through a
// head, so widening at heads alone makes the ascending phase terminate.
func (a *analyzer) wto(entry int) {
	dfn := make([]int, len(a.plans)) // 0: not yet seen; MaxInt: placed
	var stack, rev, begin []int      // rev: the order reversed; begin: where each entry's body starts in rev
	num := 0
	var visit func(v int) int
	visit = func(v int) int {
		stack = append(stack, v)
		num++
		dfn[v] = num
		head, loop := num, false
		for _, e := range a.plans[v].edges {
			low := dfn[e.to]
			if low == 0 {
				low = visit(e.to)
			}
			if low <= head {
				head, loop = low, true
			}
		}
		if head != dfn[v] {
			return head
		}
		for x := -1; x != v; { // v's component leaves the stack, to be numbered again
			x, stack = stack[len(stack)-1], stack[:len(stack)-1]
			dfn[x] = 0
		}
		dfn[v] = math.MaxInt
		b := len(rev) + 1 // a plain word: no body
		if loop {
			b = len(rev)
			for _, e := range a.plans[v].edges {
				if dfn[e.to] == 0 {
					visit(e.to)
				}
			}
		}
		rev, begin = append(rev, v), append(begin, b)
		return head
	}
	visit(entry)
	slices.Reverse(rev)
	slices.Reverse(begin)
	for p := range begin {
		begin[p] = len(rev) - begin[p]
	}
	a.order, a.end = rev, begin
}

// blocks sets a.last. A word is inside a block when its one in-edge is the
// plain edge that is the word before's one out-edge (a fallthrough, or a jump
// to the next word), and it is neither the image entry nor a component head:
// its entry state is then its predecessor's out-state. A block transfers word
// by word in place, so the fixpoint keeps states only on the edges leaving
// its last word.
func (a *analyzer) blocks() {
	head := make([]bool, len(a.plans))
	for i, end := range a.end {
		head[a.order[i]] = end > i
	}
	a.last = make([]int, len(a.plans))
	first := 0
	for w := range a.last {
		if w > 0 && w != a.img.Entry && !head[w] && len(a.ins[w]) == 1 {
			if p := a.plans[w-1].edges; len(p) == 1 && p[0].to == w && p[0].mode == edgePlain {
				a.last[w], a.last[first] = -1, w
				continue
			}
		}
		a.last[w], first = w, w
	}
}

// stabilize iterates the elements of order[lo:hi]: a plain word once, a
// component until its head's entry state stops changing. A word inside a
// block is never dirty: its block's first word transfers it.
func (a *analyzer) stabilize(lo, hi int) {
	for i := lo; i < hi && !a.starved; i++ {
		w, end := a.order[i], a.end[i]
		if end == i {
			a.visit(w, false)
			continue
		}
		for first := true; first || a.dirty[w] && !a.starved; first = false {
			a.visit(w, true)
			a.stabilize(i+1, end)
		}
		i = end - 1
	}
}

// visit recomputes the entry state of the block word w starts if one of its
// in-edges changed, transfers the block's words and records what each edge
// leaving the block carries now.
func (a *analyzer) visit(w int, head bool) {
	if !a.dirty[w] {
		return
	}
	if a.budget <= 0 {
		a.starved = true
		return
	}
	a.dirty[w] = false
	s0 := a.entry(w)
	if head && a.widen {
		switch in := a.in[w]; {
		case s0 == nil:
			return
		case in == nil:
			a.in[w] = a.pool.clone(s0)
		case !in.join(s0, a.visits[w] >= widenAt):
			return
		}
		a.visits[w]++
		s0 = a.in[w]
	}
	l := a.last[w]
	if s0 == nil {
		for i := range a.plans[l].edges {
			a.carry(&a.plans[l].edges[i], nil)
		}
		return
	}
	for ; w < l; w++ {
		a.budget--
		a.xfer(w, s0, nil)
		s0 = a.out.st
		if a.budget <= 0 {
			a.starved = true
			return
		}
	}
	a.budget--
	in := s0
	if s0 == a.out.st { // the edge refinements read the entry state
		in = a.lastIn
		in.copyFrom(s0)
	}
	a.xfer(l, s0, nil)
	a.edges(l, in, a.carry)
}

// carry records what edge e carries now (nil: nothing) and marks its target
// for a visit if that changed.
func (a *analyzer) carry(e *edgePlan, st *state) {
	switch {
	case st == nil && e.st == nil, st != nil && e.st != nil && e.st.equal(st):
		return
	case st == nil:
		a.pool.put(e.st)
		e.st = nil
	case e.st == nil:
		e.st = a.pool.clone(st)
	default:
		e.st.copyFrom(st)
	}
	a.dirty[e.to] = true
}

// entry is the join of what word w's in-edges carry, and of the boot state
// at the image entry; nil when nothing reaches w. A lone carrier is returned
// itself, a join lives in the analyzer's scratch state.
func (a *analyzer) entry(w int) *state {
	var s *state
	if w == a.img.Entry {
		s = a.boot
	}
	for _, e := range a.ins[w] {
		switch {
		case e.st == nil:
		case s == nil:
			s = e.st
		case s != a.joined:
			a.joined.copyFrom(s)
			s = a.joined
			fallthrough
		default:
			s.join(e.st, false)
		}
	}
	return s
}

// sweep emits every site of word w with one verdict: unproven where the
// fixpoint has no states, proven where no abstract path reaches w (the
// abstraction over-approximates the reachable states).
func (a *analyzer) sweep(rep *Report, w int, proven bool, reason string) {
	a.eachSite(w, func(s *mach.SlotOp) {
		rep.add(a.site(w, s, proven, reason))
	})
}

func (a *analyzer) eachSite(w int, f func(s *mach.SlotOp)) {
	in := a.img.Instrs[w]
	for si := range in.Slots {
		s := &in.Slots[si]
		switch {
		case s.Unit.Kind == mach.UBR:
			if s.Op.Kind == mach.OpJmpR {
				f(s)
			}
		case s.Op.Kind == ir.Load || s.Op.Kind == ir.LoadSpec || s.Op.Kind == ir.Store,
			s.Op.Kind == ir.Div || s.Op.Kind == ir.Rem:
			f(s)
		}
	}
}

func (a *analyzer) site(w int, s *mach.SlotOp, proven bool, detail string) Site {
	st := Site{
		Word:   w,
		Beat:   int(s.Beat),
		Unit:   s.Unit,
		Kind:   s.Op.Kind,
		Proven: proven,
		Detail: detail,
	}
	if a.src != nil {
		st.Func, st.Line = a.src(w, s.Unit, s.Beat)
	}
	if st.Func == "" {
		st.Func = a.funcOf(w)
	}
	return st
}
