package safecheck

import (
	"math"
	"slices"
	"sort"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
)

// The analyzer: a forward abstract interpretation over the same machine-level
// CFG schedcheck certifies (schedcheck.CFG), one abstract state per
// instruction word. The word transfer function is deliberately latency-free:
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
	widenAt       = 8     // joins at one word before widening kicks in
	narrowRounds  = 64    // descending-sweep cap after the ascending fixpoint
	defaultBudget = 50000 // word-transfer cap before the analysis gives up
)

type analyzer struct {
	img    *isa.Image
	succ   [][]int
	memLen int64
	src    schedcheck.SourceMap
	fnames []string
	fbases []int

	budget    int
	transfers int

	names *regNames
	pool  statePool
	plans []wordPlan

	// Scratch reused by every transfer: the one wordOut the transfer function
	// runs in, the edge state a refining branch copies the out-state into,
	// the entry-state snapshot self-looping words need, and small buffers.
	out    wordOut
	edgeSt *state
	s0Copy *state
	writes []write
	seen   []bool
	queue  []clampItem
}

func (a *analyzer) argVal(s *state, arg mach.Arg) Val {
	if arg.IsImm {
		return Exact(int64(arg.Imm))
	}
	if !arg.Reg.Valid() {
		return Exact(0) // readArg returns 0 for an unwired operand
	}
	switch arg.Reg.Bank {
	case mach.BankI:
		if ri, ok := a.names.ireg(arg.Reg); ok {
			return s.regs[ri]
		}
	case mach.BankB:
		return val01
	}
	return Top // F/SF bits reinterpreted as i32: anything
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

func (s *state) operandVal(o operand) Val {
	if o.imm {
		// No int32 wrap: predicate shifting can push an immediate past the
		// int32 range ("i < 256" hoisted over i += 1 becomes "i < 257"
		// repeatedly), and the comparison math here is pure int64.
		return Val{o.val, o.val, 0, o.val}
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
	v   Val
	op  *mach.Op
}

// xfer runs one word's transfer function from the entry state s0 (left
// untouched) into the analyzer's wordOut. When rep is non-nil it also emits
// the per-site safety verdicts (the final reporting sweep).
func (a *analyzer) xfer(w int, s0 *state, rep *Report) {
	a.transfers++
	out := &a.out
	st := out.st
	st.copyFrom(s0)
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
					writes = append(writes, write{mach.RegLR, Exact(int64(w + 1)), o})
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
				writes = append(writes, write{o.Dst, Top, o})
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
						ip.kind = negateCmp(ip.kind)
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

// evalOp abstracts one non-memory ALU op, mirroring exec.go's wrapping i32
// semantics. Results destined for non-integer banks are discarded by
// applyWrite, so float ops may safely report Top.
func (a *analyzer) evalOp(st *state, o *mach.Op) Val {
	va, vb := a.argVal(st, o.A), a.argVal(st, o.B)
	switch o.Kind {
	case ir.ConstI:
		return va
	case ir.Mov, mach.OpMovSF:
		if o.Type == ir.F64 {
			return Top
		}
		return va
	case ir.Add:
		return va.Add(vb)
	case ir.Sub:
		return va.Sub(vb)
	case ir.Mul:
		return va.Mul(vb)
	case ir.Div:
		return va.Div(vb)
	case ir.Rem:
		return va.Rem(vb)
	case ir.And:
		return va.And(vb)
	case ir.Or:
		return va.Or(vb)
	case ir.Xor:
		return va.Xor(vb)
	case ir.Shl:
		return va.Shl(vb)
	case ir.Shr:
		return va.Shr(vb)
	case ir.Sra:
		return va.Sra(vb)
	case ir.Neg:
		return va.Neg()
	case ir.Not:
		return va.Not()
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.FCmpEQ, ir.FCmpNE, ir.FCmpLT, ir.FCmpLE, ir.FCmpGT, ir.FCmpGE:
		return val01
	case ir.Select:
		return vb.Join(a.argVal(st, o.C))
	}
	return Top
}

// wordPlan is the static branch structure of one word, derived once per
// image: its distinct in-image successors in CFG order and, per successor,
// what taking that edge says about the word's branch conditions.
type wordPlan struct {
	edges []edgePlan
	brs   []mach.Arg // conditions of the word's conditional branches, slot order
	self  bool       // the word is its own successor
}

type edgePlan struct {
	to   int
	mode uint8
	arg  mach.Arg // edgeTaken: the condition that tested true
}

const (
	edgePlain uint8 = iota // nothing known (several causes, or a return edge)
	edgeTaken              // sole cause: one conditional branch tested true
	edgeFall               // fallthrough: every branch test in the word was false
)

func (a *analyzer) planWord(w int) wordPlan {
	succ := a.succ[w]
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
		p.self = p.self || t == w
		p.edges = append(p.edges, e)
	}
	return p
}

// edges streams the live out-edges of word w — whose transfer from s0 sits
// in a.out — to flow, with branch-predicate refinement applied. An edge that
// refines nothing passes the out-state itself; one that does passes the
// analyzer's edge scratch state. Either is only valid during the call.
// Refinement is valid only for registers the word itself did not write
// (their out-state value is the one the branch tested).
func (a *analyzer) edges(w int, s0 *state, flow func(t int, st *state)) {
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
		if live {
			flow(e.to, r.st)
		}
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

func (r *refiner) setReg(ri int, v Val) {
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
				v, live := r.st.regs[ri].trimNE(0)
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
		k = negateCmp(k)
	}
	return r.cmp(cleanOnly, k, p.a, p.b, depth)
}

func negateCmp(k ir.OpKind) ir.OpKind {
	switch k {
	case ir.CmpEQ:
		return ir.CmpNE
	case ir.CmpNE:
		return ir.CmpEQ
	case ir.CmpLT:
		return ir.CmpGE
	case ir.CmpGE:
		return ir.CmpLT
	case ir.CmpLE:
		return ir.CmpGT
	case ir.CmpGT:
		return ir.CmpLE
	}
	return k
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

// clampOperand applies "op lies in [lo, hi]", given the value v the compare
// read: infeasible at read time proves the edge dead even when the clamp
// itself is skipped for dirtiness.
func (r *refiner) clampOperand(cleanOnly bool, op operand, v Val, lo, hi int64) bool {
	if _, ok := v.Clamp(lo, hi); !ok {
		return false
	}
	if op.reg >= 0 && (!cleanOnly || !r.o.dirty(op.reg)) {
		return r.clampReg(op.reg, lo, hi)
	}
	return true
}

// trimOperand applies "op != c": an endpoint trim, not a clamp, so it skips
// equality propagation.
func (r *refiner) trimOperand(cleanOnly bool, op operand, v Val, c int64) bool {
	nv, ok := v.trimNE(c)
	if !ok {
		return false
	}
	if op.reg >= 0 && (!cleanOnly || !r.o.dirty(op.reg)) {
		tv, tok := r.st.regs[op.reg].Clamp(nv.Lo, nv.Hi)
		if !tok {
			return false
		}
		r.setReg(int(op.reg), tv)
	}
	return true
}

// cmp narrows the operand registers under "kind(a, b) is true". Operand
// values and nested facts come from the view; clamps land in the edge state
// (identical unless clean-only mode fell back to the entry state). Returns
// false when the comparison is infeasible for the view ranges.
func (r *refiner) cmp(cleanOnly bool, k ir.OpKind, a, b operand, depth int) bool {
	view := r.view(cleanOnly)
	va, vb := view.operandVal(a), view.operandVal(b)
	const lo, hi = math.MinInt32, math.MaxInt32
	// Clamp targets, computed against the original operand values.
	var loA, hiA, loB, hiB int64
	switch k {
	case ir.CmpEQ:
		loA, hiA, loB, hiB = vb.Lo, vb.Hi, va.Lo, va.Hi
	case ir.CmpNE:
		if vb.IsExact() && !r.trimOperand(cleanOnly, a, va, vb.R) {
			return false
		}
		if va.IsExact() && !r.trimOperand(cleanOnly, b, vb, va.R) {
			return false
		}
	case ir.CmpLT:
		loA, hiA, loB, hiB = lo, vb.Hi-1, va.Lo+1, hi
	case ir.CmpLE:
		loA, hiA, loB, hiB = lo, vb.Hi, va.Lo, hi
	case ir.CmpGT:
		loA, hiA, loB, hiB = vb.Lo+1, hi, lo, va.Hi-1
	case ir.CmpGE:
		loA, hiA, loB, hiB = vb.Lo, hi, lo, va.Hi
	default:
		return true
	}
	if k != ir.CmpNE {
		if !r.clampOperand(cleanOnly, a, va, loA, hiA) || !r.clampOperand(cleanOnly, b, vb, loB, hiB) {
			return false
		}
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
		s.regs[i] = Exact(0)
	}
	if ri, ok := a.names.ireg(mach.RegSP); ok {
		s.regs[ri] = Exact(a.memLen &^ 7)
	}
	clear(s.eq)
	clear(s.ipred)
	s.preds = [nBB]pred{}
}

func (a *analyzer) funcOf(w int) string {
	i := sort.SearchInts(a.fbases, w+1) - 1
	if i < 0 {
		return ""
	}
	name := a.fnames[i]
	if w < a.fbases[i]+a.img.FuncLen[name] {
		return name
	}
	return ""
}

// run drives the fixpoint: ascending worklist with widening, then a bounded
// number of descending sweeps (one parallel application of the transfer
// function each — monotone, so the result stays above the least fixpoint),
// then the reporting sweep that mints per-site verdicts into rep.
func (a *analyzer) run(rep *Report) {
	n := len(a.img.Instrs)
	entry := a.img.Entry
	if n == 0 || entry < 0 || entry >= n {
		a.sweepUnproven(rep, "no entry point: analysis not run")
		return
	}

	a.names = nameRegs(a.img.Instrs)
	nr := a.names.n
	a.pool.nr = nr
	a.out.st = a.pool.get()
	a.out.wrote = make([]uint8, nr)
	a.edgeSt, a.s0Copy = a.pool.get(), a.pool.get()
	a.seen = make([]bool, nr)
	a.plans = make([]wordPlan, n)
	preds := make([][]int, n)
	for w := range a.plans {
		a.plans[w] = a.planWord(w)
		for i := range a.plans[w].edges {
			t := a.plans[w].edges[i].to
			preds[t] = append(preds[t], w)
		}
	}

	// in[w] is the entry state of word w, nil until some path reaches it.
	in := make([]*state, n)
	joins := make([]int, n)
	inWork := make([]bool, n)
	work := []int{entry}
	in[entry] = a.pool.get()
	a.setBoot(in[entry])
	inWork[entry] = true

	ascend := func(t int, st *state) {
		if in[t] == nil {
			in[t] = a.pool.clone(st)
		} else {
			if !in[t].join(st, joins[t]+1 > widenAt) {
				return
			}
			joins[t]++
		}
		if !inWork[t] {
			inWork[t] = true
			work = append(work, t)
		}
	}
	for len(work) > 0 {
		if a.budget <= 0 {
			rep.Exhausted = true
			a.sweepUnproven(rep, "analysis budget exhausted: value ranges unavailable")
			return
		}
		w := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[w] = false
		s0 := in[w]
		if a.plans[w].self {
			// the self-edge joins into in[w] while later edges still refine
			// against the entry state this transfer started from
			a.s0Copy.copyFrom(s0)
			s0 = a.s0Copy
		}
		a.budget--
		a.xfer(w, s0, nil)
		a.edges(w, s0, ascend)
	}

	// Descending sweeps: recompute entry states from scratch as the join of
	// their (refined) incoming edges, recovering the precision the widening
	// threw away. Each sweep reads only the previous iterate and is
	// independently sound (it applies one parallel step of the sound
	// transfer system to a superset of the reachable states), so iterating
	// until the states stop changing — bounded by narrowRounds and the
	// transfer budget — is safe and lets a narrowed loop bound propagate
	// through arbitrarily long loop bodies.
	//
	// The sweeps are incremental. The new entry state of t is a function of
	// the previous states of t's predecessors alone, so it can differ from
	// the current one only if a predecessor's state changed in the previous
	// round. A round therefore recomputes just those targets — transferring
	// each of their predecessors once, in word order, exactly as a full sweep
	// would — and every other word keeps its state. The first round starts
	// from "every reachable word changed", which makes it a full sweep: a
	// reachable word other than the entry is some reachable word's successor.
	// The sequence of iterates is the full Jacobi sweep's; converged regions
	// simply stop being re-swept. A round is still charged to the
	// budget at the full sweep's price, one unit per reachable word, so where
	// the budget cuts narrowing short — and with it every verdict — does not
	// depend on how little of the sweep had to be executed.
	nin := make([]*state, n)
	recompute := make([]bool, n) // targets whose entry state is rebuilt this round
	source := make([]bool, n)    // words with a successor being rebuilt
	var changed []int            // words whose entry state the previous round changed
	for w := range in {
		if in[w] != nil {
			changed = append(changed, w)
		}
	}
	descend := func(t int, st *state) {
		if !recompute[t] {
			return
		}
		if nin[t] == nil {
			nin[t] = a.pool.clone(st)
		} else {
			nin[t].join(st, false)
		}
	}
	for round := 0; round < narrowRounds; round++ {
		if a.budget <= 0 {
			break // keep the last iterate: still sound, just less precise
		}
		rep.NarrowRounds++
		clear(recompute)
		clear(source)
		for _, w := range changed {
			for i := range a.plans[w].edges {
				recompute[a.plans[w].edges[i].to] = true
			}
		}
		for t, re := range recompute {
			if re {
				for _, p := range preds[t] {
					source[p] = true
				}
			}
		}
		if recompute[entry] {
			nin[entry] = a.pool.get()
			a.setBoot(nin[entry])
		}
		for w := 0; w < n; w++ {
			if in[w] == nil {
				continue
			}
			a.budget--
			if source[w] {
				a.xfer(w, in[w], nil)
				a.edges(w, in[w], descend)
			}
		}
		changed = changed[:0]
		for t, re := range recompute {
			if !re {
				continue
			}
			next := nin[t]
			nin[t] = nil
			switch {
			case next != nil && in[t] != nil && next.equal(in[t]):
				a.pool.put(next)
				continue
			case next == nil && in[t] == nil:
				continue
			}
			if in[t] != nil {
				a.pool.put(in[t])
			}
			in[t] = next
			changed = append(changed, t)
		}
		if len(changed) == 0 {
			break
		}
	}

	// Reporting sweep.
	for w := 0; w < n; w++ {
		if in[w] != nil {
			a.xfer(w, in[w], rep)
		} else {
			a.wordUnreachable(rep, w)
		}
	}
}

// sweepUnproven emits every site as unproven with a blanket reason (budget
// exhaustion, missing entry) — the sound answer when no fixpoint exists.
func (a *analyzer) sweepUnproven(rep *Report, reason string) {
	for w := range a.img.Instrs {
		a.eachSite(w, func(s *mach.SlotOp) {
			rep.add(a.site(w, s, false, reason))
		})
	}
}

// wordUnreachable emits the sites of a word no abstract path reaches. The
// abstraction over-approximates reachable concrete states, so these sites
// provably never execute — trivially safe.
func (a *analyzer) wordUnreachable(rep *Report, w int) {
	a.eachSite(w, func(s *mach.SlotOp) {
		rep.add(a.site(w, s, true, "unreachable: no path executes this site"))
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
