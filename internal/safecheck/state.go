package safecheck

import (
	"slices"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

const (
	nIRegs = 4 * 64 // I-register name space: board*64+idx
	nBB    = 4 * 8  // branch-bank predicates: board*8+idx
)

// operand is one side of a recorded branch predicate: an immediate or an
// I-register (compact index, see regNames).
type operand struct {
	val int64
	reg int16
	imm bool
}

// pred records what a branch-bank bit means: "kind(a, b) held when this bit
// was written, and neither a nor b has been overwritten since". The compare
// is re-evaluated symbolically at branch edges to refine operand ranges.
type pred struct {
	ok   bool
	kind ir.OpKind // CmpEQ..CmpGE
	a, b operand
}

// rel records an exact affine equality between two live registers:
// value(reg) == value(base) + delta, right now. Rotated loops carry the
// incremented induction variable in a different register than the one the
// exit test constrains ("i1.14 = i1.11 + 1; ...; brT i1.11 < n"), so a
// pure interval domain loses every loop bound; these equalities let a
// branch refinement on one register propagate to its affine copies.
type rel struct {
	ok    bool
	base  int16
	delta int64
}

// regNames maps the I-registers an image names (as a destination or an
// operand of any op, plus SP and LR) to dense indices, ascending in board*64+
// idx so every scan over "all registers" visits them in the order a scan
// over the full name space would. A register the image never names is never
// written, so it holds its boot value forever and nothing reads it: leaving
// it out of the state is exact, and the state arrays shrink from 256 entries
// to the 60–160 real programs use.
type regNames struct {
	slot [nIRegs]int16 // board*64+idx -> dense index, -1 when unnamed
	n    int
}

func nameRegs(instrs []mach.Instr) *regNames {
	var named [nIRegs]bool
	mark := func(r mach.PReg) {
		if r.Bank == mach.BankI && int(r.Board) < 4 && int(r.Idx) < 64 {
			named[int(r.Board)*64+int(r.Idx)] = true
		}
	}
	mark(mach.RegSP)
	mark(mach.RegLR)
	for w := range instrs {
		for si := range instrs[w].Slots {
			o := &instrs[w].Slots[si].Op
			mark(o.Dst)
			for _, arg := range [...]*mach.Arg{&o.A, &o.B, &o.C} {
				if !arg.IsImm {
					mark(arg.Reg)
				}
			}
		}
	}
	rn := &regNames{}
	for i := range named {
		rn.slot[i] = -1
		if named[i] {
			rn.slot[i] = int16(rn.n)
			rn.n++
		}
	}
	return rn
}

// ireg returns the dense state index of an I-bank register.
func (rn *regNames) ireg(r mach.PReg) (int, bool) {
	if int(r.Board) >= 4 || int(r.Idx) >= 64 {
		return 0, false
	}
	i := rn.slot[int(r.Board)*64+int(r.Idx)]
	return int(i), i >= 0
}

func bbIndex(r mach.PReg) (int, bool) {
	if int(r.Board) >= 4 || int(r.Idx) >= 8 {
		return 0, false
	}
	return int(r.Board)*8 + int(r.Idx), true
}

// state is the abstract machine state at a word boundary, over the named
// registers only. States are owned by the analyzer: each lives in pooled
// storage, is written in place, and is passed by pointer.
//
// ipred mirrors preds for integer registers: compilers route branch
// conditions through the I-bank ("i = cmplt a, b; bb = cmpeq i, #0"), so a
// register written by a compare remembers the relation it tested; refining
// "i == 0" then refines a and b. An ok ipred also certifies the register's
// value is exactly 0 or 1.
//
// A predicate or equality that is not ok is always the zero value, so
// "same fact on both sides" is plain ==.
type state struct {
	regs  []Val
	eq    []rel
	ipred []pred
	preds [nBB]pred
}

func (s *state) copyFrom(o *state) {
	copy(s.regs, o.regs)
	copy(s.eq, o.eq)
	copy(s.ipred, o.ipred)
	s.preds = o.preds
}

func (s *state) equal(o *state) bool {
	return slices.Equal(s.regs, o.regs) && slices.Equal(s.eq, o.eq) &&
		slices.Equal(s.ipred, o.ipred) && s.preds == o.preds
}

// join merges src into the word-entry state s and reports whether s changed:
// register values join in the lattice; predicates and affine equalities
// survive only when both sides agree exactly (an equality that holds on every
// incoming path still holds after the join). With widen set, every register
// the join moved is widened against its previous value — predicates and
// equalities are exact relational facts independent of the interval bounds,
// so they carry over untouched. (Widening an unmoved register is the
// identity, so "moved registers only" is the whole-state widening.)
func (s *state) join(src *state, widen bool) bool {
	changed := false
	for i, old := range s.regs {
		if old == src.regs[i] {
			continue // Join is idempotent on normalized values
		}
		v := old.Join(src.regs[i])
		if v == old {
			continue
		}
		if widen {
			v = v.Widen(old)
		}
		s.regs[i] = v
		changed = true
	}
	for i := range s.preds {
		if s.preds[i].ok && s.preds[i] != src.preds[i] {
			s.preds[i] = pred{}
			changed = true
		}
	}
	for i := range s.eq {
		if s.eq[i].ok && s.eq[i] != src.eq[i] {
			s.eq[i] = rel{}
			changed = true
		}
	}
	for i := range s.ipred {
		if s.ipred[i].ok && s.ipred[i] != src.ipred[i] {
			s.ipred[i] = pred{}
			changed = true
		}
	}
	return changed
}

// statePool hands out states of one analysis. Storage is carved from slabs
// of poolChunk states, and released states are reused, so an analysis
// allocates O(reachable words × named registers) however many sweeps it
// runs.
type statePool struct {
	nr   int
	free []*state
}

const poolChunk = 32

func (p *statePool) get() *state {
	if len(p.free) == 0 {
		regs := make([]Val, poolChunk*p.nr)
		eq := make([]rel, poolChunk*p.nr)
		ipred := make([]pred, poolChunk*p.nr)
		sts := make([]state, poolChunk)
		for i := range sts {
			lo, hi := i*p.nr, (i+1)*p.nr
			sts[i] = state{regs: regs[lo:hi:hi], eq: eq[lo:hi:hi], ipred: ipred[lo:hi:hi]}
			p.free = append(p.free, &sts[i])
		}
	}
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return s
}

// clone returns a pooled copy of src.
func (p *statePool) clone(src *state) *state {
	s := p.get()
	s.copyFrom(src)
	return s
}

func (p *statePool) put(s *state) { p.free = append(p.free, s) }
