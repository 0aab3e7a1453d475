package schedcheck

import (
	"math/bits"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// The in-flight-write dataflow. For every physical register the analysis
// tracks two facts across the reconstructed CFG:
//
//   - must-defined: has every path from the entry written it at least
//     once? Intersected at joins. Boot defines only the call-convention
//     registers (stack pointer and link register).
//
//   - may-pending: the set of beats, relative to the current word's early
//     beat, at which a previously issued pipeline write may still retire.
//     Unioned at joins: a hazard on any incoming path is a hazard.
//
// Retirement semantics mirror the hardware (§6.2, vliw.Machine.land): a
// write issued at beat b with latency L retires at the *start* of beat
// b+L, so a read at beat b+L observes the new value and a read at any
// earlier beat observes the old one. A pending bit at offset p is
// therefore live for a read at beat r iff p > r.
//
// Checks:
//
//   - stale-read: a read at beat r of a register with a pending write
//     retiring after r. On the real machine the op consumes the old value;
//     the scheduler's latency tables guarantee this never happens in
//     correct output, including along off-trace paths (the allocator's
//     conflict windows extend a definition's interference over its whole
//     flight on every path).
//
//   - write-race: two writes to one register retiring in the same beat on
//     some path — the register's final value is undefined (the simulator's
//     TrapWriteRace, but proven over all paths).
//
//   - waw-overlap: two writes to one register in flight simultaneously.
//     When the later-issued write also retires later, the overlap is legal
//     and the compiler routinely emits it (an FDIV's 26-beat flight often
//     overlaps a short rewrite of its own destination register; stalls
//     freeze every pipeline uniformly, so the retire order is stable) —
//     reported as a warning. When the retires are *inverted* — an
//     earlier-issued write lands after a later one — the stale value
//     clobbers the newer one on the interlock-free hardware, which is an
//     error.
//
//   - undef-read: a read of a register that some path reaches without any
//     write. The register file is zero-initialized in the simulator, but
//     nothing in the architecture promises that; correct compiler output
//     explicitly materializes every value it consumes.
//
//   - fu-occupancy (warning): an op issued on a multiplier while an FDIV
//     occupies it, or on an I ALU while an iterative divide occupies it.
//     The scheduler tracks occupancy per trace, so cross-trace overlaps
//     can occur in otherwise legal images; the hardware consequence is a
//     wrong result only if the unit is genuinely shared, which the
//     simulator does not model — hence warning severity.
//
// Interprocedural edges are precise because the stitcher drains all
// in-flight state across call and return boundaries: CALL edges flow into
// the callee entry, JMPR edges flow to every return site, and the
// must-defined set flows through the callee (callers' definitions survive
// a call; callee definitions accumulate).
type absState struct {
	def  [(maxRegs + 63) / 64]uint64 // must-defined bitset
	pend map[int]uint64              // reg index -> pending retire-offset mask
	// Functional-unit occupancy, in beats past this word's early beat.
	fmBusy   [4]int16    // FDIV holds the pair's multiplier
	ialuBusy [4][2]int16 // iterative divide holds its I ALU
}

func newState() *absState {
	return &absState{pend: map[int]uint64{}}
}

func (s *absState) clone() *absState {
	n := &absState{def: s.def, pend: make(map[int]uint64, len(s.pend)),
		fmBusy: s.fmBusy, ialuBusy: s.ialuBusy}
	for k, v := range s.pend {
		n.pend[k] = v
	}
	return n
}

// join merges src into dst (dst is the accumulated in-state of a word):
// definitions intersect, pending writes and occupancy union. Returns
// whether dst changed, for the fixpoint worklist.
func (s *absState) join(src *absState) bool {
	changed := false
	for i := range s.def {
		if old := s.def[i]; old&src.def[i] != old {
			s.def[i] &= src.def[i]
			changed = true
		}
	}
	for k, v := range src.pend {
		if old := s.pend[k]; old|v != old {
			s.pend[k] = old | v
			changed = true
		}
	}
	for p := range s.fmBusy {
		if src.fmBusy[p] > s.fmBusy[p] {
			s.fmBusy[p] = src.fmBusy[p]
			changed = true
		}
		for i := range s.ialuBusy[p] {
			if src.ialuBusy[p][i] > s.ialuBusy[p][i] {
				s.ialuBusy[p][i] = src.ialuBusy[p][i]
				changed = true
			}
		}
	}
	return changed
}

func (s *absState) defined(idx int) bool { return s.def[idx/64]&(1<<(idx%64)) != 0 }
func (s *absState) define(idx int)       { s.def[idx/64] |= 1 << (idx % 64) }

// flow runs the fixpoint and then a reporting pass over the converged
// states. Findings are only recorded once the states are final, so partial
// must-defined information never produces spurious reports.
func (c *checker) flow() {
	n := len(c.img.Instrs)
	if n == 0 || c.img.Entry < 0 || c.img.Entry >= n {
		return
	}
	in := make([]*absState, n)
	boot := newState()
	// The boot sequence reaches the entry point through the call
	// convention: the loader sets the stack pointer, and the link register
	// holds the (never-used) boot return address — main's prologue saves
	// it like any other function's.
	boot.define(regIndex(mach.RegSP))
	boot.define(regIndex(mach.RegLR))
	in[c.img.Entry] = boot

	work := []int{c.img.Entry}
	inWork := make([]bool, n)
	inWork[c.img.Entry] = true
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		inWork[a] = false
		out := c.stepWord(a, in[a].clone(), false)
		for _, t := range c.succ[a] {
			if t < 0 || t >= n {
				continue
			}
			if in[t] == nil {
				in[t] = out.clone()
			} else if !in[t].join(out) {
				continue
			}
			if !inWork[t] {
				inWork[t] = true
				work = append(work, t)
			}
		}
	}

	for a := 0; a < n; a++ {
		if c.reachable[a] && in[a] != nil {
			c.stepWord(a, in[a].clone(), true)
		}
	}
}

// pendingAlive masks the pending bits still in flight during beat `beat`
// (bits at offsets <= beat have already retired).
func pendingAlive(mask uint64, beat int) uint64 {
	return mask &^ ((1 << (beat + 1)) - 1)
}

// stepWord transfers the state across one instruction word, reporting the
// dataflow findings when rec is set. st is consumed.
func (c *checker) stepWord(a int, st *absState, rec bool) *absState {
	in := &c.img.Instrs[a]

	type issued struct {
		idx    int
		retire int
		reg    mach.PReg
		beat   int
		unit   mach.Unit
	}
	var newWrites []issued

	for beat := 0; beat < 2; beat++ {
		for si := range in.Slots {
			s := &in.Slots[si]
			if int(s.Beat) != beat || s.Op.Kind == ir.Nop {
				continue
			}
			// Reads first: at issue, the op observes the register file
			// after this beat's retirements and before its own write.
			for _, r := range readRegs(&s.Op) {
				idx := regIndex(r)
				if idx < 0 {
					continue
				}
				if alive := pendingAlive(st.pend[idx], beat); alive != 0 && rec {
					c.report(CheckStaleRead, Error, a, beat, s.Unit, true, r.String(),
						"%s reads %s %d beat(s) before its pending write retires",
						mach.OpName(s.Op.Kind), r, bits.TrailingZeros64(alive)-beat)
				}
				// Writes issued in earlier beats of this word are also
				// still in flight (min latency 1 keeps same-beat writes
				// invisible to their own beat).
				if rec {
					for _, w := range newWrites {
						// Same-beat writes are invisible to this read (the
						// operand is fetched at issue): only earlier-beat
						// writes of this word can shadow it.
						if w.idx == idx && w.beat < beat && w.retire > beat {
							c.report(CheckStaleRead, Error, a, beat, s.Unit, true, r.String(),
								"%s reads %s, written in beat %d of the same word with latency %d",
								mach.OpName(s.Op.Kind), r, w.beat, w.retire-w.beat)
						}
					}
				}
				defined := st.defined(idx)
				for _, w := range newWrites {
					if w.idx == idx && w.beat < beat {
						defined = true
					}
				}
				if !defined && rec {
					c.report(CheckUndefRead, Error, a, beat, s.Unit, true, "undef-"+r.String(),
						"%s reads %s, which no path has defined", mach.OpName(s.Op.Kind), r)
				}
			}

			// Functional-unit occupancy (warnings).
			if rec {
				switch s.Unit.Kind {
				case mach.UFM:
					if int(st.fmBusy[s.Unit.Pair]) > beat {
						c.report(CheckFUOccupancy, Warn, a, beat, s.Unit, true, "fm",
							"%s issues on %s while an FDIV occupies the multiplier for %d more beat(s)",
							mach.OpName(s.Op.Kind), s.Unit, int(st.fmBusy[s.Unit.Pair])-beat)
					}
				case mach.UIALU:
					if int(st.ialuBusy[s.Unit.Pair][s.Unit.Idx]) > beat {
						c.report(CheckFUOccupancy, Warn, a, beat, s.Unit, true, "ialu",
							"%s issues on %s while an iterative divide occupies it for %d more beat(s)",
							mach.OpName(s.Op.Kind), s.Unit, int(st.ialuBusy[s.Unit.Pair][s.Unit.Idx])-beat)
					}
				}
			}
			switch s.Op.Kind {
			case ir.FDiv:
				if b := int16(beat + c.cfg.LatFDiv); b > st.fmBusy[s.Unit.Pair] {
					st.fmBusy[s.Unit.Pair] = b
				}
			case ir.Div, ir.Rem:
				if s.Unit.Kind == mach.UIALU {
					if b := int16(beat + writeLatency(c.cfg, &s.Op)); b > st.ialuBusy[s.Unit.Pair][s.Unit.Idx] {
						st.ialuBusy[s.Unit.Pair][s.Unit.Idx] = b
					}
				}
			}

			// The op's own write.
			if !s.Op.Dst.Valid() {
				continue
			}
			idx := regIndex(s.Op.Dst)
			if idx < 0 {
				continue
			}
			retire := beat + writeLatency(c.cfg, &s.Op)
			if rec {
				if alive := pendingAlive(st.pend[idx], beat); alive != 0 {
					if alive&(1<<retire) != 0 {
						c.report(CheckWriteRace, Error, a, beat, s.Unit, true, "race-"+s.Op.Dst.String(),
							"%s writes %s retiring at beat +%d, the same beat as a write already in flight",
							mach.OpName(s.Op.Kind), s.Op.Dst, retire)
					} else if hi := 63 - bits.LeadingZeros64(alive); hi > retire {
						c.report(CheckWAWOverlap, Error, a, beat, s.Unit, true, "waw-"+s.Op.Dst.String(),
							"%s writes %s retiring at beat +%d, but an earlier write retires at +%d and will clobber it",
							mach.OpName(s.Op.Kind), s.Op.Dst, retire, hi)
					} else {
						c.report(CheckWAWOverlap, Warn, a, beat, s.Unit, true, "waw-"+s.Op.Dst.String(),
							"%s writes %s while another write to it is in flight (retires +%d, pending retires +%d)",
							mach.OpName(s.Op.Kind), s.Op.Dst, retire, bits.TrailingZeros64(alive))
					}
				}
				for _, w := range newWrites {
					if w.idx != idx {
						continue
					}
					if w.retire == retire {
						c.report(CheckWriteRace, Error, a, beat, s.Unit, true, "race-"+s.Op.Dst.String(),
							"%s and the %s op in beat %d both write %s retiring at beat +%d",
							mach.OpName(s.Op.Kind), w.unit, w.beat, s.Op.Dst, retire)
					} else if w.retire > retire {
						c.report(CheckWAWOverlap, Error, a, beat, s.Unit, true, "waw-"+s.Op.Dst.String(),
							"%s writes %s retiring at beat +%d, but the %s op's write retires at +%d and will clobber it",
							mach.OpName(s.Op.Kind), s.Op.Dst, retire, w.unit, w.retire)
					} else {
						c.report(CheckWAWOverlap, Warn, a, beat, s.Unit, true, "waw-"+s.Op.Dst.String(),
							"%s writes %s while the %s op's write is still in flight",
							mach.OpName(s.Op.Kind), s.Op.Dst, w.unit)
					}
				}
			}
			newWrites = append(newWrites, issued{idx: idx, retire: retire, reg: s.Op.Dst, beat: beat, unit: s.Unit})
		}
	}

	// Output state: merge the new writes, advance two beats.
	for _, w := range newWrites {
		st.define(w.idx)
		st.pend[w.idx] |= 1 << w.retire
	}
	for idx, mask := range st.pend {
		mask >>= 2
		mask &^= 1 // offset 0 retires before the successor's early reads
		if mask == 0 {
			delete(st.pend, idx)
		} else {
			st.pend[idx] = mask
		}
	}
	for p := range st.fmBusy {
		if st.fmBusy[p] -= 2; st.fmBusy[p] < 0 {
			st.fmBusy[p] = 0
		}
		for i := range st.ialuBusy[p] {
			if st.ialuBusy[p][i] -= 2; st.ialuBusy[p][i] < 0 {
				st.ialuBusy[p][i] = 0
			}
		}
	}
	return st
}
