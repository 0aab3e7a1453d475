package tsched

import (
	"github.com/multiflow-repro/trace/internal/alias"
	"github.com/multiflow-repro/trace/internal/mach"
)

// resTable is the compiler's resource reservation table: the machine has no
// interlocks and no arbitration, so the compiler owns every shared resource
// in every beat and this table is where it keeps the books. One row per
// absolute beat (instruction k covers beats 2k and 2k+1), grown on demand;
// a row counts the uses of every per-beat resource of the whole machine,
// because the key space is tiny — at most 4 board pairs × a handful of
// units, ports and buses. Beside the rows sit the books that are not per
// beat: the iterative dividers' holds and the memory references keeping
// banks busy.
type resTable struct {
	rows []beatRes
	// limit is what each slot of a row holds: one unit issue, memory
	// reference or immediate word, and the machine's ports and buses.
	limit beatRes
	// fdiv[pair] is the first beat at which the pair's multiplier/divider
	// accepts a new op again (the iterative divide occupies it for whole
	// instructions).
	fdiv [maxBoards]int
	// idiv[pair] is the first beat at which an iterative divide may take one
	// of the pair's I ALUs: with other pairs to move work to, one divide at a
	// time per pair, so the other ALU is left for the copies.
	idiv [maxBoards]int
	refs []memRef // scheduled memory references
}

// beatRes is one beat's worth of reservations: the uses of each resource
// slot, which a claim holds to the slot's capacity.
type beatRes [numSlots]uint8

// The slots of a row, each a run of one per unit, pair, board or bus kind.
const (
	slotUnit  = 0                        // a functional unit's issue slot (unitSlot)
	slotMem   = slotUnit + 4*2*maxBoards // per pair: a memory reference issues (one per I board)
	slotImm   = slotMem + maxBoards      // per pair: the shared 32-bit immediate word
	slotRead  = slotImm + maxBoards      // per board: register-file reads
	slotWrite = slotRead + maxBoards     // per board: register-file writes landing
	slotBus   = slotWrite + maxBoards    // per bus kind (busILoad, busFLoad, busStore, busPA)
	numSlots  = slotBus + 4
)

type memRef struct {
	ref       alias.Ref
	issueBeat int
}

// unitSlot is the unit's slot in a row. F units and the branch unit issue
// once per instruction, always in the early beat, so their slot lives in the
// row of beat 2k.
func unitSlot(u mach.Unit) uint8 {
	return slotUnit + (uint8(u.Kind)-1)*2*maxBoards + u.Pair*2 + u.Idx
}

// newResTable returns empty books for machine cfg.
func newResTable(cfg *mach.Config) resTable {
	var t resTable
	for i := range t.limit {
		t.limit[i] = 1
	}
	for b := range maxBoards {
		t.limit[slotRead+b] = capacity(cfg.RFReadPorts)
		t.limit[slotWrite+b] = capacity(cfg.RFWritePorts)
	}
	t.limit[slotBus+busILoad] = capacity(cfg.ILoadBuses)
	t.limit[slotBus+busFLoad] = capacity(cfg.FLoadBuses)
	t.limit[slotBus+busStore] = capacity(cfg.StoreBuses)
	t.limit[slotBus+busPA] = capacity(cfg.PABuses)
	return t
}

// capacity is a configured count of ports or buses as a slot's limit. No
// beat issues enough ops to use 255 of anything, so a larger count holds
// like 255 does.
func capacity(n int) uint8 { return uint8(min(max(n, 0), 255)) }

// reset empties the books for the next trace, keeping their storage.
func (t *resTable) reset() {
	*t = resTable{rows: t.rows[:0], limit: t.limit, refs: t.refs[:0]}
}

// row returns the row of a beat, growing the table to hold it.
func (t *resTable) row(beat int) *beatRes {
	for len(t.rows) <= beat {
		t.rows = append(t.rows, beatRes{})
	}
	return &t.rows[beat]
}

// A claim is n uses of one slot in each of beats rows from beat, which fit
// while the slot's count stays within its limit.
type claim struct {
	slot        uint8
	beat, beats int
	n           int
}
