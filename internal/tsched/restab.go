package tsched

import "github.com/multiflow-repro/trace/internal/mach"

// resTable is the compiler's resource reservation table: the machine has no
// interlocks and no arbitration, so the compiler owns every shared resource
// in every beat and this table is where it keeps the books. One row per
// absolute beat (instruction k covers beats 2k and 2k+1), grown on demand;
// a row holds every per-beat resource of the whole machine as bitmasks and
// small counters, because the key space is tiny — at most 4 board pairs ×
// a handful of units, ports and buses.
type resTable struct {
	rows []beatRes
}

// beatRes is one beat's worth of reservations.
type beatRes struct {
	units uint32    // functional-unit issue slots taken, one bit per unit (unitBit)
	mem   uint8     // per pair: a memory reference issues this beat (one per I board)
	imm   uint8     // per pair: the shared 32-bit immediate word of this beat is taken
	rd    [4]uint16 // register-file reads, per board
	wr    [4]uint16 // register-file writes landing, per board
	bus   [4]uint16 // uses per bus kind (busILoad, busFLoad, busStore, busPA)
}

var noRes beatRes

// unitBit is the unit's bit in beatRes.units. F units and the branch unit
// issue once per instruction, always in the early beat, so their slot lives
// in the row of beat 2k.
func unitBit(u mach.Unit) uint32 {
	return 1 << ((uint(u.Kind)-1)*8 + uint(u.Pair)*2 + uint(u.Idx))
}

// at returns the row of a beat for reading; beats past the end of the table
// hold no reservations.
func (t *resTable) at(beat int) *beatRes {
	if beat < len(t.rows) {
		return &t.rows[beat]
	}
	return &noRes
}

// row returns the row of a beat for writing, growing the table to hold it.
func (t *resTable) row(beat int) *beatRes {
	for len(t.rows) <= beat {
		t.rows = append(t.rows, beatRes{})
	}
	return &t.rows[beat]
}
