package vliw

import (
	"bytes"
	"fmt"

	"github.com/multiflow-repro/trace/internal/mach"
)

// DiffState compares everything Snapshot serializes, field by field, and
// names the first difference ("" when the two contexts hold identical
// execution state). The external tier-equivalence tests call it where a full
// Snapshot per comparison — a SHA-256 over the megabyte of data memory —
// would cost more than the runs being compared.
func DiffState(a, b *Context) string {
	switch {
	case a.asid != b.asid:
		return fmt.Sprintf("asid %d vs %d", a.asid, b.asid)
	case a.pc != b.pc:
		return fmt.Sprintf("pc %d vs %d", a.pc, b.pc)
	case a.beat != b.beat:
		return fmt.Sprintf("beat %d vs %d", a.beat, b.beat)
	case a.drained != b.drained || a.seq != b.seq:
		return fmt.Sprintf("write pipeline at drained=%d seq=%d vs drained=%d seq=%d", a.drained, a.seq, b.drained, b.seq)
	case a.halted != b.halted || a.exit != b.exit:
		return fmt.Sprintf("halted/exit %v/%d vs %v/%d", a.halted, a.exit, b.halted, b.exit)
	case a.bankBusy != b.bankBusy:
		return "bank-busy windows differ"
	case a.Stats != b.Stats:
		return fmt.Sprintf("stats differ:\n  %+v\n  %+v", a.Stats, b.Stats)
	case !bytes.Equal(a.mem, b.mem):
		return "data memory differs"
	case !bytes.Equal(a.out.Bytes(), b.out.Bytes()):
		return fmt.Sprintf("output %q vs %q", a.out.String(), b.out.String())
	}
	for i, v := range a.vals[:slotBase] {
		if v != b.vals[i] {
			return fmt.Sprintf("register %s: %#x vs %#x", mach.RegAt(i), v, b.vals[i])
		}
	}
	wa, wb := a.inFlight(), b.inFlight()
	if len(wa) != len(wb) {
		return fmt.Sprintf("%d vs %d writes in flight", len(wa), len(wb))
	}
	for i := range wa {
		x, y := wa[i], wb[i]
		// Snapshot writes an overdue entry's beat as it stands; seq itself is
		// not serialized, only the order it induces.
		if x.due != y.due || x.dst != y.dst || x.val != y.val || x.pc != y.pc {
			return fmt.Sprintf("in-flight write %d: {due %d %s=%#x word %d} vs {due %d %s=%#x word %d}",
				i, x.due, x.dst, x.val, x.pc, y.due, y.dst, y.val, y.pc)
		}
	}
	for i := range a.itags {
		if a.itags[i] != b.itags[i] || a.iasids[i] != b.iasids[i] {
			return fmt.Sprintf("icache line %d: word %d vs %d", i, a.itags[i], b.itags[i])
		}
	}
	for i := range a.dtlb {
		if a.dtlb[i] != b.dtlb[i] || a.dtlbAsids[i] != b.dtlbAsids[i] {
			return fmt.Sprintf("dTLB entry %d: page %d vs %d", i, a.dtlb[i], b.dtlb[i])
		}
		if a.itlb[i] != b.itlb[i] || a.itlbAsids[i] != b.itlbAsids[i] {
			return fmt.Sprintf("iTLB entry %d: page %d vs %d", i, a.itlb[i], b.itlb[i])
		}
	}
	return ""
}

// RegionsBuilt is how many regions the plan c runs — its image's base plan, or
// the certified copy — holds.
func RegionsBuilt(c *Context) int {
	c.plan.mu.Lock()
	defer c.plan.mu.Unlock()
	return c.plan.regions
}
