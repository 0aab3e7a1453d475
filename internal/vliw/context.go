package vliw

import (
	"bytes"
	"sort"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// A Context is the architectural state of one hardware context: everything
// the §8.1 process model says belongs to a *program* rather than to the
// machine. The TRACE argument is that context switching is cheap because
// this state is small and bank-organized; the simulator makes the same
// split literal. The Machine owns the microarchitecture — configuration, the
// DMA engine, instrumentation hooks, and the context scheduler — the image's
// Plan what is a function of the image alone, and each Context owns:
//
//   - the partitioned register banks (I, F, store-file, branch-bank) as one
//     value file, the PC, and the in-flight register-write pipeline (§6.2
//     carries destinations forward in hardware; the retire ring is that
//     pipeline);
//   - its own address space: a private RAM image, data/instruction TLBs,
//     and instruction-cache tags. The real machine shares one tagged cache
//     and one RAM; the simulator gives each context a private view, which
//     is the limit case of perfect tagging ("no purging is necessary",
//     §6.1) and keeps a context's behavior bit-identical whether it runs
//     alone or time-shared — the property the isolation suite asserts;
//   - a virtual clock (beat) that advances only while the context
//     executes, so its Stats are those of an undisturbed solo run;
//   - its banked Stats. While a context is current the machine accumulates
//     into Machine.Stats (the hottest writes in the beat loop); the
//     scheduler banks them back on every rotation and at retirement.
//
// Context values are created and pooled by their Machine (Reset and
// ResetMany); they are not constructed directly.
type Context struct {
	id   int
	img  *isa.Image
	plan *Plan // the one the context runs: its image's base plan, or the certified copy a certificate armed
	tier Tier  // raised by the Use*Certificate calls; Reset returns it to checked
	asid uint8

	pc   int
	beat int64 // virtual clock: beats this context has executed

	// The write pipeline: in-flight register writes bucketed by retire beat
	// (beat & rmask), so a beat drains only the bucket that is due. The
	// buckets are fixed-capacity runs of one flat array with a count each;
	// the plan sizes the ring above the image's longest latency, which keeps
	// a fresh write out of any bucket that has not drained yet, and a bucket
	// at what the image can retire in one beat (ringCap).
	ring    []ringWrite // bucket i is ring[i<<rshift:][:rcount[i]]
	rcount  []int64
	rshift  uint        // log2 of a bucket's capacity
	rmask   int64       // len(rcount)-1
	drained int64       // last beat whose bucket has been drained
	seq     uint32      // issue-order sequence number of the next write
	scratch []ringWrite // a multi-bucket drain, merged into issue order

	out    bytes.Buffer
	halted bool
	exit   int32

	// Private memory-system view: address space, TLBs, icache tags, and
	// bank-busy windows on the context's own timeline.
	mem       []byte
	bankBusy  [64]int64
	itags     []int
	iasids    []uint8
	dtlb      []int64
	dtlbAsids []uint8
	itlb      []int64
	itlbAsids []uint8

	// ievict counts the events after which a word that was instruction-resident
	// (iTLB page and icache line present under the current ASID) may no longer
	// be: a reset, a restored snapshot, a flush or change of ASID, a refill or
	// iTLB fill that displaced a valid entry. Between two of them residency
	// only grows, so resident — by region of the plan — can hold how many of a
	// region's leading words were last seen resident.
	ievict   uint64
	resident []residency

	// Scheduler bookkeeping: done marks a context schedule has retired — it
	// halted, trapped or ran out of budget — and will not run again.
	done bool
	err  error // terminal trap or cycle-limit, nil while runnable/completed

	// Checkpoint/restore bookkeeping (snapshot.go). booted marks that the
	// context holds live execution state (boot ran, or a snapshot was
	// restored) — the precondition for Snapshot. restored marks state that
	// came from Restore: schedule skips boot and continues mid-program.
	booted   bool
	restored bool

	// Stats is the context's banked performance counters; authoritative
	// whenever the context is not current on its machine.
	Stats Stats

	// Regions (native.go), on every tier: where the context is in the one
	// it is running, and the one a beat limit stopped it in, with the word.
	run      regionRun
	paused   *region
	pausedAt int32

	// vals is the value file: every value the program can name, by index. The
	// partitioned register banks (§6) sit below slotBase, each register at the
	// index mach gives it and as the raw bits the write pipeline carries — an
	// i32 zero-extended, a branch-bank bit as 0 or 1 (writeReg is the store
	// that makes them so). From slotBase up are the scratch slots of the
	// regions: while one runs they hold the results its operations have
	// produced and its landing code has not yet copied down; every region
	// exit empties them into the ring. The last three entries are noDest,
	// zeroCell and resultCell. Last in the struct, so that the 32 KB do not sit
	// between the fields every beat reads.
	vals [valSize]uint64

	// fresh is ievict as reset left it: an older stamp in resident is an
	// earlier run's (regionsRun). Read by nothing that runs: behind vals.
	fresh uint64
}

const (
	slotBase   = mach.RegFileSize
	valSize    = 4096 // the power of two above slotBase+regionSlots: an index is masked, not checked
	valMask    = valSize - 1
	noDest     = valSize - 1 // where an operation with no destination stores
	zeroCell   = valSize - 2 // never stored to: the operand that is not there reads 0
	resultCell = valSize - 3 // where an interpreted operation stores, on its way into the write pipeline
)

// reset re-targets the context at an image, reusing every buffer the
// previous program allocated, and restores the pristine boot state.
func (c *Context) reset(id int, plan *Plan) {
	img, cfg := plan.img, &plan.img.Cfg
	c.id = id
	c.img = img
	c.plan = plan
	c.tier = TierChecked
	c.asid = 0

	if need := img.RequiredMem(); int64(cap(c.mem)) >= need {
		c.mem = c.mem[:need]
		clear(c.mem)
	} else {
		c.mem = make([]byte, need)
	}

	clear(c.vals[:slotBase])
	c.pc = 0
	c.beat = 0
	c.sizeRing(plan.ringSize, plan.ringCap)
	c.emptyRing()
	c.run = regionRun{}
	c.paused = nil
	c.out.Reset()
	c.halted = false
	c.exit = 0
	c.bankBusy = [64]int64{}

	if len(c.itags) != cfg.ICacheInstrs {
		c.itags = make([]int, cfg.ICacheInstrs)
		c.iasids = make([]uint8, cfg.ICacheInstrs)
	}
	for i := range c.itags {
		c.itags[i] = -1
		c.iasids[i] = 0
	}
	if len(c.dtlb) != TLBEntries {
		c.dtlb = make([]int64, TLBEntries)
		c.itlb = make([]int64, TLBEntries)
		c.dtlbAsids = make([]uint8, TLBEntries)
		c.itlbAsids = make([]uint8, TLBEntries)
	}
	for i := range c.dtlb {
		c.dtlb[i] = -1
		c.itlb[i] = -1
		c.dtlbAsids[i] = 0
		c.itlbAsids[i] = 0
	}

	c.ievict++
	c.fresh = c.ievict

	c.done = false
	c.err = nil
	c.booted = false
	c.restored = false
	c.Stats = Stats{}
}

// boot initializes the context for execution: the program's static data is
// laid into its memory, SP points at the top, and the PC at the entry word.
func (c *Context) boot() error {
	if err := c.img.InitMem(c.mem); err != nil {
		return err
	}
	c.writeReg(mach.RegSP, uint64(len(c.mem))&^7)
	c.pc = c.img.Entry
	c.booted = true
	return nil
}

// writeReg stores v into register r in the bank's canonical form. Everything
// that reaches a register from outside a region comes through here: the retire
// ring (with whatever InjectWrite or a restored snapshot put into it), boot
// and Restore.
func (c *Context) writeReg(r mach.PReg, v uint64) {
	c.vals[r.Index()] = canonical(r.Bank, v)
}

// canonical is v as a register of bank b holds it: the low word for an
// integer register, 0 or 1 for a branch-bank bit.
func canonical(b mach.Bank, v uint64) uint64 {
	switch b {
	case mach.BankI:
		return uint64(uint32(v))
	case mach.BankB:
		return mach.BoolBits(v != 0)
	}
	return v
}

func (c *Context) readReg(r mach.PReg) uint64 { return c.vals[r.Index()] }

// readArg evaluates an operand: register read or immediate.
func (c *Context) readArg(a mach.Arg) uint64 {
	if a.IsImm {
		return uint64(uint32(a.Imm))
	}
	if !a.Reg.Valid() {
		return 0
	}
	return c.readReg(a.Reg)
}

// ringWrite is one in-flight register write. The retire beat is implicit in
// the bucket the entry sits in; seq is the issue sequence number, which
// orders a drain of several buckets — and a snapshot — by issue.
type ringWrite struct {
	val uint64
	pc  int32 // instruction word that issued the write, for fault attribution
	seq uint32
	dst mach.PReg
}

// push schedules a register write into the context's hardware write
// pipeline, retiring at beat rb ("the destination register is specified when
// the operation is initiated, and a hardware control pipeline carries the
// destination forward", §6.2).
func (c *Context) push(rb int64, dst mach.PReg, val uint64) {
	c.put(rb, ringWrite{val: val, pc: int32(c.pc), seq: c.seq, dst: dst})
	c.seq++
}

// put files an in-flight write in the bucket of retire beat rb. Writes are put
// in issue order, so every bucket stays in issue order. A bucket has room for
// everything the image can retire in one beat (plan.ringCap) and Restore makes
// room for what a snapshot adds (sizeRing), so there is no capacity check to
// pay on every write: take makes a broken bound a panic when the beat drains.
func (c *Context) put(rb int64, w ringWrite) {
	i := rb & c.rmask
	n := c.rcount[i]
	c.rcount[i] = n + 1
	c.ring[i<<(c.rshift&63)+n] = w
}

// bucket returns the writes filed under retire beat rb.
func (c *Context) bucket(rb int64) []ringWrite {
	i := rb & c.rmask
	return c.ring[i<<(c.rshift&63):][:c.rcount[i]]
}

// take empties the bucket of retire beat rb and returns what it held (valid
// until the next put).
func (c *Context) take(rb int64) []ringWrite {
	i := rb & c.rmask
	n := c.rcount[i]
	if n > 1<<(c.rshift&63) {
		panic("vliw: more writes retire in one beat than the plan's bound allows")
	}
	c.rcount[i] = 0
	return c.ring[i<<(c.rshift&63):][:n]
}

// sizeRing lays the ring out as so many buckets of at least capacity entries
// each (rounded up to a power of two), reusing the arrays when they are large
// enough. The caller empties the ring.
func (c *Context) sizeRing(buckets, capacity int64) {
	c.rshift = 0
	for 1<<c.rshift < capacity {
		c.rshift++
	}
	if n := int(buckets) << c.rshift; cap(c.ring) < n {
		c.ring = make([]ringWrite, n)
	} else {
		c.ring = c.ring[:n]
	}
	if int64(cap(c.rcount)) < buckets {
		c.rcount = make([]int64, buckets)
	} else {
		c.rcount = c.rcount[:buckets]
	}
	c.rmask = buckets - 1
}

// emptyRing discards every in-flight write and restarts the pipeline at the
// current beat: nothing is due before it.
func (c *Context) emptyRing() {
	clear(c.rcount)
	c.drained = c.beat - 1
	c.seq = 0
}

// inFlightWrite is a pipeline write with its absolute retire beat.
type inFlightWrite struct {
	ringWrite
	due int64
}

// inFlight lists the pipeline's writes in issue order without disturbing
// the ring (the form Snapshot serializes).
func (c *Context) inFlight() []inFlightWrite {
	var ws []inFlightWrite
	for off := int64(0); off <= c.rmask; off++ {
		due := c.drained + 1 + off
		for _, w := range c.bucket(due) {
			ws = append(ws, inFlightWrite{w, due})
		}
	}
	sort.Slice(ws, func(i, j int) bool { return int32(ws[i].seq-ws[j].seq) < 0 })
	return ws
}

// dtlbMiss checks and fills the data TLB for a byte address.
func (c *Context) dtlbMiss(ea int64) bool {
	if ea < 0 {
		return false
	}
	// ea is non-negative here, so the page split is an unsigned shift and
	// mask (PageSize and TLBEntries are powers of two) — the prescan calls
	// this for every memory reference on every tier.
	page := int64(uint64(ea) / PageSize)
	slot := page & (TLBEntries - 1)
	if c.dtlb[slot] == page && c.dtlbAsids[slot] == c.asid {
		return false
	}
	c.dtlb[slot] = page
	c.dtlbAsids[slot] = c.asid
	return true
}

// Output returns the output the context has printed so far.
func (c *Context) Output() string { return c.out.String() }

// Tier reports the context's execution tier.
func (c *Context) Tier() Tier { return c.tier }

// Err returns the context's terminal error: a *Fault or *ErrCycleLimit when
// the context died, nil while it is runnable or after a clean halt.
func (c *Context) Err() error { return c.err }

// Halted reports whether the context ran to a clean HALT.
func (c *Context) Halted() bool { return c.halted }

// ContextResult is one context's completed execution within a RunMany: its
// exit value, captured output, solo-equivalent Stats, and — when the
// context trapped or exhausted the cycle budget — its terminal error.
// A context's failure retires only that context; the others run on.
type ContextResult struct {
	Exit   int32
	Output string
	Stats  Stats
	Err    error
}

// SchedStats are the machine-level context-scheduler counters for one
// RunMany execution. TotalBeats is the machine's wall clock: the sum of
// every context's useful beats plus unhidden stalls plus switch overhead.
// HiddenBeats are bank-stall and icache-refill beats that overlapped
// another resident context's execution — the latency the paper's
// multi-context machine hides. Sum of per-context Stats.Beats minus
// HiddenBeats plus SwitchBeats equals TotalBeats.
type SchedStats struct {
	Contexts    int
	TotalBeats  int64
	BusyBeats   int64 // beats spent executing instructions
	HiddenBeats int64 // stall beats overlapped by another context
	Switches    int64 // context rotations performed by the scheduler
	SwitchBeats int64 // machine beats charged for those rotations
}

// add accumulates another context's counters (for the machine-level
// aggregate RunMany leaves in Machine.Stats).
func (s *Stats) add(o *Stats) {
	s.Beats += o.Beats
	s.Instrs += o.Instrs
	s.Ops += o.Ops
	s.FloatOps += o.FloatOps
	s.MemRefs += o.MemRefs
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.SpecLoads += o.SpecLoads
	s.SpecFaults += o.SpecFaults
	s.BankStalls += o.BankStalls
	s.ICacheMiss += o.ICacheMiss
	s.ICacheHits += o.ICacheHits
	s.RefillBeats += o.RefillBeats
	s.TLBMisses += o.TLBMisses
	s.TrapBeats += o.TrapBeats
	s.Branches += o.Branches
	s.Taken += o.Taken
	s.Syscalls += o.Syscalls
	s.Interrupts += o.Interrupts
	s.InterruptBeats += o.InterruptBeats
	s.Switches += o.Switches
	s.SwitchBeats += o.SwitchBeats
	s.DMARefs += o.DMARefs
}
