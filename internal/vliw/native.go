package vliw

import (
	"fmt"
	"math"
	"slices"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file is the native tier. Its unit of execution is the region: a run of
// words in static succession — each the next address or the target of its
// predecessor's unconditional jump, the way the scheduler lays a trace out —
// entered at a head and left at the first branch off that path, a fault, or a
// beat limit. The compiler has already proved when every result lands (§6.2:
// "the destination register is specified when the operation is initiated, and
// a hardware control pipeline carries the destination forward"), so inside a
// region nothing rediscovers it: each operation is a closure whose operands
// and destination are indexes of the context's value file (Context.vals) — a
// register and a scratch slot are two addresses in one space. A result goes
// into the region's next slot, and static landing code copies the slot down to
// its register at the exact beat the write retires. The retire ring, the
// per-word counters and the run loop's sentinels are all paid per region, not
// per beat:
//
//   - the beat limit (StopBeat, the context poll, CycleLimit, the RunMany
//     quantum) becomes a count of words computed at entry;
//   - Instrs, ICacheHits, Taken and the unconditional per-op counters are
//     added once at the exit, from prefix sums built with the region;
//   - the ring is touched only to drain what was in flight at entry and to
//     receive what is in flight at the exit.
//
// A region only observes that nothing dynamic would happen on a word — its
// iTLB page and icache line are present, no reference misses the dTLB or finds
// its bank busy. The moment it would, Machine.step does everything to that
// word short of issuing it — step stays the one place a cache or TLB is
// filled and an unplanned beat is charged — and the region issues the word
// with its clock rebased (regionEvent). With an interrupt timer, a DMA
// stream, TraceFn or InjectWrite armed, every word takes step's whole path.
//
// The exit-state contract: at every exit — side exit, limit, guarded fault,
// contained panic — the context is left exactly as the per-word path would
// have left it at that point: registers landed through the current beat,
// every write still in flight in the ring under the retire beat, issuing word
// and sequence number step would have given it, seq and drained to match, and
// all 23 counters. Snapshot, Restore, RunMany rotation and the fuzz oracles
// are tier-independent because of it (TestExitStateMatchesChecked).
//
// Two things lean on the certificate beyond the guards it deletes. Both need
// that no two writes to one register retire in one beat and that of two in
// flight together the earlier-issued retires first (schedcheck's write-race
// and waw-overlap errors): a write may go straight to its register when the
// beat it would have waited is invisible (straight), and after a clock
// jump the writes in flight land by retire beat, not in one batch by issue
// (regionEvent).
//
// Regions are built lazily from the safe plan's planOps, the second time the
// per-word path arrives at a word; code that runs once is interpreted once
// and never translated. At sites the SafetyCertificate proves, the closure
// carries no guard and the Go runtime's own bounds and divide checks backstop
// a post-certification mutation (safeTierFault); unproven sites keep the
// interpreter's guards, fault text included.

const (
	// regionHeat is how many times the per-word path must arrive at a word
	// before the run from it is built.
	regionHeat = 2
	// regionMaxWords bounds a region; measured runs between taken branches
	// are 6–77 words long, a loop laid out as four traces 112.
	regionMaxWords = 256
	// regionSlots is the scratch a context keeps for a region's results: one
	// slot per write the region can issue.
	regionSlots = 2048
	// regionBudget bounds the words all regions of a plan hold, as a multiple
	// of the image: overlapping regions (one per head) repeat words.
	regionBudget = 16
)

// nativeOp is one translated slot operation: the closure returns the trap
// (as an error) a guarded site raises, nil otherwise.
type nativeOp func(m *Machine, c *Context) error

// region is one translated run of words from head (see buildRegion). The flat
// arrays are walked once, front to back, by runRegion; each word records where
// its share of each ends.
type region struct {
	id     int // index into Context.resident
	head   int
	words  []regionWord
	mems   []planMem     // the words' prescan lists, end to end
	lands  []landing     // by landing beat, issue order within a beat
	ops    []nativeOp    // by issue beat, slot order within a beat
	info   []opInfo      // parallel to ops: what a fault at that op leaves
	writes []regionWrite // in issue order; writes[k] is delivered into slot k
	maxLat int32         // the longest latency of a write of the region
}

type regionWord struct {
	pc      int32    // the word's address
	follow  bool     // the next word of the region is not at pc+1: expect the taken branch there
	memEnd  int32    // end of the word's references in mems
	landEnd [2]int32 // end of each beat's landings in lands
	opEnd   [2]int32 // end of each beat's closures in ops
	wrEnd   int32    // writes issued through this word
	flight  int32    // every write before this one has landed by the top of the word
	line    int32    // the word's icache line
	bulk    statsBulk
}

// landing copies the result region word `word` left at index slot of the value
// file down to the register at index dst.
type landing struct {
	slot uint16
	word uint16
	dst  uint16
}

// regionWrite is one register write a region issues: beats are relative to
// region entry, and land may lie past the region's last beat.
type regionWrite struct {
	dst         mach.PReg
	straight    bool // stored there by its closure, not through a slot (see straight)
	issue, land int32
}

// opInfo is the exit state a fault at an op needs: the unconditional counters
// from region entry through the op itself, and the writes issued before it.
type opInfo struct {
	bulk   statsBulk
	writes int32
}

// residency is what a context remembers of a region's instruction residency:
// as of eviction count epoch, the region's first n words were resident.
type residency struct {
	epoch uint64
	n     int
}

// Why a region is left (the first two and the last), or what it met on a word
// and went on from (the middle three).
const (
	exitLimit  = iota // the beat limit, or the region's last word
	exitBranch        // a branch off the region's path, or HALT
	exitTLB           // a dTLB miss
	exitBank          // a busy bank
	exitRefill        // an icache or iTLB miss
	exitFault
	numExits
)

// regionStats counts region traffic, bumped only at region exits and events.
type regionStats struct {
	built int64
	words int64
	by    [numExits]int64 // exits and events, by cause
}

// RegionSummary renders the native tier's region counters for this run:
// regions built, words run in regions and on the per-word path, region exits
// by cause, and the words on which a region met something dynamic, by cause.
func (m *Machine) RegionSummary() string {
	r, n := &m.regions, &m.regions.by
	return fmt.Sprintf("%d regions built; %d words in regions, %d per word; exits: %d branch, %d limit, %d fault; events: %d tlb, %d bank, %d refill",
		r.built, r.words, m.Stats.Instrs-r.words, n[exitBranch], n[exitLimit], n[exitFault], n[exitTLB], n[exitBank], n[exitRefill])
}

// statsBulk is the unconditional counter delta of a run of slots — the
// counters the interpreter increments before any guard can fire — summed when
// a region is built and applied in one shot at its exit. The counts are
// 16-bit: a region issues at most regionMaxWords words of the machine's
// units.
type statsBulk struct {
	ops       uint16
	floatOps  uint16
	memRefs   uint16
	loads     uint16
	stores    uint16
	specLoads uint16
	branches  uint16
	syscalls  uint16
}

func (b *statsBulk) apply(s *Stats) {
	s.Ops += int64(b.ops)
	s.FloatOps += int64(b.floatOps)
	s.MemRefs += int64(b.memRefs)
	s.Loads += int64(b.loads)
	s.Stores += int64(b.stores)
	s.SpecLoads += int64(b.specLoads)
	s.Branches += int64(b.branches)
	s.Syscalls += int64(b.syscalls)
}

func (b *statsBulk) sub(o statsBulk) {
	b.ops -= o.ops
	b.floatOps -= o.floatOps
	b.memRefs -= o.memRefs
	b.loads -= o.loads
	b.stores -= o.stores
	b.specLoads -= o.specLoads
	b.branches -= o.branches
	b.syscalls -= o.syscalls
}

func (b *statsBulk) add(o statsBulk) {
	b.ops += o.ops
	b.floatOps += o.floatOps
	b.memRefs += o.memRefs
	b.loads += o.loads
	b.stores += o.stores
	b.specLoads += o.specLoads
	b.branches += o.branches
	b.syscalls += o.syscalls
}

// opBulk returns a slot's unconditional counter contribution.
func opBulk(s *planOp) statsBulk {
	b := statsBulk{ops: 1}
	if s.unitKind == mach.UBR {
		// Branch-unit dispatch keys on the op's own kind (execBranch).
		switch s.op.Kind {
		case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR:
			b.branches = 1
		case mach.OpSyscall:
			b.syscalls = 1
		}
		return b
	}
	switch s.kind {
	case opPureFlop:
		b.floatOps = 1
	case ir.Load, ir.LoadSpec, opSafeLoadI32, opSafeLoadF64: // countLoad
		b.memRefs, b.loads = 1, 1
		if s.op.Kind == ir.LoadSpec {
			b.specLoads = 1
		}
	case ir.Store, opSafeStoreI32, opSafeStoreF64: // countStore
		b.memRefs, b.stores = 1, 1
	}
	return b
}

// arrive notes one arrival of the per-word path at word pc and, on the
// regionHeat'th, builds the region headed there — unless the plan's regions
// already hold regionBudget times the image.
func (p *plan) arrive(pc int) *region {
	p.heat[pc]++
	if p.heat[pc] < regionHeat || p.regionWords >= regionBudget*len(p.words) {
		return nil
	}
	r := p.buildRegion(pc)
	r.id = p.regions
	p.regions++
	p.heads[pc] = r
	p.regionWords += len(r.words)
	return r
}

// regionBuilder carries the position of the op being translated.
type regionBuilder struct {
	p      *plan
	r      *region
	pc     int       // the word in hand
	beat   int32     // its issue beat, relative to region entry
	direct bool      // the op in hand writes straight to its register (see straight)
	bulk   statsBulk // the counters of every slot translated so far
}

// word translates word pc as the region's next word.
func (b *regionBuilder) word(pc int) {
	p, r := b.p, b.r
	ws := &p.slots[pc]
	b.pc = pc
	rw := regionWord{pc: int32(pc), line: int32(pc & p.itagMask)}
	if p.itagMask < 0 {
		rw.line = int32(pc % p.icache)
	}
	r.mems = append(r.mems, p.words[pc].mem...)
	rw.memEnd = int32(len(r.mems))
	for beat := range ws.beats {
		b.beat = int32(2*len(r.words) + beat)
		for i := range ws.beats[beat] {
			s := &ws.beats[beat][i]
			issued := int32(len(r.writes))
			var f nativeOp
			b.direct = b.straight(ws.beats[beat], i)
			if s.unitKind == mach.UBR {
				f = b.compileBranch(s)
			} else {
				f = b.compileExec(s)
			}
			b.bulk.add(opBulk(s))
			if f != nil {
				r.ops = append(r.ops, f)
				r.info = append(r.info, opInfo{bulk: b.bulk, writes: issued})
			}
		}
		rw.opEnd[beat] = int32(len(r.ops))
	}
	rw.wrEnd = int32(len(r.writes))
	rw.bulk = b.bulk
	r.words = append(r.words, rw)
}

// deliver issues the write the op in hand makes to dst, landing lat beats on,
// and returns the index its closure stores the result at: the next scratch
// slot — or the register itself, for a straight write — and noDest for an op
// with no destination.
func (b *regionBuilder) deliver(dst mach.PReg, lat int64) int {
	if !dst.Valid() {
		return noDest
	}
	k := len(b.r.writes)
	b.r.writes = append(b.r.writes, regionWrite{dst: dst, straight: b.direct, issue: b.beat, land: b.beat + int32(lat)})
	b.r.maxLat = max(b.r.maxLat, int32(lat))
	if b.direct {
		return dst.Index()
	}
	return slotBase + k
}

// transfers reports whether word pc always transfers control and — when all
// that always does is one unconditional jump — where to.
func (p *plan) transfers(pc int) (always bool, jump int) {
	jump = -1
	for beat := range p.slots[pc].beats {
		for i := range p.slots[pc].beats[beat] {
			s := &p.slots[pc].beats[beat][i]
			if s.unitKind != mach.UBR {
				continue
			}
			switch o := s.op; {
			case o.Kind == mach.OpJmp && o.Target >= 0 && !always:
				always, jump = true, o.Target
			case o.Kind == mach.OpJmp && o.Target >= 0, o.Kind == mach.OpCall && o.Target >= 0,
				o.Kind == mach.OpJmpR, o.Kind == mach.OpHalt:
				always, jump = true, -1 // a call, an indirect jump, a halt, a second jump: nothing to follow
			}
		}
	}
	return always, jump
}

// buildRegion translates the run of words from head: each word's successor is
// the next word, or the target of the word's unconditional jump, up to and
// including the first word that otherwise always transfers control (a call, an
// indirect jump, a halt, a jump back into the run), and never out of the
// head's instruction page (one iTLB lookup covers the region), past
// regionMaxWords, or past what the scratch slots can hold. The scheduler
// lays a trace out as fall-through segments joined by such jumps; a segment
// reached by one joins the run whole or not at all, so a region ends where a
// trace does. A word whose successor in the region is not the next address
// expects the taken branch there (follow) and carries on when it is taken.
func (p *plan) buildRegion(head int) *region {
	r := &region{head: head, maxLat: 1}
	b := regionBuilder{p: p, r: r}
	page := head / (PageSize / 4)
	var run []int // the run, by address
	writes := 0   // the most it can issue
	for pc := head; pc >= 0; {
		seg, segWrites, whole := len(run), writes, false
		for !whole && len(run) < regionMaxWords && pc < len(p.words) && pc/(PageSize/4) == page {
			n := len(p.slots[pc].beats[0]) + len(p.slots[pc].beats[1])
			if writes+n > regionSlots {
				break
			}
			run, writes = append(run, pc), writes+n
			always, jump := p.transfers(pc)
			pc, whole = pc+1, always
			if always && (jump < 0 || jump/(PageSize/4) != page || slices.Contains(run, jump)) {
				pc = -1 // nothing to follow, or a jump back into the run: a loop closes
			} else if always {
				pc = jump
			}
		}
		if !whole {
			if seg > 0 {
				run, writes = run[:seg], segWrites
			}
			break
		}
	}
	for _, pc := range run {
		b.word(pc)
	}
	for w := range r.words[:len(r.words)-1] {
		r.words[w].follow = r.words[w+1].pc != r.words[w].pc+1
	}

	// The landing schedule: a counting sort of the writes by landing beat.
	// A write landing past the last beat is in flight at every exit.
	beats := 2 * len(r.words)
	ends := make([]int32, beats+1)
	for _, wr := range r.writes {
		if int(wr.land) < beats && !wr.straight {
			ends[wr.land+1]++
		}
	}
	for i := 1; i <= beats; i++ {
		ends[i] += ends[i-1]
	}
	r.lands = make([]landing, ends[beats])
	next := append([]int32(nil), ends[:beats]...)
	for k, wr := range r.writes {
		if int(wr.land) < beats && !wr.straight {
			r.lands[next[wr.land]] = landing{slot: uint16(slotBase + k), word: uint16(wr.issue >> 1), dst: uint16(wr.dst.Index())}
			next[wr.land]++
		}
	}
	flight := int32(0)
	for w := range r.words {
		r.words[w].landEnd = [2]int32{ends[2*w+1], ends[2*w+2]}
		for int(flight) < len(r.writes) && int(r.writes[flight].land) < 2*w {
			flight++
		}
		r.words[w].flight = flight
	}
	return r
}

// hooked reports whether anything is armed that must see every word or every
// retiring write, or that moves the clock between words; the native tier then
// stays on the per-word path.
func (m *Machine) hooked() bool {
	return m.InjectWrite != nil || m.TraceFn != nil || m.InterruptEvery > 0 || m.dmaRate > 0
}

// advance executes the next unit of work of a context on the native tier,
// never starting a word at or after beat until (which must lie past c.beat):
// the region headed at c.pc, when there is one and nothing is hooked,
// otherwise one step.
// eager stops a region after a word that met something dynamic, as RunMany's
// scheduler rotates on one.
func (m *Machine) advance(c *Context, until int64, eager bool) error {
	if !m.hooked() {
		if r, w := c.paused, int(c.pausedAt); r != nil {
			// A region left at a beat limit goes on where it stopped, so the
			// limits — a context poll every few thousand beats, a quantum —
			// do not make region heads of the words they happen to fall on.
			if c.paused = nil; int(r.words[w].pc) == c.pc {
				return m.runRegion(c, r, w, until, eager)
			}
		}
		if p := c.plan; uint(c.pc) < uint(len(p.heads)) {
			r := p.heads[c.pc]
			if r == nil && p.heat[c.pc] < regionHeat {
				if r = p.arrive(c.pc); r != nil {
					m.regions.built++
				}
			}
			if r != nil {
				return m.runRegion(c, r, 0, until, eager)
			}
		}
	}
	return m.step(c, true)
}

// residentWords returns how many of r's leading words are instruction-resident
// in c: the region's iTLB page and each word's icache line present under the
// current ASID. The count is remembered per region while nothing can have
// been evicted, so a region whose code has all been fetched once answers with
// two compares.
func (c *Context) residentWords(r *region) int {
	if r.id >= len(c.resident) {
		c.resident = append(c.resident, make([]residency, r.id+1-len(c.resident))...)
	}
	res := &c.resident[r.id]
	if res.epoch != c.ievict {
		*res = residency{epoch: c.ievict}
	}
	if res.n == len(r.words) {
		return res.n
	}
	ipage := int64(r.head) / (PageSize / 4)
	if is := ipage % TLBEntries; c.itlb[is] != ipage || c.itlbAsids[is] != c.asid {
		return 0
	}
	if len(c.img.Words) == 0 {
		res.n = len(r.words) // the ideal machine has no encoded form and a perfect cache
	}
	for res.n < len(r.words) {
		rw := &r.words[res.n]
		if c.itags[rw.line] != int(rw.pc) || c.iasids[rw.line] != c.asid {
			break
		}
		res.n++
	}
	return res.n
}

// wordsBefore is how many words, two beats each from beat on, start before
// beat until.
func wordsBefore(until, beat int64) int {
	if until <= beat {
		return 0
	}
	return int((until-beat)>>1 + (until-beat)&1)
}

// regionRun is the position of a context inside the region it is running:
// what every exit needs of how it got there. The region's writes fall into
// three runs by issuing word: before floor0 they are the ring's (or landed);
// in [floor0, floor) they were issued before the last unplanned beats and,
// still in their slots, land shift beats ahead of the region's schedule
// (landAhead); from floor on they land where the schedule says.
type regionRun struct {
	r             *region
	base          int64  // the beat of the region's beat 0, had the words from floor on been the first
	seq           uint32 // the sequence number of the region's first write
	start         int32  // the region word the run was entered at
	floor0, floor int32
	shift         int64 // beats the [floor0, floor) writes land ahead of schedule
	ahead, stop   int32 // landAhead's cursor into r.lands, and where it has nothing left to find
	front         int64 // words whose fetch step has already counted
	taken         int64 // followed branches
}

// runRegion runs region r from its word w for as many words as start before
// beat until, and leaves at the first branch off its path or fault. Entered
// past its head, it is a region whose earlier words' writes are the ring's.
func (m *Machine) runRegion(c *Context, r *region, w int, until int64, eager bool) error {
	n := min(w+wordsBefore(until, c.beat), len(r.words))
	resident := c.residentWords(r)
	c.run = regionRun{r: r, base: c.beat - int64(2*w), seq: c.seq - uint32(r.firstWrite(int32(w))), start: int32(w), floor0: int32(w), floor: int32(w)}
	run := &c.run
	g := &c.plan.geom
	m.brTaken, m.brHalt = false, false

	cause := exitLimit
	var mi, li, oi int
	if w > 0 {
		mi, li, oi = int(r.words[w-1].memEnd), int(r.words[w-1].landEnd[1]), int(r.words[w-1].opEnd[1])
	}
	for ; w < n; w++ {
		rw := &r.words[w]
		// What step's front half would find: nothing, on all but a few words
		// in a hundred. The prescan's questions are asked of the registers as
		// they stand at the top of the word, exactly as step asks them.
		event := exitLimit
		if w >= resident {
			event = exitRefill
		}
		for end := int(rw.memEnd); mi < end && event == exitLimit; mi++ {
			pm := &r.mems[mi]
			ea := pm.at(c)
			if ea < 0 {
				continue
			}
			page := int64(uint64(ea) / PageSize)
			if slot := page & (TLBEntries - 1); c.dtlb[slot] != page || c.dtlbAsids[slot] != c.asid {
				event = exitTLB
			} else if c.bankBusy[g.id(ea)] > c.beat+pm.beat+mach.StageBank {
				event = exitBank
			}
		}
		c.pc = int(rw.pc)
		if event != exitLimit {
			m.regionEvent(c, w, li, event)
			mi = int(rw.memEnd)
			resident = max(c.residentWords(r), w+1)
			if n = min(w+1+wordsBefore(until, c.beat+2), len(r.words)); eager {
				n = w + 1
			}
		}
		floor := uint16(run.floor)
		for beat := 0; beat < 2; beat++ {
			if c.rcount[c.beat&c.rmask] != 0 {
				c.landBucket()
			}
			if run.ahead < run.stop {
				c.landAhead(int64(2*w + beat))
			}
			for end := int(rw.landEnd[beat]); li < end; li++ {
				if l := r.lands[li]; l.word >= floor {
					c.vals[l.dst&valMask] = c.vals[l.slot&valMask]
				}
			}
			for end := int(rw.opEnd[beat]); oi < end; oi++ {
				if err := r.ops[oi](m, c); err != nil {
					in := &r.info[oi]
					m.leaveRegion(c, w+1, int32(2*w+beat), in.writes, in.bulk, exitFault)
					return err
				}
			}
			c.beat++
		}
		if rw.follow && m.brTaken && m.brNext == int(r.words[w+1].pc) && !m.brHalt {
			m.brTaken = false // the branch the region's path takes
			run.taken++
		} else if m.brTaken || m.brHalt || rw.follow {
			w++
			cause = exitBranch
			break
		}
	}

	var bulk statsBulk
	var issued int32
	if w > 0 {
		bulk, issued = r.words[w-1].bulk, r.words[w-1].wrEnd
	}
	m.leaveRegion(c, w, int32(2*w-1), issued, bulk, cause)
	switch {
	case cause == exitLimit && w < len(r.words):
		c.pc = int(r.words[w].pc)
		c.paused, c.pausedAt = r, int32(w)
	case m.brHalt:
		if m.brTaken {
			m.Stats.Taken++
		}
		c.halted, c.exit = true, m.brExit
	case m.brTaken:
		m.Stats.Taken++
		c.pc = m.brNext
	default: // off the end of the region, or out of a followed branch by falling through
		c.pc = int(r.words[w-1].pc) + 1
	}
	return nil
}

// regionEvent is what a region does about a word on which something dynamic
// happens — an iTLB or icache miss, a dTLB miss, a busy bank. step fetches the
// word and charges what it costs, short of issuing it, and the region resumes
// at the same word with the clock rebased; li is the landing cursor at the
// word's first beat. What was in flight keeps its retire beats, which are now
// that many beats ahead of the region's schedule, and stays in its slots:
// landAhead lands it from there, beginning, with the word's first beat, with
// everything the unplanned beats made due. (What an earlier event left to
// landAhead and is still in flight goes to the ring first: there is one such
// run of writes.)
//
// A drain after a clock jump lands its writes in issue order; landAhead lands
// by retire beat. The two differ only for two writes to one register in
// flight together with the earlier-issued retiring later, which the
// certificate excludes (schedcheck's waw-overlap error).
func (m *Machine) regionEvent(c *Context, w, li int, event int) {
	run := &c.run
	c.spillAhead(int32(2*w - 1))
	run.floor0, run.floor = run.floor, int32(w)
	run.front++
	m.regions.by[event]++

	before := c.beat
	c.drained = before - 1
	_ = m.step(c, false) // c.pc is a word of the region: no fetch fault
	if c.drained+1 != c.beat {
		_ = m.drainJump(c) // no race verdict on this tier
	}
	run.shift = c.beat - before
	run.base = c.beat - int64(2*w)
	run.ahead, run.stop = int32(li), run.r.landEndAt(int64(2*w)+int64(run.r.maxLat))
}

// landAhead lands the writes issued before the last event that retire at
// region beat q: they sit shift beats further on in the landing schedule.
func (c *Context) landAhead(q int64) {
	run := &c.run
	r := run.r
	for end := r.landEndAt(q + run.shift); run.ahead < end; run.ahead++ {
		if l := r.lands[run.ahead]; int32(l.word) >= run.floor0 && int32(l.word) < run.floor {
			c.vals[l.dst&valMask] = c.vals[l.slot&valMask]
		}
	}
}

// landEndAt is the end, in lands, of the landings of region beats through q.
func (r *region) landEndAt(q int64) int32 {
	if q >= int64(2*len(r.words)) {
		return int32(len(r.lands))
	}
	return r.words[q>>1].landEnd[q&1]
}

// firstWrite is the index of the first write region word w issues.
func (r *region) firstWrite(w int32) int32 {
	if w == 0 {
		return 0
	}
	return r.words[w-1].wrEnd
}

// landBucket retires the ring bucket due at the current beat: what was in
// flight when the region was entered. No hook is armed in a region and the
// native tier gives no race verdict, so the writes simply land.
func (c *Context) landBucket() {
	due := c.take(c.beat)
	for i := range due {
		c.writeReg(due[i].dst, due[i].val)
	}
}

// spill hands the ring every write among the region's writes [lo, hi) that is
// still in flight when those writes have landed through region beat landed
// (of the schedule whose beat 0 is base), filed exactly as push would have
// filed it: retire beat, issuing word, sequence number.
func (c *Context) spill(lo, hi int32, landed, base int64) {
	run := &c.run
	r := run.r
	if top := (landed + 1) >> 1; top < int64(len(r.words)) {
		lo = max(lo, r.words[top].flight)
	} else {
		lo = max(lo, r.words[len(r.words)-1].flight)
	}
	for k := lo; k < hi; k++ {
		if wr := &r.writes[k]; int64(wr.land) > landed && !wr.straight {
			c.put(base+int64(wr.land), ringWrite{
				val: c.vals[(slotBase+k)&valMask],
				pc:  r.words[wr.issue>>1].pc,
				seq: run.seq + uint32(k),
				dst: wr.dst,
			})
		}
	}
}

// spillAhead hands the ring what landAhead has not landed by region beat
// landed.
func (c *Context) spillAhead(landed int32) {
	if run := &c.run; run.floor0 < run.floor {
		c.spill(run.r.firstWrite(run.floor0), run.r.firstWrite(run.floor), int64(landed)+run.shift, run.base-run.shift)
	}
}

// leaveRegion materialises the exit state of c's region: its first `words`
// words were fetched, the registers are current through region beat `landed`,
// and the region's first `issued` writes were issued, accounting for bulk (all
// three counted from the region's head, wherever the run entered it). Whatever of
// those writes lands later goes into the ring, seq and drained follow, and the
// counters are settled.
func (m *Machine) leaveRegion(c *Context, words int, landed, issued int32, bulk statsBulk, cause int) {
	run := &c.run
	c.spillAhead(landed)
	c.spill(run.r.firstWrite(run.floor), issued, int64(landed), run.base)
	c.seq = run.seq + uint32(issued)
	c.drained = run.base + int64(landed)
	if run.start > 0 {
		bulk.sub(run.r.words[run.start-1].bulk)
		words -= int(run.start)
	}
	bulk.apply(&m.Stats)
	m.Stats.Instrs += int64(words) - run.front
	m.Stats.ICacheHits += int64(words) - run.front
	m.Stats.Taken += run.taken
	m.regions.words += int64(words)
	m.regions.by[cause]++
	run.r = nil
}

// abandonRegion is leaveRegion for a panic that escaped a guard-free site of
// the region c was running (safeTierFault reports it): the context is left as
// of the top of the beat whose issue panicked.
func (m *Machine) abandonRegion(c *Context) {
	r := c.run.r
	if r == nil {
		return
	}
	landed := int32(c.beat - c.run.base)
	w := int(landed >> 1)
	first := int32(0) // the first closure of the beat in hand
	switch {
	case landed&1 == 1:
		first = r.words[w].opEnd[0]
	case w > 0:
		first = r.words[w-1].opEnd[1]
	}
	var bulk statsBulk
	var issued int32
	if first > 0 {
		bulk = r.info[first-1].bulk
	}
	if int(first) < len(r.info) {
		issued = r.info[first].writes
	} else {
		issued = int32(len(r.writes))
	}
	m.leaveRegion(c, w+1, landed, issued, bulk, exitFault)
}

// operand is a mach.Arg resolved for a region — inside one an operand is an
// index, whichever bank it names — to be read as Context.readArg reads it: the
// value at an index of the value file plus a constant. A register is its index
// plus 0; an immediate — or no operand, which reads as 0 — is the zero cell
// plus its value. Reading one never asks which it is.
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

func (o operand) read(c *Context) uint64 { return c.vals[o.idx&valMask] + o.k }

// nFault raises a guarded-site fault from a translated closure, with the
// unit attribution the interpreter would have set via curUnit, so the Fault
// renders byte-identically to the other tiers. runRegion settles the counters.
func (m *Machine) nFault(c *Context, unit string, code TrapCode, format string, args ...any) error {
	m.curUnit = unit
	return m.fault(c, code, format, args...)
}

// nFastShape emits fully fused closures — operand reads, the operation and
// the store into d all inline, no operator callback — for the op kinds that
// dominate compacted inner loops: integer add, subtract, compare and shift,
// float add, subtract and multiply. Returns nil when nPure should be used.
func nFastShape(o *mach.Op, d int) nativeOp {
	a, b := operandOf(o.A), operandOf(o.B)
	switch o.Kind {
	case ir.FAdd:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = math.Float64bits(math.Float64frombits(a.read(c)) + math.Float64frombits(b.read(c)))
			return nil
		}
	case ir.FSub:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = math.Float64bits(math.Float64frombits(a.read(c)) - math.Float64frombits(b.read(c)))
			return nil
		}
	case ir.FMul:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = math.Float64bits(math.Float64frombits(a.read(c)) * math.Float64frombits(b.read(c)))
			return nil
		}
	case ir.Add:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = mach.IBits(int32(a.read(c)) + int32(b.read(c)))
			return nil
		}
	case ir.Sub:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = mach.IBits(int32(a.read(c)) - int32(b.read(c)))
			return nil
		}
	case ir.CmpLT:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = mach.BoolBits(int32(a.read(c)) < int32(b.read(c)))
			return nil
		}
	case ir.CmpGE:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = mach.BoolBits(int32(a.read(c)) >= int32(b.read(c)))
			return nil
		}
	case ir.CmpEQ:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = mach.BoolBits(int32(a.read(c)) == int32(b.read(c)))
			return nil
		}
	case ir.CmpNE:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = mach.BoolBits(int32(a.read(c)) != int32(b.read(c)))
			return nil
		}
	case ir.Shl:
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = mach.IBits(int32(a.read(c)) << mach.ShiftCount(int32(b.read(c))))
			return nil
		}
	}
	return nil
}

// nPure builds the closure for an opcode of the shared value table: operand
// bits in, f, result bits into d. (An op with no destination is still
// evaluated: a proven Div/Rem's divide panic is the backstop.)
func nPure(o *mach.Op, d int, f func(a, b uint64) uint64) nativeOp {
	a, b := operandOf(o.A), operandOf(o.B)
	return func(m *Machine, c *Context) error {
		c.vals[d&valMask] = f(a.read(c), b.read(c))
		return nil
	}
}

// nConst builds a store-constant closure. ConstI/ConstF are frequent enough in
// compacted traces that reading the constant as an operand shows up in
// profiles; it is baked into the closure instead.
func nConst(d int, v uint64) nativeOp {
	return func(m *Machine, c *Context) error {
		c.vals[d&valMask] = v
		return nil
	}
}

// compileBranch translates one branch-unit slot (mirrors execBranch).
func (b *regionBuilder) compileBranch(s *planOp) nativeOp {
	o, unitName := s.op, s.unitName
	switch o.Kind {
	case mach.OpBrT:
		cond := operandOf(o.A)
		t, prio := o.Target, o.Prio
		if t < 0 {
			return nil
		}
		return func(m *Machine, c *Context) error {
			if cond.read(c) != 0 {
				m.takeBranch(prio, t)
			}
			return nil
		}
	case mach.OpJmp:
		t, prio := o.Target, o.Prio
		if t < 0 {
			return nil
		}
		return func(m *Machine, c *Context) error {
			m.takeBranch(prio, t)
			return nil
		}
	case mach.OpCall:
		t, prio := o.Target, o.Prio
		d := b.deliver(mach.RegLR, 1)
		link := uint64(uint32(b.pc + 1))
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = link
			if t >= 0 {
				m.takeBranch(prio, t)
			}
			return nil
		}
	case mach.OpJmpR:
		to := operandOf(o.A)
		prio := o.Prio
		return func(m *Machine, c *Context) error {
			if t := int(int32(to.read(c))); t >= 0 {
				m.takeBranch(prio, t)
			}
			return nil
		}
	case mach.OpHalt:
		rv := mach.RegRVI.Index()
		return func(m *Machine, c *Context) error {
			m.brHalt = true
			m.brExit = int32(c.vals[rv&valMask])
			return nil
		}
	case mach.OpSyscall:
		switch o.Sym {
		case "print_i":
			return func(m *Machine, c *Context) error {
				c.printI()
				return nil
			}
		case "print_f":
			return func(m *Machine, c *Context) error {
				c.printF()
				return nil
			}
		default:
			sym := o.Sym
			return func(m *Machine, c *Context) error {
				return m.nFault(c, unitName, TrapSyscall, "unknown syscall %q", sym)
			}
		}
	}
	name := mach.OpName(o.Kind)
	return func(m *Machine, c *Context) error {
		return m.nFault(c, unitName, TrapBadOp, "%s on branch unit", name)
	}
}

// compileLoad translates a load into d: the interpreter's case with the
// operands resolved. A proven site (guarded false) carries no verdict on its
// address: a post-certification mutation that drives it wild hits the Go
// runtime's slice bounds check, and the run loops convert the panic to the
// matching Fault (safeTierFault), same as the safe tier.
func compileLoad(o *mach.Op, d int, guarded bool, unitName string) nativeOp {
	ea, size := addressOf(o), o.Type.Size()
	if !guarded {
		return func(m *Machine, c *Context) error {
			c.vals[d&valMask] = c.load(ea.at(c), size)
			return nil
		}
	}
	spec, funny := o.Kind == ir.LoadSpec, mach.SpecPoison(o.Type)
	return func(m *Machine, c *Context) error {
		a := ea.at(c)
		switch {
		case !c.badRef(a, size):
			c.vals[d&valMask] = c.load(a, size)
		case spec:
			m.Stats.SpecFaults++
			c.vals[d&valMask] = funny
		default:
			m.curUnit = unitName
			return m.refFault(c, "load", a, size)
		}
		return nil
	}
}

// compileStore translates a store the same way.
func compileStore(o *mach.Op, guarded bool, unitName string) nativeOp {
	ea, data, size := addressOf(o), operandOf(o.C), o.Type.Size()
	if !guarded {
		return func(m *Machine, c *Context) error {
			m.store(c, ea.at(c), size, data.read(c))
			return nil
		}
	}
	return func(m *Machine, c *Context) error {
		a := ea.at(c)
		if c.badRef(a, size) {
			m.curUnit = unitName
			return m.refFault(c, "store", a, size)
		}
		m.store(c, a, size, data.read(c))
		return nil
	}
}

// reads reports whether slot s may read register r when it issues.
func (s *planOp) reads(r mach.PReg) bool {
	if s.unitKind == mach.UBR {
		switch s.op.Kind {
		case mach.OpSyscall, mach.OpHalt:
			return true // argument and result registers, not named as operands
		}
	}
	for _, a := range [...]mach.Arg{s.op.A, s.op.B, s.op.C} {
		if !a.IsImm && a.Reg == r {
			return true
		}
	}
	return false
}

// mayFault reports whether slot s's closure can return a fault.
func (s *planOp) mayFault() bool {
	if s.unitKind == mach.UBR {
		switch s.op.Kind {
		case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR, mach.OpHalt:
			return false
		}
		return true
	}
	switch s.kind {
	case ir.Nop, opPure, opPureFlop, ir.ConstI, ir.ConstF, ir.Mov, mach.OpMovSF, ir.Select, ir.LoadSpec,
		opSafeLoadI32, opSafeLoadF64, opSafeStoreI32, opSafeStoreF64:
		return false
	}
	return true
}

// straight reports whether the write slot i of a beat's issue list makes can
// go straight to its register — the same closure, with the register's index
// for a destination instead of a scratch slot's. That is safe for a write
// that lands one beat after a word's first beat — inside the word, so no exit,
// event or prescan falls between issue and landing — when nothing later in the
// beat reads the register or can fault, and nothing else in the beat writes
// it: no one can tell the register changed a beat early. (A write from before
// the region landing in that very beat would be a write-write race, which the
// certificate excludes.) These are the address and compare operations of
// compacted loops, about a third of all writes.
func (b *regionBuilder) straight(ops []planOp, i int) bool {
	s := &ops[i]
	dst := s.op.Dst
	if b.beat&1 != 0 || s.lat != 1 || s.unitKind == mach.UBR {
		return false
	}
	for j := range ops {
		if j != i && (ops[j].op.Dst == dst || j > i && (ops[j].reads(dst) || ops[j].mayFault())) {
			return false
		}
		if ops[j].unitKind == mach.UBR && ops[j].op.Kind == mach.OpCall && dst == mach.RegLR {
			return false
		}
	}
	return true
}

// bits bounds what slot s produces: 1 for a test, 32 for an integer, 64 for
// anything else — read off the value table's row, the operands' banks and the
// access type.
func (s *planOp) bits() int {
	argBits := func(a mach.Arg) int {
		switch {
		case a.IsImm, a.Reg.Bank == mach.BankI:
			return 32
		case a.Reg.Bank == mach.BankB, !a.Reg.Valid():
			return 1
		}
		return 64
	}
	o := s.op
	switch s.kind {
	case opPure, opPureFlop, ir.Div, ir.Rem:
		switch {
		case mach.ValueOf(o.Kind).FloatOut:
			return 64
		case o.Kind.IsCompare():
			return 1
		}
		return 32
	case ir.ConstI:
		return 32
	case ir.Mov, mach.OpMovSF:
		return argBits(o.A)
	case ir.Select:
		return max(argBits(o.B), argBits(o.C))
	case ir.Load, ir.LoadSpec, opSafeLoadI32, opSafeLoadF64:
		if o.Type == ir.I32 {
			return 32
		}
	}
	return 64
}

// compileExec translates one non-branch slot (mirrors execOp case for case;
// the dispatch key is the plan kind, so proven sites translate to their
// guard-free variants). What a closure stores must be canonical for the
// destination's bank, because a landing is a plain copy and a straight write
// is final. It is by construction wherever the result is no wider than the
// bank (bits); an image that moves a float into an integer register, or an
// integer into the branch bank, gets the store canonicalised behind it (such a
// write, caught in flight by a region exit, is in the ring as the register will
// hold it, where the interpreter's is as the operation produced it).
func (b *regionBuilder) compileExec(s *planOp) nativeOp {
	o, dst, lat := s.op, s.op.Dst, s.lat
	d := noDest // where the result goes, once a case has issued the write
	var f nativeOp
	switch s.kind {
	case ir.Nop:
		return nil
	case opPure, opPureFlop:
		d = b.deliver(dst, lat)
		if f = nFastShape(o, d); f == nil {
			f = nPure(o, d, mach.ValueOf(o.Kind).Fn)
		}
	case ir.Div, ir.Rem:
		d = b.deliver(dst, lat)
		a, b := operandOf(o.A), operandOf(o.B)
		fn, msg, unitName := mach.ValueOf(s.kind).Fn, divZeroMsg(s.kind), s.unitName
		f = func(m *Machine, c *Context) error {
			dv := b.read(c)
			if mach.DivTraps(dv) {
				return m.nFault(c, unitName, TrapDivZero, "%s", msg)
			}
			c.vals[d&valMask] = fn(a.read(c), dv)
			return nil
		}
	case ir.ConstI:
		d = b.deliver(dst, lat)
		if a := operandOf(o.A); o.A.IsImm {
			f = nConst(d, a.k)
		} else {
			f = func(m *Machine, c *Context) error {
				c.vals[d&valMask] = uint64(uint32(a.read(c)))
				return nil
			}
		}
	case ir.ConstF:
		d = b.deliver(dst, lat)
		f = nConst(d, mach.FBits(o.FImm))
	case ir.Mov, mach.OpMovSF:
		d = b.deliver(dst, lat)
		a := operandOf(o.A)
		f = func(m *Machine, c *Context) error {
			c.vals[d&valMask] = a.read(c)
			return nil
		}
	case ir.Select:
		d = b.deliver(dst, lat)
		cond, then, els := operandOf(o.A), operandOf(o.B), operandOf(o.C)
		f = func(m *Machine, c *Context) error {
			if cond.read(c) != 0 {
				c.vals[d&valMask] = then.read(c)
			} else {
				c.vals[d&valMask] = els.read(c)
			}
			return nil
		}
	case ir.Load, ir.LoadSpec, opSafeLoadI32, opSafeLoadF64:
		d = b.deliver(dst, lat)
		f = compileLoad(o, d, s.kind == o.Kind, s.unitName) // guarded unless the plan rewrote the kind
	case ir.Store, opSafeStoreI32, opSafeStoreF64:
		return compileStore(o, s.kind == o.Kind, s.unitName)
	default:
		name, unitName := mach.OpName(o.Kind), s.unitName
		return func(m *Machine, c *Context) error {
			return m.nFault(c, unitName, TrapBadOp, "cannot execute %s", name)
		}
	}
	if bank, wide := dst.Bank, s.bits(); bank == mach.BankI && wide > 32 || bank == mach.BankB && wide > 1 {
		produce := f
		f = func(m *Machine, c *Context) error {
			err := produce(m, c)
			c.vals[d&valMask] = canonical(bank, c.vals[d&valMask])
			return err
		}
	}
	return f
}

// UseNativeCertificate arms the native tier — the fourth execution tier —
// for every resident context running the certified image: the safe tier's
// graded guard deletion, with the words the run keeps coming back to fused
// into regions. Unproven sites keep exactly the safe tier's guards; exit,
// output, and every Stats counter are bit-identical to the checked, fast,
// and safe tiers. The plan, and the regions built on it, are cached on the
// machine and reused when the same certificate is re-armed after a Reset.
func (m *Machine) UseNativeCertificate(c SafetyCertificate) error {
	return m.armCertified(c, TierNative, "native-tier")
}
