package vliw

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file is the regions, the unit of execution of every tier: a run of
// words in static succession — each the next address or the target of its
// predecessor's unconditional jump, the way the scheduler lays a trace out —
// entered at a head and left at the first branch off that path, a fault, or a
// beat limit. The compiler has already proved when every result lands (§6.2:
// "the destination register is specified when the operation is initiated, and
// a hardware control pipeline carries the destination forward"), so inside a
// region nothing rediscovers it: a region is one stream of micro-ops (uop),
// fixed-size records walked by one loop with one switch, whose operands and
// destinations are indexes of the context's value file (Context.vals) — a
// register and a scratch slot are two addresses in one space. An operation's
// result goes into the region's next slot, and a landing — a record of the
// same stream, at the exact beat the write retires — copies the slot down to
// its register. The retire ring, the per-word counters and the run loop's
// sentinels are all paid per region, not per beat:
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
// stream, TraceFn or InjectWrite armed, every word of every tier takes step's
// whole path (hooked).
//
// The exit-state contract: at every exit — side exit, limit, guarded fault —
// the context is left exactly as the per-word path would have left it at that
// point: registers landed through the current beat, every write still in
// flight in the ring under the retire beat, issuing word and sequence number
// step would have given it, seq and drained to match, and all 23 counters.
// Snapshot, Restore, RunMany rotation and the fuzz oracles are
// tier-independent because of it (TestExitStateMatchesChecked). The one
// exception is a panic contained inside a region — a proven site driven wild
// after certification: the context is left as of the top of the beat whose
// issue panicked and the Fault names no unit (abandonRegion), where the
// per-word path counts the beat through the panicking slot and names it
// (safeTierFault).
//
// A tier is a plan and two dynamic checks. The plan is the base one, every
// reference guarded, or the copy a SafetyCertificate re-kinded (safe and
// native, which are one path). The checks are the checked tier's verdicts, and
// a region never weakens them. The resource verdict is static: a word that has
// one joins no region (buildRegion), so step meets it. The race verdict — two
// writes retiring into one register in one beat — is static between two writes
// of one region, which ends before the word where they meet (races), and
// dynamic where the ring is involved: for the beats after an entry or an event
// in which the ring holds anything (busy), a checked context compares what is
// due in a word's two beats with what the word lands and leaves the region
// before it on a match, for step to fault exactly as it does (raceAhead); and
// on an event it hands the ring everything in flight, so the drain after the
// clock jump compares the whole batch in issue order (regionEvent). The
// certified tiers do neither, and lean on the certificate for it: no two writes
// to one register retire in one beat, and of two in flight together the
// earlier-issued retires first (schedcheck's write-race and waw-overlap
// errors) — so a write may go straight to its register when the beat it would
// have waited is invisible (straight), and after a clock jump the writes in
// flight land by retire beat, not in one batch by issue (landAhead).
//
// Regions are built lazily, the second time the per-word path arrives at a
// word; code that runs once is interpreted once and never laid out. A region
// translates nothing: it copies the records its plan holds, the ones the
// interpreter runs (regionBuilder.issue), so a proven site carries no guard on
// either path, an unproven one the same guard and fault text, and the Go
// runtime's own bounds and divide checks backstop a post-certification
// mutation (safeTierFault). Who owns what: exec (exec.go) says what a kind
// does; runRegion's switch inlines the shapes compacted loops are made of,
// each measured; opBulk says what a slot counts, for both.

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

// uop is the one form of an operation: a slot of the plan (planOp) and a
// record of a region's stream. d, a and b are indexes of the value file; what
// they and the two constants mean is the kind's business. For the value table
// it is dst = f(vals[a]+k1, vals[b]+k2) — an immediate, or no operand, is the
// zero cell plus its value (operand) — and for a memory reference a, b and k1
// are its address sum (address). Where a kind needs more than a record holds —
// a unit name, a value function, a fault text, a third operand — it is in the
// slot: the interpreter has it in hand, and in a region the high half of k2
// indexes region.side.
type uop struct {
	kind    uint8
	d, a, b uint16
	k1, k2  uint64
}

// The micro-op kinds. The first block, but for its first kind, is what
// compacted loops are made of and has its cases in runRegion's switch; that
// kind and the second block go through exec in a region, as every kind a plan
// holds does in the interpreter.
const (
	uValue uint8 = iota // the value table through the slot's fn; its ten commonest shapes, a region's only, follow
	uFAdd
	uFSub
	uFMul
	uAdd
	uSub
	uCmpLT
	uCmpGE
	uCmpEQ
	uCmpNE
	uShl
	uMov   // dst = vals[a]+k1
	uConst // dst = k1
	// The guard-free references, by size; a store's datum is vals[d]+k2.
	uLoad4
	uLoad8
	uStore4
	uStore8
	// A branch to word k2 at the multiway priority in k1's high half, a uBrT
	// if vals[a] plus k1's low half is not zero.
	uBrT
	uJmp
	// The word's second beat begins, and the k1 uLands behind the record are
	// due. A uLand — vals[d] = vals[a], the write region word b issued — is
	// never dispatched: a beat's landings are a counted run, copied when it
	// begins (regionWord.land0 counts the first beat's). Both are a region's
	// only.
	uBeat
	uLand

	uDiv    // a guarded Div or Rem
	uConstI // ConstI of a register: dst = the low word of vals[a]+k1
	uSelect // dst = vals[a]+k1 or vals[b]+k2, by the slot's condition
	uLoad   // the guarded references
	uStore
	uCanon // vals[d] into the canonical form of bank a; a region's only
	uCall  // dst = the link address (k1's low half), then as uJmp if there is a target
	uJmpR  // as uJmp to the word vals[a] plus k1's low half names, if any
	uHalt
	uSyscall
	uBadOp
	uNop // counted and nothing else: a Nop, a test or jump with no target; never in a stream
	numKinds
)

// region is one translated run of words from head (see buildRegion). The flat
// arrays are walked once, front to back, by runRegion; each word records where
// its share of each ends.
type region struct {
	id     int // index into Context.resident
	head   int
	words  []regionWord
	mems   []planMem     // the words' prescan lists, end to end
	uops   []uop         // the stream: per word, beat 0's landings and operations, a uBeat, beat 1's landings and operations
	info   []opInfo      // parallel to uops, read only at a fault: what one at that record leaves
	side   []*planOp     // the slots of the records that go through exec
	lands  []landing     // the stream's landings on their own, for landAhead's cursor
	writes []regionWrite // in issue order; writes[k] is delivered into slot k
	maxLat int32         // the longest latency of a write of the region
}

type regionWord struct {
	pc      int32    // the word's address
	follow  bool     // the next word of the region is not at pc+1: expect the taken branch there
	idle    uint8    // how many words from this one on have nothing to prescan, land or issue and no branch to expect (at most 255)
	idles   uint16   // idle words through this one
	land0   uint16   // the landings of the word's first beat: as many uLands begin its records
	memEnd  int32    // end of the word's references in mems
	landEnd [2]int32 // end of each beat's landings in lands
	mark    int32    // the word's uBeat in uops
	end     int32    // end of the word's records in uops
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
	straight    bool // stored there by its operation, not through a slot (see straight)
	issue, land int32
}

// opInfo is the exit state a fault at a record needs: the unconditional
// counters from region entry through the record itself, and the writes issued
// before it. It is kept out of the record: the loop never reads it.
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

// regionStats counts region traffic, bumped only at region exits and events;
// uops, lands and idle from prefix sums built with the region (traffic).
type regionStats struct {
	built int64 // regions this machine built: the rest of what it ran it found in the plan
	words int64
	uops  int64           // the records of those words in the stream
	lands int64           // the landings among them
	idle  int64           // the idle words among words
	by    [numExits]int64 // exits and events, by cause
}

// RegionSummary renders the region counters for this run, on whichever tier:
// regions run and how many of them this machine built (the others were in the
// plan, built by whoever ran it before), words run in regions and on the
// per-word path, region exits by cause, the words on which a region met
// something dynamic, by cause, and what the words run in regions are made of:
// stream records per word, the share of landings among them, the share of idle
// words.
func (m *Machine) RegionSummary() string {
	r, n := &m.regions, &m.regions.by
	per := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	return fmt.Sprintf("%d regions run, %d built here; %d words in regions, %d per word; exits: %d branch, %d limit, %d fault; events: %d tlb, %d bank, %d refill; %.1f micro-ops/word, %.0f %% landings, %.0f %% of words empty",
		m.regionsRun(), r.built, r.words, m.Stats.Instrs-r.words, n[exitBranch], n[exitLimit], n[exitFault], n[exitTLB], n[exitBank], n[exitRefill],
		per(r.uops, r.words), 100*per(r.lands, r.uops), 100*per(r.idle, r.words))
}

// regionsRun counts the regions the resident contexts have entered since the
// machine was Reset, a region two contexts ran once: an entry of a context's
// residency table is stamped with an eviction count (residentWords), and
// Context.reset moves that count past everything an earlier run stamped.
func (m *Machine) regionsRun() int {
	type key struct {
		p  *Plan
		id int
	}
	ran := map[key]bool{}
	for _, c := range m.ctxs {
		for id, res := range c.resident {
			if res.epoch >= c.fresh {
				ran[key{c.plan, id}] = true
			}
		}
	}
	return len(ran)
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

func (b statsBulk) apply(s *Stats) {
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

// opBulk is what a slot counts, on every tier: its unconditional counter
// contribution, by unit and opcode — a proven site counts what the guarded one
// does, a test with nowhere to go is still a branch.
func opBulk(s *planOp) statsBulk {
	b := statsBulk{ops: 1}
	switch k := s.op.Kind; {
	case s.unit.Kind == mach.UBR:
		switch k {
		case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR:
			b.branches = 1
		case mach.OpSyscall:
			b.syscalls = 1
		}
	case k == ir.Load, k == ir.LoadSpec:
		b.memRefs, b.loads = 1, 1
		if k == ir.LoadSpec {
			b.specLoads = 1
		}
	case k == ir.Store:
		b.memRefs, b.stores = 1, 1
	default:
		if v := mach.ValueOf(k); v != nil && v.Flop {
			b.floatOps = 1
		}
	}
	return b
}

// noRegion is what a head holds once it is settled that no region will be built
// there: a region of no words, which advance leaves to the per-word path.
var noRegion = new(region)

// arrive notes one arrival of the per-word path at word pc, a head with nothing
// published yet, and, on the regionHeat'th, builds the region headed there and
// publishes it — or noRegion, when the plan's regions already hold regionBudget
// times the image, or the word is one no region takes (buildRegion). It is the
// cold path, the only writer of the region table, and any number of machines
// may be on it or running the plan's regions at once: the arrivals are counted
// and the region built under the plan's lock, a head is written once, and what
// it then points at never changes. built says this call built the region.
func (p *Plan) arrive(pc int) (r *region, built bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r = p.heads[pc].Load(); r != nil {
		return r, false // another machine got here first
	}
	if p.heat[pc]++; p.heat[pc] < regionHeat {
		return nil, false
	}
	r = noRegion
	if p.regionWords < regionBudget*len(p.words) {
		if b := p.buildRegion(pc); len(b.words) != 0 {
			b.id = p.regions
			p.regions++
			p.regionWords += len(b.words)
			p.regionBytes += b.bytes()
			r, built = b, true
		}
	}
	p.heads[pc].Store(r)
	return r, built
}

// bytes estimates what the region holds in memory (Plan.Bytes).
func (r *region) bytes() int64 {
	return int64(unsafe.Sizeof(*r)) +
		int64(len(r.words))*int64(unsafe.Sizeof(regionWord{})) +
		int64(len(r.mems))*memBytes +
		int64(len(r.uops))*int64(unsafe.Sizeof(uop{})+unsafe.Sizeof(opInfo{})) +
		int64(len(r.side))*8 +
		int64(len(r.lands))*int64(unsafe.Sizeof(landing{})) +
		int64(len(r.writes))*int64(unsafe.Sizeof(regionWrite{}))
}

// regionBuilder carries the position of the slot being laid out.
type regionBuilder struct {
	p      *Plan
	r      *region
	beat   int32     // its issue beat, relative to region entry
	direct bool      // the op in hand writes straight to its register (see straight)
	bulk   statsBulk // the counters of every slot laid out so far
	due    [][]int32 // by region beat: the writes that land there through a slot, in issue order
}

// emit appends a record to the stream; issued is how many writes the region
// has issued when it runs.
func (b *regionBuilder) emit(u uop, issued int) {
	b.r.uops = append(b.r.uops, u)
	b.r.info = append(b.r.info, opInfo{bulk: b.bulk, writes: int32(issued)})
}

// word lays word pc out as the region's next word: per beat the landings
// due, then the beat's slots in order, with a uBeat between the two beats.
func (b *regionBuilder) word(pc int) {
	p, r := b.p, b.r
	ws := &p.slots[pc]
	rw := regionWord{pc: int32(pc), line: int32(pc & p.itagMask)}
	if p.itagMask < 0 {
		rw.line = int32(pc % p.icache)
	}
	r.mems = append(r.mems, p.words[pc].mem...)
	rw.memEnd = int32(len(r.mems))
	for beat := range ws.beats {
		b.beat = int32(2*len(r.words) + beat)
		due := b.due[b.beat] // the writes that land at this beat, in issue order
		if beat == 0 {
			rw.land0 = uint16(len(due))
		} else {
			rw.mark = int32(len(r.uops))
			b.emit(uop{kind: uBeat, k1: uint64(len(due))}, len(r.writes))
		}
		for _, k := range due {
			wr := &r.writes[k]
			l := landing{slot: uint16(slotBase + k), word: uint16(wr.issue >> 1), dst: uint16(wr.dst.Index())}
			r.lands = append(r.lands, l)
			b.emit(uop{kind: uLand, d: l.dst, a: l.slot, b: l.word}, len(r.writes))
		}
		rw.landEnd[beat] = int32(len(r.lands))
		for i := range ws.beats[beat] {
			s := &ws.beats[beat][i]
			b.direct = b.straight(ws.beats[beat], i)
			b.bulk.add(opBulk(s))
			b.issue(s)
		}
	}
	rw.end = int32(len(r.uops))
	rw.wrEnd = int32(len(r.writes))
	rw.bulk = b.bulk
	r.words = append(r.words, rw)
}

// races reports whether, with word pc laid out next, two of the region's writes
// would reach one register in one beat of it: two landings, or a landing and a
// write of the word's first beat that takes one beat — straight or not, it is
// there by the second. That is the interpreter's write-write race.
func (b *regionBuilder) races(pc int) bool {
	var dsts []mach.PReg
	for beat := range 2 {
		dsts = dsts[:0]
		for _, k := range b.due[2*len(b.r.words)+beat] {
			dsts = append(dsts, b.r.writes[k].dst)
		}
		if beat == 1 {
			for i := range b.p.slots[pc].beats[0] {
				if s := &b.p.slots[pc].beats[0][i]; s.dst.Valid() && s.lat == 1 {
					dsts = append(dsts, s.dst)
				}
			}
		}
		for i, d := range dsts {
			if slices.Contains(dsts[:i], d) {
				return true
			}
		}
	}
	return false
}

// deliver issues the write the slot in hand makes to dst, landing lat beats on,
// and returns the index its record stores the result at: the next scratch
// slot — or the register itself, for a straight write. A write that lands
// inside the region through a slot is put down for its beat's landings.
func (b *regionBuilder) deliver(dst mach.PReg, lat int64) uint16 {
	k, land := len(b.r.writes), b.beat+int32(lat)
	b.r.writes = append(b.r.writes, regionWrite{dst: dst, straight: b.direct, issue: b.beat, land: land})
	b.r.maxLat = max(b.r.maxLat, int32(lat))
	if b.direct {
		return uint16(dst.Index())
	}
	if int(land) < len(b.due) {
		b.due[land] = append(b.due[land], int32(k))
	}
	return uint16(slotBase + k)
}

// aside files s in the region's side table and returns its index as the high
// half of a record's k2.
func (b *regionBuilder) aside(s *planOp) uint64 {
	b.r.side = append(b.r.side, s)
	return uint64(len(b.r.side)-1) << 32
}

// transfers reports whether word pc always transfers control and — when all
// that always does is one unconditional jump — where to.
func (p *Plan) transfers(pc int) (always bool, jump int) {
	jump = -1
	for beat := range p.slots[pc].beats {
		for i := range p.slots[pc].beats[beat] {
			s := &p.slots[pc].beats[beat][i]
			if s.unit.Kind != mach.UBR {
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

// buildRegion lays out the run of words from head: each word's successor is
// the next word, or the target of the word's unconditional jump, up to and
// including the first word that otherwise always transfers control (a call, an
// indirect jump, a halt, a jump back into the run), and never out of the
// head's instruction page (one iTLB lookup covers the region), past
// regionMaxWords, or past what the scratch slots can hold. The scheduler
// lays a trace out as fall-through segments joined by such jumps; a segment
// reached by one joins the run whole or not at all, so a region ends where a
// trace does. A word whose successor in the region is not the next address
// expects the taken branch there (follow) and carries on when it is taken.
// The words are laid out in one pass, landings and all: a write lands at
// least a beat after it issues, so every landing of a beat is known when the
// builder gets there.
//
// Two kinds of word are left to the per-word path, whatever tier will run the
// region, because the checked tier has a verdict on them that only the
// interpreter gives: a word with a static resource verdict never joins a
// region, and a region ends before the word in which two of its own writes
// reach one register in one beat (races). Neither exists in an image
// schedcheck certifies. A head that is such a word yields a region of no words.
func (p *Plan) buildRegion(head int) *region {
	r := &region{head: head, maxLat: 1}
	b := regionBuilder{p: p, r: r}
	page := head / (PageSize / 4)
	var run []int // the run, by address
	writes := 0   // the most it can issue
	for pc := head; pc >= 0; {
		seg, segWrites, whole := len(run), writes, false
		for !whole && len(run) < regionMaxWords && pc < len(p.words) && pc/(PageSize/4) == page && p.slots[pc].viol == [2]*resViol{} {
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
	// A write landing past the last beat is in flight at every exit and has no
	// landing; the others are put down by landing beat as they are issued.
	b.due = make([][]int32, 2*len(run))
	for _, pc := range run {
		if b.races(pc) {
			break
		}
		b.word(pc)
	}
	var flight int32
	var idles uint16
	for w := range r.words {
		rw := &r.words[w]
		var before regionWord // its ends are the starts of the first word's shares
		if w > 0 {
			before = r.words[w-1]
		}
		rw.follow = w+1 < len(r.words) && r.words[w+1].pc != rw.pc+1
		if rw.end == before.end+1 && rw.memEnd == before.memEnd && !rw.follow {
			rw.idle = 1
			idles++
		}
		rw.idles = idles
		for int(flight) < len(r.writes) && int(r.writes[flight].land) < 2*w {
			flight++
		}
		rw.flight = flight
	}
	for w := len(r.words) - 2; w >= 0; w-- {
		if rw := &r.words[w]; rw.idle != 0 {
			rw.idle += min(r.words[w+1].idle, 254)
		}
	}
	// A region is kept for as long as its image is: give back what append left
	// spare.
	r.words, r.mems, r.uops, r.info = slices.Clone(r.words), slices.Clone(r.mems), slices.Clone(r.uops), slices.Clone(r.info)
	r.side, r.lands, r.writes = slices.Clone(r.side), slices.Clone(r.lands), slices.Clone(r.writes)
	return r
}

// hooked reports whether anything is armed that must see every word or every
// retiring write, or that moves the clock between words; every tier then
// stays on the per-word path.
func (m *Machine) hooked() bool {
	return m.InjectWrite != nil || m.TraceFn != nil || m.InterruptEvery > 0 || m.dmaRate > 0
}

// advance executes the next unit of work of a context, on any tier, never
// starting a word at or after beat until (which must lie past c.beat):
// the region headed at c.pc, when there is one and nothing is hooked,
// otherwise one step.
// eager stops a region after a word that met something dynamic, as the
// scheduler rotates on one while another context is live.
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
			r := p.heads[c.pc].Load()
			if r == nil {
				var built bool
				if r, built = p.arrive(c.pc); built {
					m.regions.built++
				}
			}
			if r != nil && len(r.words) != 0 {
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
//
// A word is its records of the stream: each beat begins by copying down the
// run of landings due, and the operations — with the uBeat between the two
// beats — are dispatched by the one switch below. The ring and landAhead have
// something for a beat only for the image's longest latency after the entry or
// an event (busy, tightened to what the ring really holds the first time an
// idle word asks); once past it, a run of idle words — nothing to prescan,
// land or issue, each followed by the next address — only moves the clock.
// Inside it an idle word is a word like any other, whose one record is its
// uBeat.
func (m *Machine) runRegion(c *Context, r *region, w int, until int64, eager bool) error {
	n := min(w+wordsBefore(until, c.beat), len(r.words))
	resident := c.residentWords(r)
	c.run = regionRun{r: r, base: c.beat - int64(2*w), seq: c.seq - uint32(r.firstWrite(int32(w))), start: int32(w), floor0: int32(w), floor: int32(w)}
	run := &c.run
	g := &c.plan.geom
	m.brTaken, m.brHalt = false, false

	uops, vals := r.uops, &c.vals // locals: a store into the value file could, for all the compiler knows, change r.uops
	floor := uint16(run.floor)
	// What is in the ring retires within the image's longest latency, what an
	// event leaves within the region's: past beat busy no beat looks at either.
	busy := c.beat + c.plan.maxLat
	cause := exitLimit
	var mi, ui int
	if w > 0 {
		mi, ui = int(r.words[w-1].memEnd), int(r.words[w-1].end)
	}
	for ; w < n; w++ {
		rw := &r.words[w]
		if k := int(rw.idle); k != 0 && w < resident {
			if c.beat <= busy && run.ahead >= run.stop {
				busy = c.lastDue() // the bound was the longest latency; the ring knows better
			}
			if c.beat > busy {
				k = min(k, n-w, resident-w)
				c.beat += int64(2 * k)
				ui += k // their uBeats
				w += k - 1
				continue
			}
		}
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
			if err := m.regionEvent(c, w, event); err != nil {
				return err
			}
			mi, floor, busy = int(rw.memEnd), uint16(run.floor), max(busy, c.beat+int64(r.maxLat))
			resident = max(c.residentWords(r), w+1)
			if n = min(w+1+wordsBefore(until, c.beat+2), len(r.words)); eager {
				n = w + 1
			}
		}
		if c.beat <= busy {
			if c.tier == TierChecked && c.raceAhead(w, ui) {
				return m.leaveBefore(c, w)
			}
			if c.rcount[c.beat&c.rmask] != 0 {
				c.landBucket()
			}
			if run.ahead < run.stop {
				c.landAhead(int64(2 * w))
			}
		}
		ui += land(vals, uops[ui:ui+int(rw.land0)], floor)
		for end := int(rw.end); ui < end; ui++ {
			u := &uops[ui]
			switch u.kind {
			case uFAdd:
				vals[u.d&valMask] = math.Float64bits(math.Float64frombits(vals[u.a&valMask]+u.k1) + math.Float64frombits(vals[u.b&valMask]+u.k2))
			case uFSub:
				vals[u.d&valMask] = math.Float64bits(math.Float64frombits(vals[u.a&valMask]+u.k1) - math.Float64frombits(vals[u.b&valMask]+u.k2))
			case uFMul:
				vals[u.d&valMask] = math.Float64bits(math.Float64frombits(vals[u.a&valMask]+u.k1) * math.Float64frombits(vals[u.b&valMask]+u.k2))
			case uAdd:
				vals[u.d&valMask] = mach.IBits(int32(vals[u.a&valMask]+u.k1) + int32(vals[u.b&valMask]+u.k2))
			case uSub:
				vals[u.d&valMask] = mach.IBits(int32(vals[u.a&valMask]+u.k1) - int32(vals[u.b&valMask]+u.k2))
			case uCmpLT:
				vals[u.d&valMask] = mach.BoolBits(int32(vals[u.a&valMask]+u.k1) < int32(vals[u.b&valMask]+u.k2))
			case uCmpGE:
				vals[u.d&valMask] = mach.BoolBits(int32(vals[u.a&valMask]+u.k1) >= int32(vals[u.b&valMask]+u.k2))
			case uCmpEQ:
				vals[u.d&valMask] = mach.BoolBits(int32(vals[u.a&valMask]+u.k1) == int32(vals[u.b&valMask]+u.k2))
			case uCmpNE:
				vals[u.d&valMask] = mach.BoolBits(int32(vals[u.a&valMask]+u.k1) != int32(vals[u.b&valMask]+u.k2))
			case uShl:
				vals[u.d&valMask] = mach.IBits(int32(vals[u.a&valMask]+u.k1) << mach.ShiftCount(int32(vals[u.b&valMask]+u.k2)))
			case uMov:
				vals[u.d&valMask] = vals[u.a&valMask] + u.k1
			case uConst:
				vals[u.d&valMask] = u.k1
			case uLoad4:
				vals[u.d&valMask] = c.load(u.ea(c), 4)
			case uLoad8:
				vals[u.d&valMask] = c.load(u.ea(c), 8)
			case uStore4:
				m.store(c, u.ea(c), 4, vals[u.d&valMask]+u.k2)
			case uStore8:
				m.store(c, u.ea(c), 8, vals[u.d&valMask]+u.k2)
			case uBrT:
				if vals[u.a&valMask]+uint64(uint32(u.k1)) != 0 {
					m.takeBranch(u.prio(), int(u.k2))
				}
			case uJmp:
				m.takeBranch(u.prio(), int(u.k2))
			case uBeat:
				if c.beat++; c.beat <= busy {
					if c.rcount[c.beat&c.rmask] != 0 {
						c.landBucket()
					}
					if run.ahead < run.stop {
						c.landAhead(int64(2*w + 1))
					}
				}
				ui += land(vals, uops[ui+1:ui+1+int(u.k1)], floor)
			default:
				if err := m.exec(c, r.side[u.k2>>32], u); err != nil {
					in := &r.info[ui]
					m.leaveRegion(c, w+1, int32(c.beat-run.base), in.writes, in.bulk, exitFault)
					return err
				}
			}
		}
		c.beat++
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

// raceAhead is the checked tier's race verdict on region word w, about to
// issue at c.beat with its records at ui: whether a write the ring holds retires
// in one of the word's two beats into a register that another write reaches in
// that beat — one of the ring's too, a landing out of a slot (the ring has the
// writes from before the run's floor), or a straight write of the word, which
// is there by its second beat. Two writes of the region's own never do (races).
func (c *Context) raceAhead(w, ui int) bool {
	if c.rcount[c.beat&c.rmask]|c.rcount[(c.beat+1)&c.rmask] == 0 {
		return false
	}
	r, floor := c.run.r, uint16(c.run.floor)
	rw := &r.words[w]
	lands := r.uops[ui : ui+int(rw.land0)]
	for beat := range int64(2) {
		due := c.bucket(c.beat + beat)
		for i := range due {
			d := due[i].dst
			for j := range due[:i] {
				if due[j].dst == d {
					return true
				}
			}
			for _, l := range lands {
				if l.b >= floor && int(l.d) == d.Index() {
					return true
				}
			}
			if beat == 1 {
				for _, wr := range r.writes[r.firstWrite(int32(w)):rw.wrEnd] {
					if wr.straight && wr.dst == d {
						return true
					}
				}
			}
		}
		lands = r.uops[rw.mark+1:][:r.uops[rw.mark].k1]
	}
	return false
}

// leaveBefore leaves c's region before its word w, as at a limit, for the
// interpreter to issue the word: its drain gives the race verdict.
func (m *Machine) leaveBefore(c *Context, w int) error {
	bulk, issued := c.run.r.through(w)
	m.leaveRegion(c, w, int32(2*w-1), issued, bulk, exitLimit)
	return m.step(c, true)
}

// through is what the region's first w words count and how many writes they
// issue.
func (r *region) through(w int) (statsBulk, int32) {
	if w == 0 {
		return statsBulk{}, 0
	}
	return r.words[w-1].bulk, r.words[w-1].wrEnd
}

// land copies down the results a run of uLands names, of the words from floor
// on — the rest were never in their slots — and returns how many it was given.
func land(vals *[valSize]uint64, lands []uop, floor uint16) int {
	for i := range lands {
		if l := &lands[i]; l.b >= floor {
			vals[l.d&valMask] = vals[l.a&valMask]
		}
	}
	return len(lands)
}

// ea is a reference record's address as the registers stand (address.at).
func (u *uop) ea(c *Context) int64 {
	return int64(int32(c.vals[u.a&valMask])) + int64(int32(c.vals[u.b&valMask])) + int64(u.k1)
}

// prio is a branch record's multiway priority.
func (u *uop) prio() int { return int(int32(u.k1 >> 32)) }

// regionEvent is what a region does about a word on which something dynamic
// happens — an iTLB or icache miss, a dTLB miss, a busy bank. step fetches the
// word and charges what it costs, short of issuing it, and the region resumes
// at the same word with the clock rebased. What was in flight keeps its
// retire beats, which are now that many beats ahead of the region's schedule,
// and stays in its slots: landAhead lands it from there, beginning, with the word's first beat, with
// everything the unplanned beats made due. (What an earlier event left to
// landAhead and is still in flight goes to the ring first: there is one such
// run of writes.)
//
// A drain after a clock jump lands its writes in issue order; landAhead lands
// by retire beat. The two differ only for two writes to one register in
// flight together with the earlier-issued retiring later, which the
// certificate excludes (schedcheck's waw-overlap error).
func (m *Machine) regionEvent(c *Context, w, event int) error {
	run := &c.run
	c.spillAhead(int32(2*w - 1))
	if c.tier == TierChecked {
		// The race verdict is on a drain's whole batch, in issue order: the
		// ring gets everything in flight and land compares it, as in step.
		c.spill(run.r.firstWrite(run.floor), run.r.firstWrite(int32(w)), int64(2*w-1), run.base)
		run.floor = int32(w)
	}
	run.floor0, run.floor = run.floor, int32(w)
	run.front++
	m.regions.by[event]++

	before := c.beat
	c.drained = before - 1
	_ = m.step(c, false) // c.pc is a word of the region: no fetch fault
	var err error
	if c.drained+1 != c.beat {
		err = m.drainJump(c)
	}
	run.shift = c.beat - before
	run.base = c.beat - int64(2*w)
	// landAhead starts at the word's first landing.
	run.ahead, run.stop = 0, run.r.landEndAt(int64(2*w)+int64(run.r.maxLat))
	if w > 0 {
		run.ahead = run.r.words[w-1].landEnd[1]
	}
	if run.floor0 == run.floor {
		run.stop = run.ahead // nothing waits in a slot: a checked context's is all in the ring
	}
	if err != nil {
		// The region is left with the word fetched and nothing of it issued.
		bulk, issued := run.r.through(w)
		m.leaveRegion(c, w+1, int32(2*w), issued, bulk, exitFault)
	}
	return err
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

// lastDue is the last beat at which a write in the ring retires, the beat
// before the current one when the ring is empty.
func (c *Context) lastDue() int64 {
	for off := c.rmask; off >= 0; off-- {
		if c.rcount[(c.beat+off)&c.rmask] != 0 {
			return c.beat + off
		}
	}
	return c.beat - 1
}

// landBucket retires the ring bucket due at the current beat: what was in
// flight when the region was entered. No hook is armed in a region, and a
// checked context has already compared the bucket (raceAhead), so the writes
// simply land.
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
	uops, lands, idle := run.r.traffic(int(run.start) + words)
	uops0, lands0, idle0 := run.r.traffic(int(run.start))
	m.regions.words += int64(words)
	m.regions.uops += uops - uops0
	m.regions.lands += lands - lands0
	m.regions.idle += idle - idle0
	m.regions.by[cause]++
	run.r = nil
}

// traffic is what the region's first n words hold of the stream — records,
// and the landings among them — and how many of the words are idle (whose one
// record, a uBeat, counts though the clock may pass it without a dispatch).
func (r *region) traffic(n int) (uops, lands, idle int64) {
	if n == 0 {
		return 0, 0, 0
	}
	rw := &r.words[n-1]
	return int64(rw.end), int64(rw.landEnd[1]), int64(rw.idles)
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
	first := int32(0) // the first record of the beat in hand
	switch {
	case landed&1 == 1:
		first = r.words[w].mark
	case w > 0:
		first = r.words[w-1].end
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

// fastShapes are the value-table opcodes with a case of their own in
// runRegion's switch, the ones that dominate compacted inner loops: a region
// gives a plan's uValue record of one of them its kind. The rest of the table
// stays uValue, the zero kind. (An array of constants: a map
// literal is an init function at the head of the package's text, and moved
// every loop of the interpreter by half a cache line — −5 % on systems-hot.)
var fastShapes = [...]uint8{
	ir.FAdd: uFAdd, ir.FSub: uFSub, ir.FMul: uFMul, ir.Add: uAdd, ir.Sub: uSub,
	ir.CmpLT: uCmpLT, ir.CmpGE: uCmpGE, ir.CmpEQ: uCmpEQ, ir.CmpNE: uCmpNE, ir.Shl: uShl,
}

// reads reports whether slot s may read register r when it issues.
func (s *planOp) reads(r mach.PReg) bool {
	if s.kind == uSyscall || s.kind == uHalt {
		return true // argument and result registers, not named as operands
	}
	for _, a := range [...]mach.Arg{s.op.A, s.op.B, s.op.C} {
		if !a.IsImm && a.Reg == r {
			return true
		}
	}
	return false
}

// mayFault reports whether slot s's record can return a fault.
func (s *planOp) mayFault() bool {
	switch s.kind {
	case uDiv, uStore, uSyscall, uBadOp:
		return true
	case uLoad:
		return s.op.Kind != ir.LoadSpec
	}
	return false
}

// straight reports whether the write slot i of a beat's issue list makes can
// go straight to its register — the same record, with the register's index
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
	if b.beat&1 != 0 || s.lat != 1 || s.unit.Kind == mach.UBR {
		return false
	}
	for j := range ops {
		if j != i && (ops[j].dst == s.dst || j > i && (ops[j].reads(s.dst) || ops[j].mayFault())) {
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
	case uValue, uDiv:
		switch {
		case mach.ValueOf(o.Kind).FloatOut:
			return 64
		case o.Kind.IsCompare():
			return 1
		}
		return 32
	case uConstI, uCall, uLoad4:
		return 32
	case uConst:
		if o.Kind == ir.ConstI {
			return 32
		}
	case uMov:
		return argBits(o.A)
	case uSelect:
		return max(argBits(o.B), argBits(o.C))
	case uLoad:
		if o.Type == ir.I32 {
			return 32
		}
	}
	return 64
}

// issue copies slot s's record into the stream: the plan's translation as it
// stands — a proven site's guard-free kind included — with the result aimed
// where deliver says, a value-table opcode of fastShapes given its kind, and the
// slot filed in side for a kind that goes through exec. What a record stores
// must be canonical for the destination's bank, because a landing is a plain
// copy and a straight write is final. It is by construction wherever the result
// is no wider than the bank (bits); an image that moves a float into an integer
// register, or an integer into the branch bank, gets a uCanon behind the
// producer (such a write, caught in flight by a region exit, is in the ring as
// the register will hold it, where the interpreter's is as the operation
// produced it).
func (b *regionBuilder) issue(s *planOp) {
	u, issued := s.uop, len(b.r.writes)
	if u.kind == uNop {
		return
	}
	if u.kind == uValue && int(s.op.Kind) < len(fastShapes) {
		u.kind = fastShapes[s.op.Kind]
	}
	if s.dst.Valid() {
		u.d = b.deliver(s.dst, s.lat)
	}
	if u.kind == uValue || u.kind > uLand {
		u.k2 |= b.aside(s)
	}
	b.emit(u, issued)
	if bank, wide := s.dst.Bank, s.bits(); bank == mach.BankI && wide > 32 || bank == mach.BankB && wide > 1 {
		b.emit(uop{kind: uCanon, d: u.d, a: uint16(bank), k2: b.aside(s)}, len(b.r.writes))
	}
}

// UseNativeCertificate arms the native tier — the fourth execution tier —
// for every resident context running the certified image. It runs exactly as
// the safe tier does (every tier fuses the words a run keeps coming back to
// into regions of its plan); the name is kept for its callers. Unproven sites
// keep their guards; exit, output, and every Stats counter are bit-identical
// to the other tiers. The certified plan, and the regions built on it, are the
// image's plan's to keep (Plan.certified), for whichever machine arms the
// certificate next.
func (m *Machine) UseNativeCertificate(c SafetyCertificate) error {
	return m.armCertified(c, TierNative, "native-tier")
}
