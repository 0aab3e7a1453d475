package vliw

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/safecheck"
)

// regionSrc is two hot loops with loads, stores and float pipelines: enough
// for the native tier to build regions and for every hook to have events.
const regionSrc = `
var a [512]float
var n [512]int
func main() int {
	for (var i int = 0; i < 512; i = i + 1) { a[i] = float(i) * 0.5; n[i] = i & 7 }
	var s float = 0.0
	var k int = 0
	for (var r int = 0; r < 4; r = r + 1) {
		for (var i int = 0; i < 512; i = i + 1) { s = s + a[i]; k = k + n[i]; n[i] = k & 15 }
	}
	return (int(s) + k) & 65535
}`

// head is the region the plan has published at word pc, nil when it has none.
func (p *Plan) head(pc int) *region {
	if r := p.heads[pc].Load(); r != noRegion {
		return r
	}
	return nil
}

// warmNative returns a native machine that has run regionSrc once, so its
// regions are built, Reset and re-armed.
func warmNative(t *testing.T) (*Machine, *Stats) {
	t.Helper()
	img := build(t, regionSrc, mach.Trace14())
	cert, err := safecheck.Certify(img)
	if err != nil {
		t.Fatal(err)
	}
	m := New(img)
	rearm := func() {
		m.Reset(img)
		if err := m.UseNativeCertificate(cert); err != nil {
			t.Fatal(err)
		}
	}
	rearm()
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ref := m.Stats
	if m.regions.built == 0 || m.regions.words < ref.Instrs/2 {
		t.Fatalf("the warm-up run built %d regions and ran %d of %d words in them", m.regions.built, m.regions.words, ref.Instrs)
	}
	rearm()
	return m, &ref
}

// TestHooksKeepNativePerWord: every hook that must see each word or each
// retiring write, or that moves the clock between words, keeps a native
// machine on the per-word path even though its regions are already built —
// and so sees every event, as on any other tier.
func TestHooksKeepNativePerWord(t *testing.T) {
	checked := New(build(t, regionSrc, mach.Trace14()))
	retired := 0
	checked.InjectWrite = func(_ int64, _ mach.PReg, v uint64) uint64 { retired++; return v }
	if _, _, err := checked.Run(); err != nil {
		t.Fatal(err)
	}

	t.Run("TraceFn", func(t *testing.T) {
		m, ref := warmNative(t)
		var words int64
		last := int64(-1)
		m.TraceFn = func(pc int, beat int64) {
			words++
			if beat <= last {
				t.Fatalf("word %d traced at beat %d after beat %d", pc, beat, last)
			}
			last = beat
		}
		if _, _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if words != ref.Instrs || m.Stats != *ref || m.regions.words != 0 {
			t.Fatalf("TraceFn saw %d of %d words (%d ran in regions); stats %+v, want %+v", words, ref.Instrs, m.regions.words, m.Stats, *ref)
		}
	})
	t.Run("InjectWrite", func(t *testing.T) {
		m, ref := warmNative(t)
		seen := 0
		m.InjectWrite = func(_ int64, _ mach.PReg, v uint64) uint64 { seen++; return v }
		if _, _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if seen != retired || m.Stats != *ref || m.regions.words != 0 {
			t.Fatalf("InjectWrite saw %d of %d retiring writes (%d words ran in regions)", seen, retired, m.regions.words)
		}
	})
	t.Run("InterruptEvery", func(t *testing.T) {
		m, _ := warmNative(t)
		c := New(m.Img)
		var fired [2]int
		for i, x := range []*Machine{c, m} {
			x.InterruptEvery = 500
			x.OnInterrupt = func(*Machine) { fired[i]++ }
			if _, _, err := x.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if fired[0] == 0 || fired[0] != fired[1] || m.Stats != c.Stats || m.regions.words != 0 {
			t.Fatalf("timer fired %d times on checked, %d on native; stats %+v vs %+v", fired[0], fired[1], c.Stats, m.Stats)
		}
	})
	t.Run("DMA", func(t *testing.T) {
		m, _ := warmNative(t)
		c := New(m.Img)
		for _, x := range []*Machine{c, m} {
			x.StartDMA(ir.GlobalBase, 4096, 1e8)
			if _, _, err := x.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if c.Stats.DMARefs == 0 || m.Stats != c.Stats || m.regions.words != 0 {
			t.Fatalf("DMA stream: checked %+v vs native %+v", c.Stats, m.Stats)
		}
	})
}

// TestWatchStoreInsideRegions: WatchStore does not need the per-word path;
// the store micro-ops of a region honour it.
func TestWatchStoreInsideRegions(t *testing.T) {
	m, ref := warmNative(t)
	var stores int64
	m.WatchStore = func(ea int64, _ uint64) {
		if ea < ir.GlobalBase {
			t.Fatalf("store to %#x", ea)
		}
		stores++
	}
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if stores != ref.Stores || m.Stats != *ref {
		t.Fatalf("WatchStore saw %d of %d stores", stores, ref.Stores)
	}
	if m.regions.words < ref.Instrs/2 {
		t.Fatalf("WatchStore pushed the run off its regions: %d of %d words ran in them", m.regions.words, ref.Instrs)
	}
}

// TestSafePlanBuildsItsOwnRegions: a certificate armed on a machine whose
// checked run has already built regions — the order a pooled machine meets its
// tiers in — runs on a plan with region tables of its own. Regions copy their
// plan's records: run from the base plan's, a proven site would keep its guard.
func TestSafePlanBuildsItsOwnRegions(t *testing.T) {
	img := build(t, regionSrc, mach.Trace14())
	cert, err := safecheck.Certify(img)
	if err != nil {
		t.Fatal(err)
	}
	m := New(img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	checked, base := m.Stats, m.ctxs[0].plan
	if base.regions == 0 || m.regions.built != int64(base.regions) {
		t.Fatalf("the checked run built %d regions, its plan holds %d", m.regions.built, base.regions)
	}
	m.Reset(img)
	if err := m.UseNativeCertificate(cert); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	safe := m.ctxs[0].plan
	if m.Stats != checked || safe == base || safe.regions == 0 || m.regions.built != int64(safe.regions) {
		t.Fatalf("the native run built %d regions, its plan holds %d (stats %+v, want %+v)", m.regions.built, safe.regions, m.Stats, checked)
	}
	guardFree := 0
	for pc := range safe.heads {
		r := safe.head(pc)
		if r == nil {
			continue
		}
		if r == base.head(pc) {
			t.Fatalf("the region headed at word %d is the base plan's", pc)
		}
		for _, u := range r.uops {
			switch u.kind {
			case uLoad, uStore:
				t.Fatalf("the region headed at word %d keeps a guarded reference: every site of this image is proven", pc)
			case uLoad4, uLoad8, uStore4, uStore8:
				guardFree++
			}
		}
	}
	if guardFree == 0 {
		t.Fatal("no region of the safe plan holds a guard-free reference")
	}
}

// TestRegionSummary: the counters tracesim prints add up, after a run and
// after a RunMany (tracesim -contexts prints the same line from the same
// machine).
func TestRegionSummary(t *testing.T) {
	m, ref := warmNative(t)
	check := func(what string, instrs int64) {
		t.Helper()
		r, sum := &m.regions, m.RegionSummary()
		// A Reset empties the icache, so warm regions meet refills.
		if r.by[exitBranch]+r.by[exitLimit] == 0 || r.by[exitRefill] == 0 || r.words > instrs || r.words < instrs/2 {
			t.Errorf("%s: %s", what, sum)
		}
		// Every word run in a region that is not idle dispatches at least its
		// beat marker; a landing is a record; the loops of regionSrc wait on
		// their loads, so some words are empty and some records are landings.
		if r.uops < r.words-r.idle || r.lands == 0 || r.lands >= r.uops || r.idle == 0 || r.idle >= r.words {
			t.Errorf("%s: %d micro-ops, %d landings, %d idle words of %d: %s", what, r.uops, r.lands, r.idle, r.words, sum)
		}
		if !strings.Contains(sum, "micro-ops/word") || !strings.Contains(sum, "% landings") || !strings.Contains(sum, "% of words empty") {
			t.Errorf("%s: %s", what, sum)
		}
	}
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	check("Run", ref.Instrs)
	solo := m.regions

	cert := m.ctxs[0].plan.cert
	if err := m.ResetMany([]*isa.Image{m.Img, m.Img}); err != nil {
		t.Fatal(err)
	}
	if err := m.UseNativeCertificate(cert); err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunMany(context.Background())
	if err != nil || rs[0].Err != nil || rs[1].Err != nil {
		t.Fatal(err, rs)
	}
	check("RunMany", 2*ref.Instrs)
	if m.Stats.Instrs != 2*ref.Instrs || m.regions.idle != 2*solo.idle {
		t.Errorf("two contexts ran %d words, %d of them idle in regions; one runs %d and %d", m.Stats.Instrs, m.regions.idle, ref.Instrs, solo.idle)
	}
}

// The cases below pin what the golden matrix visits only by luck: hand-built
// schedules (the helpers and the register file of microop_test.go) whose
// words are empty, or land exactly so many results in one beat, run on the
// per-word interpreter and on a checked and a native machine whose regions, if
// they run any, are warm.

// handImage links an empty program and replaces its code with the words given
// and a halt behind them.
func handImage(t *testing.T, words ...[]mach.SlotOp) *isa.Image {
	t.Helper()
	img := uopImage(t, nil, 0)
	img.Instrs = nil
	for _, w := range words {
		img.Instrs = append(img.Instrs, mach.Instr{Slots: w})
	}
	img.Instrs = append(img.Instrs, mach.Instr{Slots: []mach.SlotOp{{Unit: uBR, Op: mach.Op{Kind: mach.OpHalt}}}})
	return img
}

// handPair is three machines on one hand-built image: the per-word reference
// (a plain machine under a hook that does nothing), a checked and a native one.
type handPair struct {
	img                  *isa.Image
	ref, checked, native *Machine
}

// prepare resets m onto the image, hooks the reference, arms the native
// machine (every guard kept) and loads the registers and memory the hand-built
// words expect.
func (p *handPair) prepare(t *testing.T, m *Machine) *Context {
	t.Helper()
	m.Reset(p.img)
	switch m {
	case p.ref:
		m.TraceFn = func(int, int64) {}
	case p.native:
		if err := m.UseNativeCertificate(noProof{p.img}); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Contexts()[0]
	for r, v := range uopRegs {
		c.writeReg(r, v)
	}
	uopMem(c.mem)
	return c
}

func newHandPair(t *testing.T, words ...[]mach.SlotOp) *handPair {
	t.Helper()
	p := &handPair{img: handImage(t, words...)}
	p.ref, p.checked, p.native = New(p.img), New(p.img), New(p.img)
	for range 2 { // the second arrival at the first word builds its region
		for _, m := range []*Machine{p.checked, p.native} {
			p.prepare(t, m)
			m.Run()
		}
	}
	return p
}

// run executes the image on the three machines after setup and requires of the
// checked and the native one the reference's outcome, counters and context; it
// returns the (common) outcome.
func (p *handPair) run(t *testing.T, what string, setup func(m *Machine, c *Context)) string {
	t.Helper()
	machines, names := []*Machine{p.ref, p.checked, p.native}, []string{"reference", "checked", "native"}
	var outcome [3]string
	for i, m := range machines {
		c := p.prepare(t, m)
		if setup != nil {
			setup(m, c)
		}
		outcome[i] = uopOutcome(m.Run())
	}
	for i := 1; i < len(machines); i++ {
		if outcome[0] != outcome[i] {
			t.Fatalf("%s: reference %s, %s %s", what, outcome[0], names[i], outcome[i])
		}
		if p.ref.Stats != machines[i].Stats {
			t.Fatalf("%s: counters\n  reference %+v\n  %-9s %+v", what, p.ref.Stats, names[i], machines[i].Stats)
		}
		if d := DiffState(p.ref.Contexts()[0], machines[i].Contexts()[0]); d != "" {
			t.Fatalf("%s: reference vs %s: %s", what, names[i], d)
		}
	}
	if p.native.regions.words == 0 {
		t.Fatalf("%s: the native machine ran no word in a region", what)
	}
	return outcome[0]
}

// landingsPerBeat counts, for the region headed at the image's first word, how
// many results its stream lands at each region beat.
func (p *handPair) landingsPerBeat(t *testing.T) []int {
	t.Helper()
	r := p.native.ctxs[0].plan.head(0)
	if r == nil {
		t.Fatal("no region at the first word")
	}
	var counts []int
	prev := int32(0)
	for _, rw := range r.words {
		counts = append(counts, int(rw.landEnd[0]-prev), int(rw.landEnd[1]-rw.landEnd[0]))
		prev = rw.landEnd[1]
	}
	return counts
}

// The hand-built words' slots: an operation on a unit at a beat, the float and
// integer operations by destination index, a load relative to uopData.
func slot(u mach.Unit, beat uint8, o mach.Op) mach.SlotOp {
	return mach.SlotOp{Unit: u, Beat: beat, Op: o}
}

func fop(k ir.OpKind, dst uint8, a, b mach.Arg) mach.Op {
	return mach.Op{Kind: k, Type: ir.F64, Dst: freg(dst), A: a, B: b}
}

func iop(k ir.OpKind, dst uint8, a, b mach.Arg) mach.Op {
	return mach.Op{Kind: k, Type: ir.I32, Dst: ireg(dst), A: a, B: b}
}

func loadAt(dst uint8, off int32) mach.Op {
	return mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(dst), A: mach.RegArg(ireg(12)), B: mach.ImmArg(off)}
}

// idleWords is a schedule that waits out its latencies: a divide (25 beats), a
// multiply, an add and a load issue in the first word; one result lands alone
// at beat 5, one at beat 6, two together at beat 7, the quotient at beat 25;
// the words between are empty, in runs of one and of eight; the last words
// consume everything.
func idleWords() [][]mach.SlotOp {
	R, I := mach.RegArg, mach.ImmArg
	words := make([][]mach.SlotOp, 16)
	words[0] = []mach.SlotOp{
		slot(uFM, 0, fop(ir.FMul, 20, R(freg(10)), R(freg(11)))),                                // lands at beat 7
		slot(mach.Unit{Kind: mach.UFA, Pair: 1}, 0, fop(ir.FAdd, 21, R(freg(10)), R(freg(11)))), // beat 6
		slot(uALU0, 0, loadAt(24, 8)),                                                           // beat 7
		slot(uALU1, 1, iop(ir.Mul, 26, R(ireg(10)), R(ireg(11)))),                               // beat 5
		slot(mach.Unit{Kind: mach.UFM, Pair: 1}, 1, fop(ir.FDiv, 27, R(freg(10)), R(freg(11)))), // beat 26
	}
	words[4] = []mach.SlotOp{slot(uALU0, 0, iop(ir.Add, 28, R(ireg(24)), R(ireg(26))))}
	words[13] = []mach.SlotOp{slot(uFA, 1, fop(ir.FSub, 28, R(freg(27)), R(freg(20))))}
	words[15] = []mach.SlotOp{slot(uALU0, 0, mach.Op{Kind: ir.FtoI, Type: ir.F64, Dst: mach.RegRVI, A: R(freg(21))}),
		slot(uALU1, 0, iop(ir.Add, 29, R(ireg(28)), I(1)))}
	return words
}

// TestRegionEmptyWords: a pause at every beat of a schedule that is mostly
// empty words leaves the three machines in the same state, snapshot included,
// and each resumes another's snapshot to the uninterrupted run's end — so a
// write in flight when a region is entered (at its head, or where a pause left
// it) retires inside an empty word exactly when the interpreter retires it.
func TestRegionEmptyWords(t *testing.T) {
	p := newHandPair(t, idleWords()...)
	want := p.run(t, "uninterrupted", nil)
	final := p.ref.Stats
	counts := p.landingsPerBeat(t)
	if got := fmt.Sprint(counts[5:8], counts[26]); got != "[1 1 2] 1" {
		t.Fatalf("the schedule lands %v results at beats 5–7 and 26, want [1 1 2] 1 (all beats: %v)", got, counts)
	}
	if r := p.native.ctxs[0].plan.head(0); r.words[1].idle != 1 || r.words[5].idle != 8 || r.words[4].idle != 0 {
		t.Fatalf("idle runs at words 1, 4, 5: %d %d %d, want 1 0 8", r.words[1].idle, r.words[4].idle, r.words[5].idle)
	}
	// Every beat from the first word's issue on (the beats before it are the
	// two TLB traps it pays: any stop among them pauses at the same boundary).
	for stop := final.TrapBeats - 1; stop <= final.Beats+1; stop++ {
		what := fmt.Sprintf("paused at beat %d", stop)
		p.run(t, what, func(m *Machine, _ *Context) { m.StopBeat = stop })
		machines := []*Machine{p.ref, p.checked, p.native}
		var snaps [3][]byte
		for i, m := range machines {
			if m.Contexts()[0].Halted() {
				continue
			}
			snap, err := m.Contexts()[0].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps[i] = snap
		}
		if !bytes.Equal(snaps[0], snaps[1]) || !bytes.Equal(snaps[0], snaps[2]) {
			t.Fatalf("%s: the machines' snapshots differ", what)
		}
		if snaps[0] == nil {
			continue
		}
		// Each machine resumes another's snapshot.
		got := p.run(t, what+", resumed", func(m *Machine, c *Context) {
			from := snaps[(slices.Index(machines, m)+1)%len(machines)]
			if err := c.Restore(from); err != nil {
				t.Fatal(err)
			}
		})
		if got != want || p.ref.Stats != final {
			t.Fatalf("%s: resumed to %s, %+v; the uninterrupted run ends %s, %+v", what, got, p.ref.Stats, want, final)
		}
	}
}

// TestRegionEventAcrossEmptyWords: a bank found busy under the second word
// jumps the clock by as many beats as the bank has left, with a divide, a
// multiply, an add and a load of the first word still in flight. landAhead
// lands them from their slots, ahead of the region's schedule, across empty
// words and across a beat on which the stream itself lands two results.
func TestRegionEventAcrossEmptyWords(t *testing.T) {
	R := mach.RegArg
	words := idleWords()
	words[1] = []mach.SlotOp{
		slot(uALU0, 0, loadAt(25, 16)),                                                          // the reference that stalls; lands at region beat 9
		slot(uFM, 0, fop(ir.FMul, 23, R(freg(11)), R(freg(11)))),                                // beat 9
		slot(mach.Unit{Kind: mach.UFA, Pair: 1}, 0, fop(ir.FAdd, 22, R(freg(11)), R(freg(11)))), // beat 8
	}
	p := newHandPair(t, words...)
	if counts := p.landingsPerBeat(t); counts[8] != 1 || counts[9] != 2 {
		t.Fatalf("the schedule lands %d and %d results at beats 8 and 9, want 1 and 2", counts[8], counts[9])
	}
	p.run(t, "no stall", nil)
	base := p.ref.Stats
	stalls := map[int64]bool{}
	for n := base.Beats - 40; n < base.Beats+8; n++ {
		p.run(t, fmt.Sprintf("bank busy for %d beats", n), func(m *Machine, _ *Context) { m.StallBank(uopData+16, n) })
		if s := p.ref.Stats.BankStalls; s > 0 {
			stalls[s] = true
			if p.native.regions.by[exitBank] == 0 {
				t.Fatalf("bank busy for %d beats: %d stall beats and no bank event in a region", n, s)
			}
		}
	}
	// The clock must have jumped by less than, exactly and more than the
	// latencies in flight.
	for _, s := range []int64{1, 3, 4, 5, 7, 12, 25, 30} {
		if !stalls[s] {
			t.Errorf("no run stalled for %d beats (stalls seen: %v)", s, stalls)
		}
	}
}

// TestRegionLandingCounts: beats on which the stream lands exactly one result,
// exactly two, and as many as one beat of this image can retire (plan.ringCap).
func TestRegionLandingCounts(t *testing.T) {
	R, I := mach.RegArg, mach.ImmArg
	pair1 := func(u mach.Unit) mach.Unit { u.Pair = 1; return u }
	words := make([][]mach.SlotOp, 12)
	// Everything below lands at beat 8: the latencies 7, 6, 4 and 1, each
	// issued as many at a time as the image ever issues it.
	words[0] = []mach.SlotOp{
		slot(uFM, 1, fop(ir.FMul, 20, R(freg(10)), R(freg(11)))),
		slot(pair1(uFM), 1, fop(ir.FMul, 21, R(freg(11)), R(freg(11)))),
		slot(uALU0, 1, loadAt(24, 8)),
	}
	words[1] = []mach.SlotOp{
		slot(uFA, 0, fop(ir.FAdd, 22, R(freg(10)), R(freg(11)))),
		slot(pair1(uFA), 0, fop(ir.FSub, 23, R(freg(10)), R(freg(11)))),
	}
	words[2] = []mach.SlotOp{
		slot(uALU0, 0, iop(ir.Mul, 25, R(ireg(10)), I(3))),
		slot(uALU1, 0, iop(ir.Mul, 26, R(ireg(11)), I(5))),
	}
	words[3] = []mach.SlotOp{
		slot(uALU0, 1, iop(ir.Add, 27, R(ireg(10)), I(1))),
		slot(uALU1, 1, iop(ir.Sub, 28, R(ireg(11)), I(1))),
	}
	// One alone at beat 14 (a word's first beat), two at beat 17 (its second).
	words[5] = []mach.SlotOp{slot(uALU0, 0, iop(ir.Mul, 29, R(ireg(10)), R(ireg(10))))}
	words[6] = []mach.SlotOp{
		slot(uALU0, 1, iop(ir.Mul, 30, R(ireg(25)), R(ireg(26)))),
		slot(uALU1, 1, iop(ir.Mul, 31, R(ireg(27)), R(ireg(28)))),
	}
	words[10] = []mach.SlotOp{slot(uALU0, 0, iop(ir.Add, 3, R(ireg(30)), R(ireg(31))))} // the exit value
	p := newHandPair(t, words...)
	counts := p.landingsPerBeat(t)
	most := int(p.native.Contexts()[0].plan.ringCap)
	if most != 9 || counts[8] != most || counts[14] != 1 || counts[17] != 2 {
		t.Fatalf("ringCap %d; the stream lands %d, %d and %d results at beats 8, 14 and 17, want 9, 1 and 2", most, counts[8], counts[14], counts[17])
	}
	p.run(t, "uninterrupted", nil)
	for stop := int64(1); stop <= p.ref.Stats.Beats; stop++ {
		p.run(t, fmt.Sprintf("paused at beat %d", stop), func(m *Machine, _ *Context) { m.StopBeat = stop })
	}
}

// TestRegionFaultBehindLandings: a guarded load faults in a beat that begins
// with a run of landings, once in a word's first beat and once in its second.
// The registers are landed through that beat, and the counters are those of
// the faulting record — not of the landings before it, nor of the op behind.
func TestRegionFaultBehindLandings(t *testing.T) {
	R, I := mach.RegArg, mach.ImmArg
	for beat := uint8(0); beat < 2; beat++ {
		words := make([][]mach.SlotOp, 6)
		// Three results land at beat 6+beat.
		words[0] = []mach.SlotOp{
			slot(uFA, beat, fop(ir.FAdd, 20, R(freg(10)), R(freg(11)))),
			slot(uALU0, 1, loadAt(24, 8)),
		}
		words[0][1].Beat = beat ^ 1
		if beat == 0 { // the load issues a beat later and lands a beat later: move the add with it
			words[0][0].Op = fop(ir.FMul, 20, R(freg(10)), R(freg(11)))
		}
		words[1] = []mach.SlotOp{slot(uALU0, beat, iop(ir.Mul, 25, R(ireg(10)), I(3))), slot(uALU1, beat, iop(ir.Mul, 26, R(ireg(11)), I(5)))}
		words[3] = []mach.SlotOp{
			slot(uALU1, beat, iop(ir.Add, 27, R(ireg(25)), R(ireg(26)))),
			slot(uALU0, beat, mach.Op{Kind: ir.Load, Type: ir.I32, Dst: ireg(28), A: R(ireg(24)), B: I(2)}), // unaligned and far away
			slot(mach.Unit{Kind: mach.UFA, Pair: 1}, beat, fop(ir.FAdd, 21, R(freg(20)), R(freg(20)))),
		}
		p := newHandPair(t, words...)
		counts := p.landingsPerBeat(t)
		if counts[6+int(beat)] < 2 {
			t.Fatalf("beat %d of the faulting word lands %d results, want a run (all beats: %v)", beat, counts[6+int(beat)], counts)
		}
		got := p.run(t, fmt.Sprintf("fault in beat %d", beat), nil)
		if !strings.Contains(got, "unit=ialu0.0") || !strings.Contains(got, "load") {
			t.Fatalf("beat %d: %s, want a load fault on ialu0.0", beat, got)
		}
		if p.native.regions.by[exitFault] != 1 {
			t.Fatalf("beat %d: %s", beat, p.native.RegionSummary())
		}
	}
}

// TestRegionQuantumOne: RunMany with a one-beat quantum rotates after every
// word, so every word of the mostly empty schedule is a region entry with the
// earlier words' writes in the ring.
func TestRegionQuantumOne(t *testing.T) {
	img := handImage(t, idleWords()...)
	imgs := []*isa.Image{img, img, img}
	var results [3][]ContextResult
	machines, names := []*Machine{New(img), New(img), New(img)}, []string{"reference", "checked", "native"}
	for i, m := range machines {
		for round := 0; round < 3; round++ { // regions are warm in the third
			if err := m.ResetMany(imgs); err != nil {
				t.Fatal(err)
			}
			switch names[i] {
			case "reference":
				m.TraceFn = func(int, int64) {}
			case "native":
				if err := m.UseNativeCertificate(noProof{img}); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range m.Contexts() {
				for r, v := range uopRegs {
					c.writeReg(r, v)
				}
				uopMem(c.mem)
			}
			m.Quantum = 1
			rs, err := m.RunMany(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			results[i] = rs
		}
	}
	for i := 1; i < len(machines); i++ {
		for k := range results[0] {
			a, b := results[0][k], results[i][k]
			if a.Exit != b.Exit || a.Output != b.Output || a.Stats != b.Stats || (a.Err == nil) != (b.Err == nil) {
				t.Errorf("context %d: reference %+v, %s %+v", k, a, names[i], b)
			}
			if d := DiffState(machines[0].Contexts()[k], machines[i].Contexts()[k]); d != "" {
				t.Errorf("context %d, %s: %s", k, names[i], d)
			}
		}
	}
	if machines[2].regions.words == 0 || machines[2].regions.idle == 0 {
		t.Errorf("the native machine: %s", machines[2].RegionSummary())
	}
}
