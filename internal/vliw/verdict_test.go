package vliw

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// The checked tier's two verdicts — a resource verdict on a word, a write-write
// race between two retiring writes — where a checked machine now meets them: in
// the middle of a hot loop its regions already cover, no hook armed. Each case
// is a hand-built loop (the helpers and the register file of microop_test.go
// and region_test.go) run on four machines: the per-word reference and a checked
// machine, then the two again one tier up (a schedcheck certificate that is a
// lie: noProof), where the same schedule runs clean. A machine's regions are
// warmed on the fast tier — the base plan is the checked tier's too — so the
// checked run is in a region from its first word.

// verdictLoop is the body given, run `trips` times: behind it a word that counts
// i15 up, one that tests it, one that branches back to word 0 — and issues
// `last` beside the branch — and a halt.
func verdictLoop(t *testing.T, trips int32, body [][]mach.SlotOp, last ...mach.SlotOp) *isa.Image {
	R, I := mach.RegArg, mach.ImmArg
	words := append(body[:len(body):len(body)],
		[]mach.SlotOp{slot(uALU1, 0, iop(ir.Add, 15, R(ireg(15)), I(1)))},
		[]mach.SlotOp{slot(uALU1, 0, mach.Op{Kind: ir.CmpLT, Type: ir.I32, Dst: breg(1), A: R(ireg(15)), B: I(trips)})},
		append([]mach.SlotOp{slot(uBR, 0, mach.Op{Kind: mach.OpBrT, A: R(breg(1)), Target: 0})}, last...),
	)
	return handImage(t, words...)
}

type verdictCase struct {
	name  string
	body  [][]mach.SlotOp
	last  []mach.SlotOp    // issued beside the loop's branch
	setup func(m *Machine) // applied to every machine before its run
	// What the checked tier says (TrapUnknown: nothing, the run is clean), at
	// which word, and how many words the region headed at word 0 holds — the
	// static exclusions end it before the word that races.
	code      TrapCode
	word      int
	headWords int
	// fastDiffers: a straight write reaches its register a beat before a write
	// in the ring that retires with it, so under a certificate that lies the
	// ring's value stays where the per-word path's drain leaves the later-issued
	// one. A true certificate excludes the pair (native.go, straight); the
	// fast tier's regions are not held to its per-word path on it.
	fastDiffers bool
}

func verdictCases() []verdictCase {
	R, I := mach.RegArg, mach.ImmArg
	mul := func(dst uint8, a, b int32) mach.Op { return iop(ir.Mul, dst, I(a), I(b)) }     // four beats
	add := func(dst uint8, a int32) mach.Op { return iop(ir.Add, dst, R(ireg(10)), I(a)) } // one beat
	use := func(reg uint8) []mach.SlotOp {                                                 // the exit value follows the register the case races on
		return []mach.SlotOp{slot(uALU0, 0, iop(ir.Add, 3, R(ireg(reg)), I(0)))}
	}
	stalled := verdictCase{
		// raceImage's schedule (retire_golden_test.go) inside the loop: two
		// multiplies write i20 two beats apart, legal while the clock runs free;
		// the bank under word 2's load is busy, the clock jumps past both and
		// they retire in one drain.
		name: "stall retires two legal writes together",
		body: [][]mach.SlotOp{
			{slot(uALU0, 0, loadAt(24, 8)), slot(uALU1, 0, mul(20, 3, 5))},
			{slot(uALU0, 0, mul(20, 7, 11))},
			{slot(uALU0, 0, loadAt(25, 16))},
			{}, {}, use(20),
		},
		setup: func(m *Machine) { m.StallBank(uopData+16, 400) },
		code:  TrapWriteRace, word: 2, headWords: 10,
	}
	free := stalled
	free.name, free.setup, free.code = "the same two writes, the clock running free", nil, TrapUnknown
	return []verdictCase{
		{
			name: "two landings of the region in one beat",
			body: [][]mach.SlotOp{
				{slot(uALU0, 0, mul(20, 3, 5))}, // lands at beat 4
				{slot(uALU0, 1, add(20, 1))},    // issued at beat 3, lands at beat 4
				{}, use(20),
			},
			code: TrapWriteRace, word: 2, headWords: 2,
		},
		{
			// The region headed at word 0 ends before word 2; the one headed at
			// word 2 finds the multiply in the ring (fastDiffers: see below).
			name: "a straight write meets a landing from an earlier word",
			body: [][]mach.SlotOp{
				{slot(uALU0, 1, mul(21, 3, 5))}, // lands at beat 5
				{},
				{slot(uALU0, 0, add(21, 2))}, // word 2's first beat, one beat: straight to i21, there by beat 5
				use(21),
			},
			code: TrapWriteRace, word: 2, headWords: 2, fastDiffers: true,
		},
		{
			// The multiply issues beside the loop's branch and is in the ring
			// when the branch re-enters the region at word 0; it lands at the
			// top of word 1, where word 0's add (second beat: through a slot)
			// lands too. The first trip is clean: nothing is in flight yet.
			name: "a write from before the back-edge meets a landing of the region",
			body: [][]mach.SlotOp{{slot(uALU0, 1, add(22, 3))}, {}, use(22)},
			last: []mach.SlotOp{slot(uALU0, 0, mul(22, 3, 5))},
			code: TrapWriteRace, word: 1, headWords: 7,
		},
		{
			// A beat later, against an add in word 1's first beat: that one goes
			// straight to its register a beat early, which only the absence of
			// the ring's write — a true certificate's — makes invisible.
			name: "a write from before the back-edge meets a straight write",
			body: [][]mach.SlotOp{{}, {slot(uALU0, 0, add(22, 3))}, use(22)},
			last: []mach.SlotOp{slot(uALU0, 1, mul(22, 3, 5))},
			code: TrapWriteRace, word: 1, headWords: 7, fastDiffers: true,
		},
		stalled,
		free,
		{
			name: "a resource verdict on a word of the loop",
			body: [][]mach.SlotOp{
				{slot(uALU0, 0, add(20, 1))},
				{slot(uALU1, 1, add(21, 2)), slot(uALU1, 1, add(23, 3))}, // two operations on one unit in one beat
				use(21),
			},
			code: TrapResource, word: 1, headWords: 1,
		},
	}
}

// verdictMachine is a machine on the case's image whose base plan has regions:
// two runs on the fast tier built them.
func verdictMachine(t *testing.T, img *isa.Image) *Machine {
	t.Helper()
	m := New(img)
	for range 2 {
		verdictPrepare(t, m, TierFast, false)
		if _, _, err := m.Run(); err != nil {
			t.Fatalf("warming on the fast tier: %v", err)
		}
	}
	if m.regions.words == 0 {
		t.Fatalf("warming ran no word in a region: %s", m.RegionSummary())
	}
	return m
}

func verdictPrepare(t *testing.T, m *Machine, tier Tier, perWord bool) {
	t.Helper()
	img := m.Img
	m.Reset(img)
	if tier == TierFast {
		if err := m.UseCertificate(noProof{img}); err != nil {
			t.Fatal(err)
		}
	}
	if perWord {
		m.TraceFn = func(int, int64) {}
	}
	c := m.Contexts()[0]
	for r, v := range uopRegs {
		c.writeReg(r, v)
	}
	uopMem(c.mem)
}

// verdictAgree requires of m, which ran in regions, what the per-word reference
// left: outcome, Fault (all five fields), the 23 counters and the whole context.
// It returns the (common) fault, nil for none.
func verdictAgree(t *testing.T, what string, ref, m *Machine, errs [2]error, outcome [2]string) *Fault {
	t.Helper()
	if outcome[0] != outcome[1] {
		t.Fatalf("%s: per-word %s, regions %s", what, outcome[0], outcome[1])
	}
	var fr, fm *Fault
	if errors.As(errs[0], &fr) != errors.As(errs[1], &fm) || fr != nil && *fr != *fm {
		t.Fatalf("%s: fault %+v vs %+v", what, fr, fm)
	}
	if ref.Stats != m.Stats {
		t.Fatalf("%s: counters\n  per-word %+v\n  regions  %+v", what, ref.Stats, m.Stats)
	}
	if d := DiffState(ref.Contexts()[0], m.Contexts()[0]); d != "" {
		t.Fatalf("%s: per-word vs regions: %s", what, d)
	}
	return fr
}

func TestVerdictsInsideWarmRegions(t *testing.T) {
	for _, tc := range verdictCases() {
		for _, checkRes := range []bool{true, false} {
			if !checkRes && tc.code != TrapResource {
				continue
			}
			t.Run(fmt.Sprintf("%s/CheckRes=%v", tc.name, checkRes), func(t *testing.T) {
				img := verdictLoop(t, 6, tc.body, tc.last...)
				ref, m := New(img), verdictMachine(t, img)
				if r := m.ctxs[0].plan.head(0); r == nil || len(r.words) != tc.headWords {
					t.Fatalf("the region headed at word 0 should hold %d words: %s", tc.headWords, m.RegionSummary())
				}
				for _, tier := range []Tier{TierChecked, TierFast} {
					if tier == TierFast && tc.fastDiffers {
						continue
					}
					var errs [2]error
					var outcome [2]string
					for i, x := range []*Machine{ref, m} {
						verdictPrepare(t, x, tier, x == ref)
						x.CheckRes = checkRes
						if tc.setup != nil {
							tc.setup(x)
						}
						exit, out, err := x.Run()
						errs[i], outcome[i] = err, uopOutcome(exit, out, err)
					}
					what := fmt.Sprintf("%v tier", tier)
					fr := verdictAgree(t, what, ref, m, errs, outcome)
					if m.regions.words == 0 {
						t.Fatalf("%s: no word ran in a region: %s", what, m.RegionSummary())
					}
					// The verdict is the checked tier's alone, and only a resource
					// verdict asks CheckRes.
					want := tc.code
					if tier != TierChecked || want == TrapResource && !checkRes {
						want = TrapUnknown
					}
					switch {
					case want == TrapUnknown && errs[0] != nil:
						t.Fatalf("%s: want a clean run, got %v", what, errs[0])
					case want != TrapUnknown && (fr == nil || fr.Code != want || fr.PC != tc.word):
						t.Fatalf("%s: want a %v fault at word %d, got %v", what, want, tc.word, errs[0])
					}
				}
			})
		}
	}
}

// TestRandomSchedulesInsideWarmRegions: the cases above by the thousand.
// Random loop bodies whose operations write a handful of registers with
// latencies of 1, 4 and 7 beats, so that writes meet in a beat, across the
// back-edge and under a stalled bank in combinations nobody wrote down, some
// with two operations on one unit, some paused mid-loop; the checked machine's
// warm regions must leave exactly what the per-word reference leaves, verdict
// or none.
func TestRandomSchedulesInsideWarmRegions(t *testing.T) {
	R, I := mach.RegArg, mach.ImmArg
	seeds := 1500
	if testing.Short() {
		seeds = 300
	}
	verdicts := map[TrapCode]int{}
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		units := []mach.Unit{uALU0, uALU1, {Kind: mach.UIALU, Pair: 1}, {Kind: mach.UIALU, Pair: 1, Idx: 1}}
		body := make([][]mach.SlotOp, 2+rng.Intn(6))
		for w := range body {
			for range rng.Intn(3) {
				dst, src := uint8(20+rng.Intn(4)), R(ireg(uint8(20+rng.Intn(4))))
				var op mach.Op
				switch rng.Intn(4) {
				case 0:
					op = iop(ir.Mul, dst, src, I(int32(rng.Intn(9))))
				case 1:
					op = loadAt(dst, int32(8*rng.Intn(6)))
				default:
					op = iop(ir.Add, dst, src, I(int32(rng.Intn(9))))
				}
				body[w] = append(body[w], slot(units[rng.Intn(len(units))], uint8(rng.Intn(2)), op))
			}
		}
		body = append(body, []mach.SlotOp{slot(uALU0, 0, iop(ir.Add, 3, R(ireg(20)), R(ireg(21))))})
		var last []mach.SlotOp
		if rng.Intn(2) == 0 {
			last = []mach.SlotOp{slot(uALU0, uint8(rng.Intn(2)), iop(ir.Mul, uint8(20+rng.Intn(4)), R(ireg(10)), I(3)))}
		}
		stall, bank, stop := int64(0), uopData+int64(8*rng.Intn(6)), int64(0)
		if rng.Intn(3) == 0 {
			stall = 100 + rng.Int63n(300)
		}
		if rng.Intn(4) == 0 {
			stop = 40 + rng.Int63n(200) // a pause somewhere in the loop
		}
		img := verdictLoop(t, 5, body, last...)
		ref, m := New(img), verdictMachine(t, img)
		var outcome [2]string
		var errs [2]error
		for i, x := range []*Machine{ref, m} {
			verdictPrepare(t, x, TierChecked, x == ref)
			x.StallBank(bank, stall)
			x.StopBeat = stop
			exit, out, err := x.Run()
			errs[i], outcome[i] = err, uopOutcome(exit, out, err)
		}
		fr := verdictAgree(t, fmt.Sprintf("seed %d", seed), ref, m, errs, outcome)
		code := TrapUnknown
		if fr != nil {
			code = fr.Code
		}
		verdicts[code]++
	}
	if verdicts[TrapWriteRace] < seeds/10 || verdicts[TrapResource] < seeds/50 || verdicts[TrapUnknown] < seeds/10 {
		t.Fatalf("the schedules drawn are not a mix of verdicts and clean runs: %v", verdicts)
	}
}
