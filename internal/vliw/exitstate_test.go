package vliw_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/fuzz"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/vliw"
	"github.com/multiflow-repro/trace/internal/xp"
)

// The exit-state contract: wherever a run stops — a StopBeat pause, a fault, a
// quantum expiry, the end of the program — every tier leaves the context in
// exactly the state the per-word interpreter leaves it in: registers,
// memory, the in-flight writes in issue order, the caches and TLBs, and every
// counter. Snapshot, Restore and RunMany rotation are tier-independent only
// because of it, so an execution unit coarser than a beat has to materialise
// this state at each of its exits.

// perWord keeps a machine on the per-word path whatever its tier: a hook that
// must see every word (Machine.hooked) and does nothing with it. A plain
// machine under it is the reference the tiers are held to.
func perWord(m *vliw.Machine) { m.TraceFn = func(int, int64) {} }

// tierPair is three machines on one image: the per-word reference, a checked
// and a native one. All are reused across runs through Reset, so whatever a
// tier builds lazily per plan is warm for every run after the first while
// caches and TLBs start cold.
type tierPair struct {
	img     *isa.Image
	cert    vliw.SafetyCertificate
	ref     *vliw.Machine
	checked *vliw.Machine
	native  *vliw.Machine
	// plan, when set, is the image's plan as other machines have left it, and
	// every reset points a checked and a native machine that have never seen
	// the image at it: whatever regions it holds they did not build, and their
	// caches, TLBs and residency tables are cold.
	plan *vliw.Plan
}

func newTierPair(t testing.TB, img *isa.Image) *tierPair {
	t.Helper()
	cert, err := safecheck.Certify(img)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	return &tierPair{img: img, cert: cert, ref: vliw.New(img), checked: vliw.New(img), native: vliw.New(img)}
}

// machines lists the three with their names, the reference first.
func (p *tierPair) machines() ([]*vliw.Machine, []string) {
	return []*vliw.Machine{p.ref, p.checked, p.native}, []string{"reference", "checked", "native"}
}

// reset returns the machines to boot state, the reference hooked and the
// native one re-armed.
func (p *tierPair) reset(t testing.TB) {
	t.Helper()
	p.ref.Reset(p.img)
	perWord(p.ref)
	if p.plan != nil {
		p.checked, p.native = new(vliw.Machine), new(vliw.Machine)
		p.checked.ResetPlan(p.plan)
		p.native.ResetPlan(p.plan)
	} else {
		p.checked.Reset(p.img)
		p.native.Reset(p.img)
	}
	if err := p.native.UseNativeCertificate(p.cert); err != nil {
		t.Fatal(err)
	}
}

// resume restores the machines from one snapshot.
func (p *tierPair) resume(t testing.TB, snap []byte) {
	t.Helper()
	p.reset(t)
	ms, _ := p.machines()
	for _, m := range ms {
		if err := m.Contexts()[0].Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
}

// run runs the machines under set-up and requires of the checked and the
// native one the reference's outcome and context state; it returns the
// reference run's error.
func (p *tierPair) run(t testing.TB, what string, setup func(m *vliw.Machine)) error {
	t.Helper()
	ms, names := p.machines()
	var exits [3]int32
	var outs [3]string
	var errs [3]error
	for i, m := range ms {
		if setup != nil {
			setup(m)
		}
		exits[i], outs[i], errs[i] = m.Run()
	}
	for i := 1; i < len(ms); i++ {
		if exits[0] != exits[i] || outs[0] != outs[i] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[i]) {
			t.Fatalf("%s: reference (%d, %q, %v) vs %s (%d, %q, %v)", what, exits[0], outs[0], errs[0], names[i], exits[i], outs[i], errs[i])
		}
		var fr, fi *vliw.Fault
		if errors.As(errs[0], &fr) && errors.As(errs[i], &fi) && *fr != *fi {
			t.Fatalf("%s: fault %+v vs %s %+v", what, *fr, names[i], *fi)
		}
		if p.ref.Stats != ms[i].Stats {
			t.Fatalf("%s: stats differ:\n  reference %+v\n  %-9s %+v", what, p.ref.Stats, names[i], ms[i].Stats)
		}
		if d := vliw.DiffState(p.ref.Contexts()[0], ms[i].Contexts()[0]); d != "" {
			t.Fatalf("%s: reference vs %s: %s", what, names[i], d)
		}
	}
	return errs[0]
}

// snapshots requires byte-identical Snapshot encodings and returns one.
func (p *tierPair) snapshots(t testing.TB, what string) []byte {
	t.Helper()
	ms, names := p.machines()
	var ref []byte
	for i, m := range ms {
		snap, err := m.Contexts()[0].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = snap
		} else if !bytes.Equal(ref, snap) {
			t.Fatalf("%s: Snapshot bytes differ between the reference and %s", what, names[i])
		}
	}
	return ref
}

// pauseAt is the set-up for a run that pauses at beat b.
func pauseAt(b int64) func(*vliw.Machine) { return func(m *vliw.Machine) { m.StopBeat = b } }

func TestExitStateMatchesChecked(t *testing.T) {
	t.Run("matrix", exitStateMatrix)
	t.Run("foreign-machine", exitStateForeignMachine)
	t.Run("dynamic-events", exitStateDynamicEvents)
	t.Run("guarded-fault", exitStateGuardedFault)
	t.Run("call-return", exitStateCallReturn)
	t.Run("runmany-quantum", exitStateRunManyQuantum)
}

// exitStateMatrix pauses both tiers at pseudo-random beats of every image of
// the golden matrix: examples, experiment kernels and generated programs on
// Trace 7/14/28 at O0 and O2.
func exitStateMatrix(t *testing.T) {
	progs := kernels(t)
	seeds := int64(24)
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= seeds; seed++ {
		progs = append(progs, program{fmt.Sprintf("gen/%02d", seed), fuzz.Gen(seed)})
	}
	levels := []struct {
		name string
		opt  opt.Options
	}{{"O0", opt.None()}, {"O2", opt.Default()}}

	// Most pauses fall in the first 4096 beats, where the icache and the TLBs
	// are still filling; the rest are spread over the whole run. (30 and 4 on
	// three machines are about the work 56 and 8 were on two.)
	early, spread := 30, 4
	if testing.Short() {
		early, spread = 8, 2
	}
	images := 0
	for _, p := range progs {
		for _, c := range configs {
			for _, lv := range levels {
				key := p.name + "/" + c.name + "/" + lv.name
				res, err := core.Compile(context.Background(), p.src, core.Options{Config: c.cfg, Opt: lv.opt})
				if err != nil {
					continue // the generator may exceed a small machine; fingerprints.golden pins which
				}
				images++
				newTierPair(t, res.Image).pauses(t, key, early, spread, false)
			}
		}
	}
	if images < 100 {
		t.Fatalf("only %d images compiled", images)
	}
}

type program struct{ name, src string }

var configs = []struct {
	name string
	cfg  mach.Config
}{{"Trace7", mach.Trace7()}, {"Trace14", mach.Trace14()}, {"Trace28", mach.Trace28()}}

// kernels lists the examples and the experiment kernels.
func kernels(t *testing.T) []program {
	var progs []program
	paths, err := filepath.Glob("../../examples/*.mf")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{"examples/" + strings.TrimSuffix(filepath.Base(p), ".mf"), string(src)})
	}
	for _, w := range xp.AllWorkloads() {
		progs = append(progs, program{"xp/" + w.Name, w.Src})
	}
	return progs
}

// pauses runs the pair to completion and then to early pauses among the first
// 4096 beats and spread over the whole run, pseudo-random by key, holding the
// tiers to the reference at each — to its Snapshot bytes too at the last, which
// is also resumed from, or at every one (each).
func (pair *tierPair) pauses(t *testing.T, key string, early, spread int, each bool) {
	pair.reset(t)
	if err := pair.run(t, key+" whole run", nil); err != nil {
		var f *vliw.Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: %v", key, err)
		}
	}
	total := pair.ref.Stats.Beats
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	beats := []int64{1, total - 1, total + 7}
	for range early {
		beats = append(beats, 1+rng.Int63n(min(total, 4096)))
	}
	for range spread {
		beats = append(beats, 1+rng.Int63n(total))
	}
	for i, b := range beats {
		if b < 1 {
			continue
		}
		what := fmt.Sprintf("%s paused at beat %d", key, b)
		pair.reset(t)
		err := pair.run(t, what, pauseAt(b))
		var stop *vliw.ErrStopped
		if !errors.As(err, &stop) {
			continue
		}
		if last := i == len(beats)-1; last || each {
			// The encoding itself and, once, a resumed run from it: the tiers
			// continue from restored state, not only from boot.
			snap := pair.snapshots(t, what)
			if last {
				pair.resume(t, snap)
				pair.run(t, what+", resumed", nil)
			}
		}
	}
}

// exitStateForeignMachine: a plan belongs to its image, not to a machine, so
// the regions a context runs may have been built by another machine. One
// machine runs each kernel's plan on both tiers until it has built its
// regions; then, for every pause, a checked and a native machine that have
// never seen the image — cold caches, TLBs and residency tables — are pointed
// at the plan and held to the per-word reference, Snapshot bytes included.
func exitStateForeignMachine(t *testing.T) {
	early, spread := 8, 2
	for _, p := range kernels(t) {
		for _, c := range configs {
			if c.name == "Trace14" || testing.Short() && c.name != "Trace28" {
				continue // the narrowest and the widest machine; -short, the widest
			}
			key := p.name + "/" + c.name + "/foreign"
			img := compileFor(t, p.src, c.cfg)
			pair := newTierPair(t, img)
			pair.plan = vliw.NewPlan(img)
			warmer := new(vliw.Machine)
			for round := 0; round < 4; round++ {
				warmer.ResetPlan(pair.plan)
				if round&1 == 1 {
					if err := warmer.UseNativeCertificate(pair.cert); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := warmer.Run(); err != nil {
					t.Fatalf("%s: warm-up: %v", key, err)
				}
			}
			pair.pauses(t, key, early, spread, true)
			for _, m := range []*vliw.Machine{pair.checked, pair.native} {
				var ran, built int
				if _, err := fmt.Sscanf(m.RegionSummary(), "%d regions run, %d built here", &ran, &built); err != nil || ran == 0 || ran == built {
					t.Fatalf("%s: the foreign machine should have run regions it did not build: %s (%v)", key, m.RegionSummary(), err)
				}
			}
		}
	}
}

// hotLoopSrc is one long hot loop over four data pages, so a run warmed on it
// meets first-touch dTLB misses, icache refills (after a Reset) and whatever
// the test injects in the middle of steady-state execution.
const hotLoopSrc = `
var a [4096]float
var b [4096]float
func main() int {
	for (var i int = 0; i < 4096; i = i + 1) { a[i] = float(i & 63) * 0.5; b[i] = 1.0 }
	var s float = 0.0
	for (var r int = 0; r < 3; r = r + 1) {
		for (var i int = 0; i < 4096; i = i + 1) { b[i] = b[i] + 0.25 * a[i]; s = s + b[i] }
	}
	return int(s) & 65535
}`

func compileFor(t testing.TB, src string, cfg mach.Config) *isa.Image {
	t.Helper()
	res, err := core.Compile(context.Background(), src, core.Options{Config: cfg, Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

// warm runs the pair once to completion so the next run starts with the
// tiers' lazily built state in place.
func (p *tierPair) warm(t testing.TB) int64 {
	t.Helper()
	p.reset(t)
	if err := p.run(t, "warm-up", nil); err != nil {
		t.Fatal(err)
	}
	return p.ref.Stats.Beats
}

// exitStateDynamicEvents: the events that are not in the schedule — a
// stalled bank, a first-touch dTLB miss, an icache refill — arriving in the
// middle of a hot loop the tiers have already run.
func exitStateDynamicEvents(t *testing.T) {
	for _, cfg := range []mach.Config{mach.Trace7(), mach.Trace28()} {
		pair := newTierPair(t, compileFor(t, hotLoopSrc, cfg))
		total := pair.warm(t)

		// Cold caches under warm code: every pause of a second run, a stride
		// apart, lands among refills and TLB misses.
		for b := int64(1); b < total; b += total/40 + 3 {
			pair.reset(t)
			pair.run(t, fmt.Sprintf("%s cold caches, paused at %d", cfg.Name, b), pauseAt(b))
		}
		if s := pair.ref.Stats; s.TLBMisses < 8 || s.ICacheMiss == 0 {
			t.Fatalf("%s: the loop met %d TLB misses and %d icache misses; the test wants both mid-run", cfg.Name, s.TLBMisses, s.ICacheMiss)
		}

		// A bank stalled mid-loop: pause in steady state, stall the banks the
		// next iterations touch, and run on through further pauses.
		mid := total / 2
		pair.reset(t)
		pair.run(t, "pause before the stall", pauseAt(mid))
		snap := pair.snapshots(t, "pause before the stall")
		before := pair.ref.Stats.BankStalls
		stall := func(m *vliw.Machine) {
			for ea := int64(0x1000); ea < 0x1000+64*8; ea += 8 {
				m.StallBank(ea, 90)
			}
		}
		for _, b := range []int64{mid + 20, mid + 95, mid + 400, 0} {
			pair.resume(t, snap)
			pair.run(t, fmt.Sprintf("%s stalled banks, run to %d", cfg.Name, b), func(m *vliw.Machine) {
				stall(m)
				m.StopBeat = b
			})
		}
		if pair.ref.Stats.BankStalls <= before {
			t.Fatalf("%s: the injected stall cost no beats", cfg.Name)
		}
	}
}

// exitStateGuardedFault: an unproven site that faults after hundreds of
// clean iterations — the Fault (text, word, beat, unit), the counters and the
// whole context must equal the per-word interpreter's.
func exitStateGuardedFault(t *testing.T) {
	noSpec := mach.Trace7()
	noSpec.SpeculativeLoads = false
	for _, tc := range []struct {
		name string
		cfg  mach.Config
		src  string
		code vliw.TrapCode
	}{
		{"div", mach.Trace14(), `
var d [1024]int
func main() int {
	for (var i int = 0; i < 1024; i = i + 1) { d[i] = (i * 7) % 13 + 1 }
	d[900] = 0
	var s int = 0
	for (var i int = 0; i < 1024; i = i + 1) { s = s + 100000 / d[i] }
	return s & 65535
}`, vliw.TrapDivZero},
		{"load", noSpec, `
var idx [1024]int
var a [1024]int
func main() int {
	for (var i int = 0; i < 1024; i = i + 1) { idx[i] = (i * 5) & 1023; a[i] = i }
	idx[800] = 300000000
	var s int = 0
	for (var i int = 0; i < 1024; i = i + 1) { s = s + a[idx[i]] }
	return s & 65535
}`, vliw.TrapMemBounds},
		{"store", mach.Trace28(), `
var idx [1024]int
var a [1024]int
func main() int {
	for (var i int = 0; i < 1024; i = i + 1) { idx[i] = (i * 5) & 1023 }
	idx[700] = 300000000
	for (var i int = 0; i < 1024; i = i + 1) { a[idx[i]] = i }
	return a[5]
}`, vliw.TrapMemBounds},
	} {
		pair := newTierPair(t, compileFor(t, tc.src, tc.cfg))
		for round := 0; round < 2; round++ { // the second with warm regions
			pair.reset(t)
			err := pair.run(t, fmt.Sprintf("%s fault, round %d", tc.name, round), nil)
			var f *vliw.Fault
			if !errors.As(err, &f) || f.Code != tc.code || f.Unit == "" {
				t.Fatalf("%s: want a %v fault with a unit, got %v", tc.name, tc.code, err)
			}
			pair.snapshots(t, tc.name+" after the fault")
		}
	}
}

// exitStateCallReturn: calls and indirect returns land in the middle of
// fall-through runs (the word after a call is entered only by JmpR).
func exitStateCallReturn(t *testing.T) {
	const src = `
func gcd(a int, b int) int {
	if (b == 0) { return a }
	return gcd(b, a % b)
}
func main() int {
	var s int = 0
	for (var i int = 1; i < 200; i = i + 1) {
		s = s + gcd(i * 7, 91)
		s = s + i
	}
	print_i(s)
	return s & 65535
}`
	for _, cfg := range []mach.Config{mach.Trace7(), mach.Trace28()} {
		pair := newTierPair(t, compileFor(t, src, cfg))
		total := pair.warm(t)
		if pair.ref.Stats.Taken < 400 {
			t.Fatalf("%s: only %d taken branches; the calls were inlined away", cfg.Name, pair.ref.Stats.Taken)
		}
		for b := int64(1); b < total; b += total/97 + 1 {
			pair.reset(t)
			pair.run(t, fmt.Sprintf("%s paused at %d", cfg.Name, b), pauseAt(b))
		}
	}
}

// exitStateRunManyQuantum: four contexts time-shared with a quantum that
// expires inside loop bodies; each context, the scheduler's counters and the
// aggregate must match the per-word reference's, on the checked and on the
// native machine.
func exitStateRunManyQuantum(t *testing.T) {
	cfg := mach.Trace14()
	imgs := []*isa.Image{
		compileFor(t, hotLoopSrc, cfg),
		compileFor(t, xp.AllWorkloads()[0].Src, cfg),
	}
	imgs = append(imgs, imgs[0], compileFor(t, xp.SystemsSuite()[0].Src, cfg))
	var certs []vliw.SafetyCertificate // one per distinct image
	for _, img := range []*isa.Image{imgs[0], imgs[1], imgs[3]} {
		cert, err := safecheck.Certify(img)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, cert)
	}
	ref, checked, native := vliw.New(imgs[0]), vliw.New(imgs[0]), vliw.New(imgs[0])
	machines, names := []*vliw.Machine{ref, checked, native}, []string{"reference", "checked", "native"}
	for _, quantum := range []int64{37, 37, 200, 1} { // 37 twice: the second with warm regions
		var rs [3][]vliw.ContextResult
		for i, m := range machines {
			if err := m.ResetMany(imgs); err != nil {
				t.Fatal(err)
			}
			switch m {
			case ref:
				perWord(m)
			case native:
				for _, cert := range certs {
					if err := m.UseNativeCertificate(cert); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.Quantum = quantum
			var err error
			if rs[i], err = m.RunMany(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < len(machines); i++ {
			m, name := machines[i], names[i]
			for k := range imgs {
				r, n := rs[0][k], rs[i][k]
				if r.Exit != n.Exit || r.Output != n.Output || r.Stats != n.Stats || fmt.Sprint(r.Err) != fmt.Sprint(n.Err) {
					t.Fatalf("quantum %d, context %d: reference %+v vs %s %+v", quantum, k, r, name, n)
				}
				if d := vliw.DiffState(ref.Contexts()[k], m.Contexts()[k]); d != "" {
					t.Fatalf("quantum %d, context %d, %s: %s", quantum, k, name, d)
				}
			}
			if ref.Sched != m.Sched || ref.Stats != m.Stats {
				t.Fatalf("quantum %d: scheduler %+v / %+v vs %s %+v / %+v", quantum, ref.Sched, ref.Stats, name, m.Sched, m.Stats)
			}
		}
		if quantum == 37 && ref.Sched.Switches < 1000 {
			t.Fatalf("quantum 37 rotated only %d times", ref.Sched.Switches)
		}
	}
}
