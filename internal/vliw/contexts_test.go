package vliw

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Three behaviorally distinct programs for the time-sharing suite: their
// outputs, exits, and beat counts all differ, so cross-context state leaks
// show up as mismatches rather than coincidences.
const (
	ctxSrcA = `
func main() int {
	var s int = 0
	for (var i int = 0; i < 500; i = i + 1) { s = s + i }
	print_i(s)
	return s & 255
}`
	ctxSrcB = `
var v [256]float
func main() int {
	for (var i int = 0; i < 256; i = i + 1) { v[i] = float(i) * 0.5 }
	var s float = 0.0
	for (var i int = 0; i < 256; i = i + 1) { s = s + v[i] }
	print_f(s)
	return int(s)
}`
	ctxSrcC = `
func main() int {
	var x int = 1
	for (var i int = 0; i < 300; i = i + 1) { x = (x * 5 + 3) & 16383 }
	print_i(x)
	print_i(x ^ 255)
	return x & 127
}`
)

// soloRun executes one image on a fresh machine and returns the results a
// time-shared context must reproduce exactly.
func soloRun(t *testing.T, img *isa.Image) (int32, string, Stats) {
	t.Helper()
	m := New(img)
	v, out, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v, out, m.Stats
}

// TestRunManySoloEquivalence is the core contract of the hardware-context
// model: every context's exit, output, and full Stats are bit-identical to
// an undisturbed solo run of the same program.
func TestRunManySoloEquivalence(t *testing.T) {
	cfg := mach.Trace7()
	imgs := []*isa.Image{
		build(t, ctxSrcA, cfg), build(t, ctxSrcB, cfg), build(t, ctxSrcC, cfg),
	}
	type want struct {
		exit int32
		out  string
		st   Stats
	}
	wants := make([]want, len(imgs))
	for i, img := range imgs {
		v, out, st := soloRun(t, img)
		wants[i] = want{v, out, st}
	}

	m := New(imgs[0])
	if err := m.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(imgs) {
		t.Fatalf("got %d results for %d contexts", len(rs), len(imgs))
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("context %d: %v", i, r.Err)
		}
		if r.Exit != wants[i].exit || r.Output != wants[i].out {
			t.Errorf("context %d: got (%d, %q), solo (%d, %q)", i, r.Exit, r.Output, wants[i].exit, wants[i].out)
		}
		if r.Stats != wants[i].st {
			t.Errorf("context %d stats diverge from solo run:\n shared: %+v\n solo:   %+v", i, r.Stats, wants[i].st)
		}
	}
	// Machine-level accounting: wall clock = useful beats - hidden + switch
	// overhead, and the aggregate stats sum the per-context counters.
	var sum int64
	for _, w := range wants {
		sum += w.st.Beats
	}
	s := m.Sched
	if s.Contexts != 3 || s.TotalBeats != sum-s.HiddenBeats+s.SwitchBeats {
		t.Errorf("scheduler books don't balance: %+v, solo beat sum %d", s, sum)
	}
	if s.Switches == 0 {
		t.Error("three contexts time-shared with zero rotations")
	}
	if m.Stats.Beats != s.TotalBeats {
		t.Errorf("aggregate Beats %d != wall clock %d", m.Stats.Beats, s.TotalBeats)
	}
}

// TestRunManyK1MatchesRun: a single-context RunMany is the same machine as
// Run — same results, same stats, wall clock equal to the context clock.
func TestRunManyK1MatchesRun(t *testing.T) {
	img := build(t, ctxSrcC, mach.Trace7())
	v, out, st := soloRun(t, img)

	m := New(img)
	if err := m.ResetMany([]*isa.Image{img}); err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Exit != v || rs[0].Output != out || rs[0].Stats != st {
		t.Errorf("K=1 RunMany diverges from Run: %+v vs (%d, %q, %+v)", rs[0], v, out, st)
	}
	if m.Sched.TotalBeats != st.Beats || m.Sched.HiddenBeats != 0 || m.Sched.Switches != 0 {
		t.Errorf("K=1 scheduler should be invisible: %+v", m.Sched)
	}
}

// TestRunManyIsolationTrap: a context that traps retires alone; its
// neighbors still produce byte-identical output and Stats vs solo runs.
func TestRunManyIsolationTrap(t *testing.T) {
	cfg := mach.Trace7()
	good1 := build(t, ctxSrcA, cfg)
	bad := build(t, `
func main() int {
	var d int = 0
	for (var i int = 0; i < 50; i = i + 1) { d = i - i }
	return 7 / d
}`, cfg)
	good2 := build(t, ctxSrcB, cfg)

	v1, out1, st1 := soloRun(t, good1)
	v2, out2, st2 := soloRun(t, good2)

	m := New(good1)
	if err := m.ResetMany([]*isa.Image{good1, bad, good2}); err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatalf("a per-context trap must not fail the machine: %v", err)
	}
	var f *Fault
	if !errors.As(rs[1].Err, &f) || f.Code != TrapDivZero {
		t.Fatalf("context 1: want div-zero fault, got %v", rs[1].Err)
	}
	if rs[0].Err != nil || rs[0].Exit != v1 || rs[0].Output != out1 || rs[0].Stats != st1 {
		t.Errorf("context 0 disturbed by neighbor's trap: %+v", rs[0])
	}
	if rs[2].Err != nil || rs[2].Exit != v2 || rs[2].Output != out2 || rs[2].Stats != st2 {
		t.Errorf("context 2 disturbed by neighbor's trap: %+v", rs[2])
	}
}

// TestRunManyIsolationCycleLimit: a runaway context exhausts the per-context
// beat budget and retires with ErrCycleLimit; the others complete intact.
func TestRunManyIsolationCycleLimit(t *testing.T) {
	cfg := mach.Trace7()
	good := build(t, ctxSrcC, cfg)
	runaway := build(t, loopSrc, cfg)
	v, out, st := soloRun(t, good)

	m := New(good)
	if err := m.ResetMany([]*isa.Image{runaway, good}); err != nil {
		t.Fatal(err)
	}
	m.CycleLimit = 100_000 // far below loopSrc's requirement, far above good's
	rs, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var lim *ErrCycleLimit
	if !errors.As(rs[0].Err, &lim) || lim.Limit != 100_000 {
		t.Fatalf("context 0: want cycle-limit error, got %v", rs[0].Err)
	}
	if rs[1].Err != nil || rs[1].Exit != v || rs[1].Output != out || rs[1].Stats != st {
		t.Errorf("context 1 disturbed by neighbor's runaway: %+v", rs[1])
	}
}

// TestRunManyDeterministic: the context scheduler is a pure function of the
// programs — repeated runs, including under a different GOMAXPROCS, produce
// identical per-context results and identical scheduler counters.
func TestRunManyDeterministic(t *testing.T) {
	cfg := mach.Trace7()
	imgs := []*isa.Image{
		build(t, ctxSrcA, cfg), build(t, ctxSrcB, cfg),
		build(t, ctxSrcC, cfg), build(t, ctxSrcA, cfg),
	}
	run := func() ([]ContextResult, SchedStats) {
		m := New(imgs[0])
		if err := m.ResetMany(imgs); err != nil {
			t.Fatal(err)
		}
		rs, err := m.RunMany(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rs, m.Sched
	}
	ref, refSched := run()
	for trial := 0; trial < 3; trial++ {
		if trial == 1 {
			old := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(old)
		}
		rs, sched := run()
		if sched != refSched {
			t.Fatalf("trial %d: scheduler diverged: %+v vs %+v", trial, sched, refSched)
		}
		for i := range rs {
			if rs[i].Exit != ref[i].Exit || rs[i].Output != ref[i].Output || rs[i].Stats != ref[i].Stats {
				t.Fatalf("trial %d context %d diverged", trial, i)
			}
		}
	}
}

// TestRunManySwitchCost: a nonzero CtxSwitchBeats charges the machine wall
// clock per rotation without touching any context's own results or clock.
func TestRunManySwitchCost(t *testing.T) {
	cfg := mach.Trace7()
	imgs := []*isa.Image{build(t, ctxSrcA, cfg), build(t, ctxSrcC, cfg)}

	free := New(imgs[0])
	if err := free.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	rsFree, err := free.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	paid := New(imgs[0])
	if err := paid.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	paid.SwitchBeats = 25
	rsPaid, err := paid.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rsFree {
		if rsFree[i].Stats != rsPaid[i].Stats || rsFree[i].Output != rsPaid[i].Output {
			t.Errorf("context %d results changed with switch cost", i)
		}
	}
	if paid.Sched.Switches != free.Sched.Switches {
		t.Fatalf("switch cost changed the rotation pattern: %d vs %d", paid.Sched.Switches, free.Sched.Switches)
	}
	wantWall := free.Sched.TotalBeats + 25*paid.Sched.Switches
	if paid.Sched.TotalBeats != wantWall || paid.Sched.SwitchBeats != 25*paid.Sched.Switches {
		t.Errorf("wall clock %d, want %d (+%d switches x 25)", paid.Sched.TotalBeats, wantWall, paid.Sched.Switches)
	}
}

// TestRunManyQuantumFromConfig: the image configuration's CtxQuantum knob
// reaches the scheduler through ResetMany.
func TestRunManyQuantumFromConfig(t *testing.T) {
	cfg := mach.Trace7()
	cfg.CtxQuantum = 64
	imgs := []*isa.Image{build(t, ctxSrcA, cfg), build(t, ctxSrcC, cfg)}
	m := New(imgs[0])
	if err := m.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	if m.Quantum != 64 {
		t.Fatalf("Quantum = %d after ResetMany, want 64 from config", m.Quantum)
	}
	fine, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fineSwitches := m.Sched.Switches

	if err := m.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	m.Quantum = 100_000 // one giant slice: contexts run to completion in turn
	coarse, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fineSwitches <= m.Sched.Switches {
		t.Errorf("64-beat quantum switched %d times, 100k-beat quantum %d", fineSwitches, m.Sched.Switches)
	}
	for i := range fine {
		if fine[i].Stats != coarse[i].Stats || fine[i].Output != coarse[i].Output {
			t.Errorf("context %d results depend on the quantum", i)
		}
	}
}

// TestResetManyRejectsMixedConfigs: contexts share one microarchitecture.
func TestResetManyRejectsMixedConfigs(t *testing.T) {
	a := build(t, ctxSrcA, mach.Trace7())
	b := build(t, ctxSrcC, mach.Trace14())
	m := New(a)
	if err := m.ResetMany([]*isa.Image{a, b}); err == nil {
		t.Fatal("ResetMany accepted images linked for different machines")
	}
	if err := m.ResetMany(nil); err == nil {
		t.Fatal("ResetMany accepted an empty batch")
	}
}

// TestRunManyRequiresReset: re-running a consumed machine is an error, not
// an infinite scheduler spin.
func TestRunManyRequiresReset(t *testing.T) {
	img := build(t, ctxSrcA, mach.Trace7())
	m := New(img)
	if err := m.ResetMany([]*isa.Image{img, img}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunMany(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunMany(context.Background()); err == nil {
		t.Fatal("RunMany ran again without a reset")
	}
	// After a fresh ResetMany the machine serves again (pools rely on this).
	if err := m.ResetMany([]*isa.Image{img}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunMany(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRunManyCancellation: canceling the run's context stops the whole
// machine with ErrCanceled; already-retired contexts keep their results.
func TestRunManyCancellation(t *testing.T) {
	cfg := mach.Trace7()
	imgs := []*isa.Image{build(t, loopSrc, cfg), build(t, loopSrc, cfg)}
	m := New(imgs[0])
	if err := m.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.RunMany(ctx)
	var ec *ErrCanceled
	if !errors.As(err, &ec) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
}

// TestRunManyHidesStalls: with more than one resident context, bank-stall
// and refill beats overlap another context's execution, so the machine wall
// clock undercuts the sum of solo clocks — the paper's latency-hiding
// argument, measurable.
func TestRunManyHidesStalls(t *testing.T) {
	cfg := mach.Trace7()
	// Array sweeps miss the icache on entry and stall banks under
	// RollTheDice scheduling, so there are beats to hide.
	src := `
var p [2048]float
func main() int {
	for (var i int = 0; i < 2048; i = i + 1) { p[i] = float(i) }
	var s float = 0.0
	for (var i int = 0; i < 2048; i = i + 1) { s = s + p[i] }
	return int(s) & 1023
}`
	imgs := []*isa.Image{build(t, src, cfg), build(t, src, cfg)}
	m := New(imgs[0])
	if err := m.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sum, stallish int64
	for _, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		sum += r.Stats.Beats
		stallish += r.Stats.BankStalls + r.Stats.RefillBeats
	}
	if stallish == 0 {
		t.Skip("workload produced no stall beats to hide")
	}
	if m.Sched.HiddenBeats == 0 {
		t.Errorf("no stall beats hidden despite %d available", stallish)
	}
	if m.Sched.TotalBeats != sum-m.Sched.HiddenBeats+m.Sched.SwitchBeats {
		t.Errorf("books don't balance: %+v vs solo sum %d", m.Sched, sum)
	}
	if m.Sched.TotalBeats >= sum {
		t.Errorf("wall clock %d not below solo sum %d: nothing hidden", m.Sched.TotalBeats, sum)
	}
}

// TestRunRequiresReset: a machine whose program has run to completion refuses
// a second Run, as RunMany does — it neither runs the program again from a
// dirty state nor hands back the first result as if it had.
func TestRunRequiresReset(t *testing.T) {
	img := build(t, ctxSrcA, mach.Trace7())
	m := New(img)
	v, out, st := soloRun(t, img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := m.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run ran again without a reset")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a second Run without a reset never returned")
	}
	if m.Stats != st || m.Output() != out {
		t.Errorf("the refused Run disturbed the first run's record: %+v %q", m.Stats, m.Output())
	}
	// After a Reset the machine serves again (pools rely on this).
	m.Reset(img)
	if v2, out2, err := m.Run(); err != nil || v2 != v || out2 != out || m.Stats != st {
		t.Errorf("after Reset: (%d, %q, %v) stats %+v, want (%d, %q) %+v", v2, out2, err, m.Stats, v, out, st)
	}
}

// TestRunReportsSchedulerBooks: a solo run is a batch of one, and reports a
// batch of one's books — nothing hidden, nothing switched, the wall clock the
// context's own, busy beats the beats no stall or refill took.
func TestRunReportsSchedulerBooks(t *testing.T) {
	for _, src := range []string{ctxSrcA, ctxSrcB} {
		img := build(t, src, mach.Trace7())
		m := New(img)
		if _, _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		want := SchedStats{Contexts: 1, TotalBeats: m.Stats.Beats, BusyBeats: m.Stats.Beats - m.Stats.BankStalls - m.Stats.RefillBeats}
		if m.Sched != want {
			t.Errorf("solo Run books %+v, want %+v", m.Sched, want)
		}
		k1 := New(img)
		if _, err := k1.RunMany(context.Background()); err != nil {
			t.Fatal(err)
		}
		if k1.Sched != m.Sched {
			t.Errorf("solo Run books %+v, K=1 RunMany books %+v", m.Sched, k1.Sched)
		}
	}
}

// TestRunOnBatchMachineRunsContextZero: Run on a machine ResetMany loaded with
// several programs executes context 0 and leaves the others as ResetMany left
// them — not booted, not counted, still runnable.
func TestRunOnBatchMachineRunsContextZero(t *testing.T) {
	cfg := mach.Trace7()
	imgs := []*isa.Image{build(t, ctxSrcA, cfg), build(t, ctxSrcB, cfg), build(t, ctxSrcC, cfg)}
	v, out, st := soloRun(t, imgs[0])
	m := New(imgs[0])
	if err := m.ResetMany(imgs); err != nil {
		t.Fatal(err)
	}
	v2, out2, err := m.Run()
	if err != nil || v2 != v || out2 != out || m.Stats != st {
		t.Fatalf("Run on a batch machine: (%d, %q, %v) %+v, solo (%d, %q) %+v", v2, out2, err, m.Stats, v, out, st)
	}
	for i, c := range m.Contexts()[1:] {
		if c.Beat() != 0 || c.Halted() || c.Err() != nil || c.Output() != "" || c.Stats != (Stats{}) {
			t.Errorf("context %d touched by Run: beat %d halted %v err %v out %q stats %+v", i+1, c.Beat(), c.Halted(), c.Err(), c.Output(), c.Stats)
		}
		var bad *ErrBadSnapshot
		if _, err := c.Snapshot(); !errors.As(err, &bad) || bad.Field != "state" {
			t.Errorf("context %d was booted by Run: Snapshot says %v", i+1, err)
		}
	}
}
