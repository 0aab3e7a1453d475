package vliw

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/tsched"
)

// build compiles source to an image without going through internal/core
// (vliw must not import core).
func build(t testing.TB, src string, cfg mach.Config) *isa.Image {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opt.Run(prog, opt.Default())
	prof := profile.Static(prog)
	codes, err := tsched.CompileParallel(context.Background(), prog, cfg, prof, tsched.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := isa.Link(prog, codes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestRunSimple(t *testing.T) {
	img := build(t, `func main() int { print_i(7); return 41 + 1 }`, mach.Trace7())
	m := New(img)
	v, out, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 || out != "7\n" {
		t.Errorf("got (%d, %q)", v, out)
	}
	if m.Stats.Beats == 0 || m.Stats.Instrs == 0 || m.Stats.Syscalls != 1 {
		t.Errorf("stats: %+v", m.Stats)
	}
}

func TestSelfDrainingPipelines(t *testing.T) {
	// A value loaded just before a taken branch must still arrive.
	img := build(t, `
var a [16]float
func main() int {
	a[3] = 6.5
	var s float = 0.0
	for (var i int = 0; i < 4; i = i + 1) { s = s + a[3] }
	return int(s)
}`, mach.Trace28())
	m := New(img)
	v, _, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 26 {
		t.Errorf("got %d, want 26", v)
	}
}

func TestBankStallCounted(t *testing.T) {
	// Stride-64 f64 references through an array PARAMETER: the
	// disambiguator answers "maybe" (unknown base), the scheduler rolls
	// the dice, and the hardware bank-stalls at run time (§6.4.4).
	img := build(t, `
var a [4096]float
func sweep(p []float) float {
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + p[i * 64] + p[i * 64 + 1] }
	return s
}
func main() int {
	var s float = 0.0
	for (var r int = 0; r < 8; r = r + 1) { s = s + sweep(a) }
	return int(s)
}`, mach.Trace28())
	m := New(img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.BankStalls == 0 {
		t.Error("same-bank stride produced no bank stalls")
	}
}

func TestICacheColdMisses(t *testing.T) {
	img := build(t, `func main() int { return 1 }`, mach.Trace7())
	m := New(img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.ICacheMiss == 0 {
		t.Error("cold start produced no icache misses")
	}
	// run straight-line code twice as long: misses stay cold-only
	img2 := build(t, `
func main() int {
	var s int = 0
	for (var i int = 0; i < 1000; i = i + 1) { s = s + i }
	return s & 255
}`, mach.Trace7())
	m2 := New(img2)
	if _, _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	total := m2.Stats.ICacheHits + m2.Stats.ICacheMiss
	if float64(m2.Stats.ICacheMiss)/float64(total) > 0.05 {
		t.Errorf("loop code missing too much: %d/%d", m2.Stats.ICacheMiss, total)
	}
}

func TestTLBMissesAndTrapCost(t *testing.T) {
	img := build(t, `
var big [65536]float
func main() int {
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + big[i * 1024] }
	return int(s)
}`, mach.Trace28())
	m := New(img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// 64 pages touched, 8KB each: at least ~60 cold data misses
	if m.Stats.TLBMisses < 50 {
		t.Errorf("page-stride sweep: only %d TLB misses", m.Stats.TLBMisses)
	}
	if m.Stats.TrapBeats == 0 {
		t.Error("TLB misses charged no trap beats")
	}
}

func TestSpeculativeFaultsAreCounted(t *testing.T) {
	// unrolled loop reads past the trip count speculatively; no trap, but
	// the funny-number counter moves when addresses leave the space
	img := build(t, `
var a [8]float
func main() int {
	var s float = 0.0
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] }
	return int(s)
}`, mach.Trace28())
	m := New(img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.SpecLoads == 0 {
		t.Skip("no speculation generated for this shape")
	}
}

func TestFaultOnBadStore(t *testing.T) {
	img2 := build(t, `
var a [4]int
func main() int {
	var idx int = -100000
	a[idx] = 1
	return 0
}`, mach.Trace7())
	m := New(img2)
	_, _, err := m.Run()
	if err == nil {
		t.Fatal("wild store did not fault")
	}
	if !strings.Contains(err.Error(), "bus error") {
		t.Errorf("unexpected fault: %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	img := build(t, `
func main() int {
	var i int = 0
	while (i == 0) { i = i * 1 }
	return i
}`, mach.Trace7())
	m := New(img)
	m.CycleLimit = 10000
	_, _, err := m.Run()
	var lim *ErrCycleLimit
	if err == nil || !errors.As(err, &lim) {
		t.Errorf("runaway program not stopped: %v", err)
	} else if lim.Limit != 10000 {
		t.Errorf("ErrCycleLimit.Limit = %d, want 10000", lim.Limit)
	}
}

func TestWatchStoreAndTraceFn(t *testing.T) {
	img := build(t, `
var g [4]int
func main() int {
	g[0] = 11
	g[1] = 22
	return g[0] + g[1]
}`, mach.Trace7())
	m := New(img)
	var instrs int
	m.TraceFn = func(pc int, beat int64) { instrs++ }
	v, _, err := m.Run()
	if err != nil || v != 33 {
		t.Fatalf("run: %d, %v", v, err)
	}
	if int64(instrs) != m.Stats.Instrs {
		t.Errorf("TraceFn fired %d times, %d instructions executed", instrs, m.Stats.Instrs)
	}
}

func TestPeekRegisters(t *testing.T) {
	img := build(t, `func main() int { return 123 }`, mach.Trace7())
	m := New(img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// the integer return convention register holds the exit value
	if got := int32(m.cur.readReg(mach.RegRVI)); got != 123 {
		t.Errorf("RVI = %d, want 123", got)
	}
}

func TestStatsRates(t *testing.T) {
	s := Stats{Beats: 1000, Ops: 2000, FloatOps: 500}
	if s.MIPS() <= 0 || s.MFLOPS() <= 0 {
		t.Error("rates not positive")
	}
	var z Stats
	if z.MIPS() != 0 || z.MFLOPS() != 0 {
		t.Error("zero-beat rates should be 0")
	}
}

func TestMultiwayBranchPriorities(t *testing.T) {
	// if/else-if chains compile to multiway tests; semantics must follow
	// original order regardless of packing
	img := build(t, `
func classify(x int) int {
	if (x < 10) { return 1 }
	if (x < 20) { return 2 }
	if (x < 30) { return 3 }
	return 4
}
func main() int {
	var s int = 0
	for (var i int = 0; i < 40; i = i + 1) { s = s * 10 + classify(i) }
	return s & 16777215
}`, mach.Trace28())
	m := New(img)
	v, _, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// compare against the interpreter
	prog, _ := lang.Compile(`
func classify(x int) int {
	if (x < 10) { return 1 }
	if (x < 20) { return 2 }
	if (x < 30) { return 3 }
	return 4
}
func main() int {
	var s int = 0
	for (var i int = 0; i < 40; i = i + 1) { s = s * 10 + classify(i) }
	return s & 16777215
}`)
	in := &ir.Interp{Prog: prog}
	want, _, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Errorf("multiway semantics: %d vs %d", v, want)
	}
}

func TestTimerInterrupts(t *testing.T) {
	src := `
func main() int {
	var s int = 0
	for (var i int = 0; i < 2000; i = i + 1) { s = s + i }
	return s & 65535
}`
	img := build(t, src, mach.Trace7())
	base := New(img)
	wantV, _, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := New(img)
	m.InterruptEvery = 1000
	m.InterruptBeats = 200
	v, _, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != wantV {
		t.Fatalf("interrupts changed semantics: %d vs %d", v, wantV)
	}
	if m.Stats.Interrupts == 0 {
		t.Fatal("no interrupts delivered")
	}
	if m.Stats.Beats <= base.Stats.Beats {
		t.Error("interrupt cost not charged")
	}
	// overhead ≈ interrupts * cost
	want := m.Stats.Interrupts * 200
	if m.Stats.InterruptBeats != want {
		t.Errorf("interrupt beats %d, want %d", m.Stats.InterruptBeats, want)
	}
}

func TestContextSwitchTagged(t *testing.T) {
	src := `
func main() int {
	var s int = 0
	for (var i int = 0; i < 3000; i = i + 1) { s = s + i }
	return s & 65535
}`
	img := build(t, src, mach.Trace28())
	base := New(img)
	wantV, wantOut, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	run := func(flush bool) *Machine {
		m := New(img)
		m.InterruptEvery = 1500
		m.InterruptBeats = 50
		m.FlushOnSwitch = flush
		m.OnInterrupt = func(mm *Machine) {
			mm.ContextSwitch(1)
			mm.ContextSwitch(0)
		}
		v, out, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if v != wantV || out != wantOut {
			t.Fatalf("flush=%v: context switching changed semantics: %d vs %d", flush, v, wantV)
		}
		return m
	}

	tagged := run(false)
	purged := run(true)
	if tagged.Stats.Switches == 0 {
		t.Fatal("no context switches happened")
	}
	if tagged.Stats.SwitchBeats == 0 {
		t.Error("switch cost not charged")
	}
	// tagged entries survive the neighbour's quantum: its misses stay at the
	// cold-start level, while the purged machine re-faults every timeslice
	if tagged.Stats.ICacheMiss > base.Stats.ICacheMiss+4 {
		t.Errorf("tagged cache lost entries across switches: %d misses vs %d undisturbed",
			tagged.Stats.ICacheMiss, base.Stats.ICacheMiss)
	}
	if purged.Stats.ICacheMiss <= tagged.Stats.ICacheMiss {
		t.Errorf("purging did not increase misses: purged %d, tagged %d",
			purged.Stats.ICacheMiss, tagged.Stats.ICacheMiss)
	}
	if purged.Stats.TLBMisses <= tagged.Stats.TLBMisses {
		t.Errorf("purging did not increase TLB misses: purged %d, tagged %d",
			purged.Stats.TLBMisses, tagged.Stats.TLBMisses)
	}
	if purged.Stats.Beats <= tagged.Stats.Beats {
		t.Errorf("purged machine not slower: %d vs %d beats", purged.Stats.Beats, tagged.Stats.Beats)
	}
}

func TestContextSwitchCostFlat(t *testing.T) {
	// Section 8.1: the microseconds stay nearly flat across configurations
	// because memory bandwidth grows with the register state.
	var us [3]float64
	for i, cfg := range []mach.Config{mach.Trace7(), mach.Trace14(), mach.Trace28()} {
		img := build(t, "func main() int { return 0 }", cfg)
		m := New(img)
		m.ContextSwitch(1)
		if m.Stats.Switches != 1 {
			t.Fatal("switch not recorded")
		}
		us[i] = float64(m.Stats.SwitchBeats) * mach.BeatNs / 1000
	}
	for _, u := range us {
		if u < 10 || u > 20 {
			t.Errorf("context switch %v us, want ~15 (paper Section 8.1)", u)
		}
	}
	if us[2] > 1.2*us[0] {
		t.Errorf("cost not flat across configs: %v", us)
	}
}

func TestDMACycleSteal(t *testing.T) {
	src := `
var a [2048]float
func main() int {
	for (var i int = 0; i < 2048; i = i + 1) { a[i] = float(i) }
	var s float = 0.0
	for (var r int = 0; r < 4; r = r + 1) {
		for (var i int = 0; i < 2048; i = i + 1) { s = s + a[i] }
	}
	return int(s) & 65535
}`
	img := build(t, src, mach.Trace28())
	base := New(img)
	wantV, wantOut, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	bufBase := (img.DataTop + 4095) &^ 4095
	m := New(img)
	m.StartDMA(bufBase, 1<<15, 200e6) // deliberately heavy I/O load
	v, out, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != wantV || out != wantOut {
		t.Fatalf("DMA corrupted program state: %d vs %d", v, wantV)
	}
	if m.Stats.DMARefs == 0 {
		t.Fatal("IOP issued no references")
	}
	if m.Stats.BankStalls <= base.Stats.BankStalls {
		t.Errorf("heavy DMA produced no extra bank stalls: %d vs %d",
			m.Stats.BankStalls, base.Stats.BankStalls)
	}
	// the stream landed real bytes in the buffer
	touched := false
	for i := int64(0); i < 64; i++ {
		if m.ctxs[0].mem[bufBase+i] != 0 {
			touched = true
			break
		}
	}
	if !touched {
		t.Error("DMA buffer untouched")
	}

	// rate cap: requests above half peak bandwidth are clamped
	fast := New(img)
	fast.StartDMA(bufBase, 1<<15, 1e12)
	if _, _, err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	halfPeak := mach.Trace28().PeakMemBandwidth() / 2
	secs := float64(fast.Stats.Beats) * mach.BeatNs * 1e-9
	if got := float64(fast.Stats.DMARefs*8) / secs; got > 1.05*halfPeak {
		t.Errorf("IOP exceeded half peak bandwidth: %.0f > %.0f", got, halfPeak)
	}
}

func TestRunawayProgramHitsStepLimit(t *testing.T) {
	src := `
func main() int {
	var i int = 0
	for (; 1 == 1 ;) { i = i + 1 }
	return i
}`
	img := build(t, src, mach.Trace7())
	m := New(img)
	m.CycleLimit = 50_000
	_, _, err := m.Run()
	if err == nil {
		t.Fatal("infinite loop terminated without fault")
	}
	lim, ok := err.(*ErrCycleLimit)
	if !ok {
		t.Fatalf("want *ErrCycleLimit, got %T: %v", err, err)
	}
	if lim.Limit != 50_000 {
		t.Errorf("ErrCycleLimit.Limit = %d, want 50_000", lim.Limit)
	}
}

func TestFaultCarriesPC(t *testing.T) {
	src := `
var a [4]int
func main() int {
	var p []int = a
	return p[1 << 20]
}`
	img := build(t, src, mach.Trace28())
	m := New(img)
	_, _, err := m.Run()
	if err == nil {
		t.Fatal("out-of-range load did not fault")
	}
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if f.PC < 0 || f.PC >= len(img.Instrs) {
		t.Errorf("fault PC %d outside image", f.PC)
	}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestStatsRatesPlausible(t *testing.T) {
	src := `
var a [256]float
func main() int {
	for (var i int = 0; i < 256; i = i + 1) { a[i] = float(i) * 1.5 }
	var s float = 0.0
	for (var i int = 0; i < 256; i = i + 1) { s = s + a[i] }
	return int(s) & 65535
}`
	img := build(t, src, mach.Trace28())
	m := New(img)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := &m.Stats
	if st.Ops < st.Instrs {
		t.Errorf("fewer ops (%d) than instructions (%d)", st.Ops, st.Instrs)
	}
	mips := st.MIPS()
	peak := mach.Trace28().PeakMIPS()
	if mips <= 0 || mips > peak {
		t.Errorf("achieved %v MIPS outside (0, %v]", mips, peak)
	}
	if st.MFLOPS() <= 0 || st.MFLOPS() > mach.Trace28().PeakMFLOPS() {
		t.Errorf("MFLOPS %v implausible", st.MFLOPS())
	}
	if st.Beats <= 0 || st.ICacheHits+st.ICacheMiss == 0 {
		t.Error("counters not populated")
	}
}
