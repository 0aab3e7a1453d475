package vliw

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
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
// the store closures of a region honour it.
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

// TestRegionSummary: the counters tracesim prints add up.
func TestRegionSummary(t *testing.T) {
	m, ref := warmNative(t)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	r := &m.regions
	// A Reset empties the icache, so warm regions meet refills.
	if r.by[exitBranch]+r.by[exitLimit] == 0 || r.by[exitRefill] == 0 || r.words > ref.Instrs {
		t.Errorf("%s", m.RegionSummary())
	}
}
