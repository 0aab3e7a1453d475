package vliw

import (
	"errors"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// snapSrc exercises the float pipelines (6-7 beat latencies keep pending
// writes in flight), memory traffic (bank-busy windows), loops (icache
// reuse), data-dependent conditions (branch-bank writes, some in flight at
// an instruction boundary) and output — a program whose mid-run state is
// maximally rich, running past beat 2000.
const snapSrc = `
var acc [64]float
func main() int {
	var s float = 0.0
	var n int = 0
	for (var i int = 0; i < 64; i = i + 1) {
		acc[i] = float(i) * 1.5
	}
	for (var i int = 0; i < 64; i = i + 1) {
		s = s + acc[i] * acc[63 - i]
		if (acc[i] > 20.0) { n = n + 3 }
		if ((i & 3) == 1) { n = n + 1 }
	}
	print_i(int(s))
	for (var i int = 0; i < 64; i = i + 1) {
		print_i(i * 3 + n)
	}
	return int(s) % 100
}`

// runRef runs the machine to completion and returns its reference outcome.
func runRef(t *testing.T, m *Machine) (int32, string, Stats) {
	t.Helper()
	v, out, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return v, out, m.Stats
}

func TestSnapshotSplitRunEquivalence(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())

	ref := New(img)
	wantExit, wantOut, wantStats := runRef(t, ref)
	total := wantStats.Beats
	if total < 100 {
		t.Fatalf("program too short to split meaningfully: %d beats", total)
	}

	for _, split := range []int64{1, 3, total / 3, total / 2, total - 1} {
		m := New(img)
		m.StopBeat = split
		v0, out0, err := m.Run()
		var stop *ErrStopped
		if !errors.As(err, &stop) {
			// A split inside the final instruction never reaches another
			// boundary check: the run completes instead of pausing. That is
			// the documented semantics; the completed run must still match.
			if err == nil && v0 == wantExit && out0 == wantOut && m.Stats == wantStats {
				continue
			}
			t.Fatalf("split %d: want ErrStopped, got %v", split, err)
		}
		if stop.Beat < split {
			t.Fatalf("split %d: stopped early at beat %d", split, stop.Beat)
		}
		snap, err := m.Contexts()[0].Snapshot()
		if err != nil {
			t.Fatalf("split %d: snapshot: %v", split, err)
		}

		// Resume on a completely fresh machine.
		r := New(img)
		if err := r.Contexts()[0].Restore(snap); err != nil {
			t.Fatalf("split %d: restore: %v", split, err)
		}
		v, out, err := r.Run()
		if err != nil {
			t.Fatalf("split %d: resumed run: %v", split, err)
		}
		if v != wantExit || out != wantOut {
			t.Errorf("split %d: resumed (%d, %q), uninterrupted (%d, %q)", split, v, out, wantExit, wantOut)
		}
		if r.Stats != wantStats {
			t.Errorf("split %d: stats diverge:\nresumed:       %+v\nuninterrupted: %+v", split, r.Stats, wantStats)
		}
	}
}

// TestSnapshotMidPendingWrite pins the hardest split point: a beat where
// the write pipeline holds in-flight values and bank-busy windows extend
// into the future. The snapshot must carry both or the resumed run loses
// writes / timing.
func TestSnapshotMidPendingWrite(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	ref := New(img)
	wantExit, wantOut, wantStats := runRef(t, ref)

	foundPending, foundBusy := false, false
	for split := int64(1); split < wantStats.Beats && !(foundPending && foundBusy); split += 7 {
		m := New(img)
		m.StopBeat = split
		_, _, err := m.Run()
		var stop *ErrStopped
		if !errors.As(err, &stop) {
			break // ran to completion before the split point
		}
		c := m.Contexts()[0]
		ws := c.inFlight()
		pend := len(ws) > 0
		busy := false
		for _, b := range c.bankBusy {
			if b > c.beat {
				busy = true
			}
		}
		if (!pend || foundPending) && (!busy || foundBusy) {
			continue
		}
		foundPending = foundPending || pend
		foundBusy = foundBusy || busy

		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r := New(img)
		if err := r.Contexts()[0].Restore(snap); err != nil {
			t.Fatal(err)
		}
		if rs := r.Contexts()[0].inFlight(); len(rs) != len(ws) {
			t.Fatalf("split %d: restored %d pending writes, want %d", split, len(rs), len(ws))
		}
		v, out, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if v != wantExit || out != wantOut || r.Stats != wantStats {
			t.Errorf("split %d (pending=%v busy=%v): resumed run diverged", split, pend, busy)
		}
	}
	if !foundPending {
		t.Error("no split landed mid-pending-write; test program needs longer latencies")
	}
	if !foundBusy {
		t.Error("no split landed mid-bank-busy-window")
	}
}

func TestSnapshotPristineContextRejected(t *testing.T) {
	img := build(t, `func main() int { return 0 }`, mach.Trace7())
	m := New(img)
	_, err := m.Contexts()[0].Snapshot()
	var bad *ErrBadSnapshot
	if !errors.As(err, &bad) {
		t.Fatalf("pristine snapshot: want ErrBadSnapshot, got %v", err)
	}
	if bad.Field != "state" {
		t.Errorf("attribution field %q, want \"state\"", bad.Field)
	}
}

func TestSnapshotHaltedRoundTrip(t *testing.T) {
	img := build(t, `func main() int { print_i(9); return 5 }`, mach.Trace7())
	m := New(img)
	v, out, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Contexts()[0].Snapshot()
	if err != nil {
		t.Fatalf("halted snapshot: %v", err)
	}
	r := New(img)
	if err := r.Contexts()[0].Restore(snap); err != nil {
		t.Fatal(err)
	}
	v2, out2, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v || out2 != out {
		t.Errorf("halted resume: (%d, %q) != (%d, %q)", v2, out2, v, out)
	}
	if r.Stats != m.Stats {
		t.Errorf("halted resume stats diverge")
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	m := New(img)
	m.StopBeat = 50
	m.Run()
	snap, err := m.Contexts()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		mut   func([]byte) []byte
		field string
	}{
		{"magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "magic"},
		{"version", func(b []byte) []byte { b[8] ^= 0xff; return b }, "version"},
		{"fingerprint", func(b []byte) []byte { b[20] ^= 0x01; return b }, "image"},
		{"checksum", func(b []byte) []byte { b[60] ^= 0x01; return b }, "checksum"},
		{"payload", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, "checksum"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-8] }, "length"},
		{"short", func(b []byte) []byte { return b[:40] }, "header"},
	}
	for _, tc := range cases {
		mutated := tc.mut(append([]byte(nil), snap...))
		r := New(img)
		err := r.Contexts()[0].Restore(mutated)
		var bad *ErrBadSnapshot
		if !errors.As(err, &bad) {
			t.Fatalf("%s: want ErrBadSnapshot, got %v", tc.name, err)
		}
		if bad.Field != tc.field {
			t.Errorf("%s: rejected as [%s], want [%s]: %v", tc.name, bad.Field, tc.field, err)
		}
	}
}

func TestSnapshotCrossImageRejected(t *testing.T) {
	imgA := build(t, `func main() int { print_i(1); return 1 }`, mach.Trace7())
	imgB := build(t, `func main() int { print_i(2); return 2 }`, mach.Trace7())

	m := New(imgA)
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Contexts()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	r := New(imgB)
	err = r.Contexts()[0].Restore(snap)
	var bad *ErrBadSnapshot
	if !errors.As(err, &bad) {
		t.Fatalf("cross-image restore: want ErrBadSnapshot, got %v", err)
	}
	if bad.Field != "image" {
		t.Errorf("cross-image rejected as [%s], want [image]", bad.Field)
	}
	if !strings.Contains(err.Error(), "different image") {
		t.Errorf("rejection lacks attribution: %v", err)
	}

	// Same program, different machine configuration: also a different image.
	imgWide := build(t, `func main() int { print_i(1); return 1 }`, mach.Trace28())
	r2 := New(imgWide)
	if err := r2.Contexts()[0].Restore(snap); err == nil {
		t.Error("restore onto a different machine configuration must fail")
	}
}

// TestSnapshotCycleLimitResume checkpoints a context retired by the beat
// budget and proves a resume under a larger budget completes identically to
// an uninterrupted run.
func TestSnapshotCycleLimitResume(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	ref := New(img)
	wantExit, wantOut, wantStats := runRef(t, ref)

	m := New(img)
	m.CycleLimit = wantStats.Beats / 2
	_, _, err := m.Run()
	var lim *ErrCycleLimit
	if !errors.As(err, &lim) {
		t.Fatalf("want ErrCycleLimit, got %v", err)
	}
	snap, err := m.Contexts()[0].Snapshot()
	if err != nil {
		t.Fatalf("snapshot at cycle-limit retirement: %v", err)
	}

	r := New(img)
	if err := r.Contexts()[0].Restore(snap); err != nil {
		t.Fatal(err)
	}
	v, out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != wantExit || out != wantOut || r.Stats != wantStats {
		t.Errorf("cycle-limit resume diverged: (%d, %q) stats=%+v", v, out, r.Stats)
	}
}

// TestSnapshotTrapBeat stops a run on the exact beat a trap would fire and
// proves the resumed run reproduces the identical fault.
func TestSnapshotTrapBeat(t *testing.T) {
	img := build(t, `
func main() int {
	var d int = 0
	for (var i int = 0; i < 20; i = i + 1) { print_i(i) }
	return 7 / d
}`, mach.Trace7())

	m := New(img)
	_, refOut, err := m.Run()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}

	// Stop exactly at (and just before) the faulting beat.
	for _, split := range []int64{f.Beat, f.Beat - 1, f.Beat - 2} {
		s := New(img)
		s.StopBeat = split
		_, _, err := s.Run()
		var stop *ErrStopped
		if !errors.As(err, &stop) {
			// The fault fired before the pause check could: acceptable only
			// when the split is the trap beat itself.
			var f2 *Fault
			if errors.As(err, &f2) && *f2 == *f {
				continue
			}
			t.Fatalf("split %d: want ErrStopped or the fault, got %v", split, err)
		}
		snap, err := s.Contexts()[0].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r := New(img)
		if err := r.Contexts()[0].Restore(snap); err != nil {
			t.Fatal(err)
		}
		_, out, err := r.Run()
		var rf *Fault
		if !errors.As(err, &rf) {
			t.Fatalf("split %d: resumed run: want the original fault, got %v", split, err)
		}
		if *rf != *f {
			t.Errorf("split %d: resumed fault %+v, original %+v", split, rf, f)
		}
		if out != refOut {
			t.Errorf("split %d: output %q, want %q", split, out, refOut)
		}
	}
}

// TestSnapshotRunManyResume restores a checkpointed context as one tenant
// of a time-shared batch: the preempted program re-enters RunMany mid-flight
// and still produces its solo-identical result.
func TestSnapshotRunManyResume(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	other := build(t, `func main() int {
	var s int = 0
	for (var i int = 0; i < 200; i = i + 1) { s = s + i }
	print_i(s)
	return 0
}`, mach.Trace7())

	ref := New(img)
	wantExit, wantOut, wantStats := runRef(t, ref)
	refOther := New(other)
	wantExitO, wantOutO, wantStatsO := runRef(t, refOther)

	m := New(img)
	m.StopBeat = wantStats.Beats / 2
	_, _, err := m.Run()
	var stop *ErrStopped
	if !errors.As(err, &stop) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	snap, err := m.Contexts()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The preempted program re-enters a 3-tenant batch mid-flight alongside
	// two fresh programs.
	batch := New(img)
	if err := batch.ResetMany([]*isa.Image{img, other, img}); err != nil {
		t.Fatal(err)
	}
	if err := batch.Contexts()[0].Restore(snap); err != nil {
		t.Fatalf("restore into batch: %v", err)
	}
	crs, err := batch.RunMany(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(crs) != 3 {
		t.Fatalf("got %d results", len(crs))
	}
	if crs[0].Exit != wantExit || crs[0].Output != wantOut || crs[0].Stats != wantStats {
		t.Errorf("resumed tenant diverged from solo:\n got %+v\nwant %+v", crs[0].Stats, wantStats)
	}
	if crs[1].Exit != wantExitO || crs[1].Output != wantOutO || crs[1].Stats != wantStatsO {
		t.Errorf("fresh tenant 1 diverged from solo")
	}
	if crs[2].Exit != wantExit || crs[2].Output != wantOut || crs[2].Stats != wantStats {
		t.Errorf("fresh tenant 2 diverged from solo")
	}
}

// TestStopBeatPausesOnlyRun: StopBeat pauses Run, which executes one context;
// RunMany ignores it, however many contexts are resident.
func TestStopBeatPausesOnlyRun(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	ref := New(img)
	wantExit, wantOut, wantStats := runRef(t, ref)
	split := wantStats.Beats / 2

	m := New(img)
	m.StopBeat = split
	_, _, err := m.Run()
	var stop *ErrStopped
	if !errors.As(err, &stop) || stop.Beat < split || stop.Beat > split+64 {
		t.Fatalf("Run with StopBeat %d: %v", split, err)
	}
	if c := m.Contexts()[0]; c.Halted() || c.Beat() != stop.Beat || m.Stats.Beats != stop.Beat {
		t.Errorf("paused context: halted %v beat %d Stats.Beats %d, stop at %d", c.Halted(), c.Beat(), m.Stats.Beats, stop.Beat)
	}

	for _, k := range []int{1, 2} {
		imgs := make([]*isa.Image, k)
		for i := range imgs {
			imgs[i] = img
		}
		if err := m.ResetMany(imgs); err != nil {
			t.Fatal(err)
		}
		m.StopBeat = split
		rs, err := m.RunMany(nil)
		if err != nil {
			t.Fatalf("K=%d RunMany with StopBeat set: %v", k, err)
		}
		for i, r := range rs {
			if r.Err != nil || r.Exit != wantExit || r.Output != wantOut || r.Stats != wantStats {
				t.Errorf("K=%d context %d did not run to completion past StopBeat: %+v", k, i, r)
			}
		}
	}
}
