package vliw

import (
	"context"
	"errors"
	"testing"

	"github.com/multiflow-repro/trace/internal/mach"
)

// loopSrc runs for hundreds of thousands of beats, so cancellation always
// lands mid-simulation.
const loopSrc = `
func main() int {
	var s int = 0
	for (var i int = 0; i < 1000000; i = i + 1) { s = s + (i & 3) }
	return s & 65535
}
`

func TestRunContextNilAndBackground(t *testing.T) {
	img := build(t, `func main() int { print_i(7) return 7 }`, mach.Trace28())
	m := New(img)
	v, out, err := m.RunContext(nil)
	if err != nil || v != 7 || out != "7\n" {
		t.Fatalf("RunContext(nil) = %d %q %v", v, out, err)
	}
	m.Reset(img)
	v, out, err = m.RunContext(context.Background())
	if err != nil || v != 7 || out != "7\n" {
		t.Fatalf("RunContext(Background) = %d %q %v", v, out, err)
	}
}

func TestRunContextCanceledStopsWithinOneInterval(t *testing.T) {
	img := build(t, loopSrc, mach.Trace28())
	m := New(img)

	// Reference run: how long the program takes uncanceled.
	total, _, err := m.RunContext(nil)
	_ = total
	if err != nil {
		t.Fatal(err)
	}
	fullBeats := m.Stats.Beats
	if fullBeats < 10*DefaultCtxCheckBeats {
		t.Fatalf("loop program too short (%d beats) to observe cancellation", fullBeats)
	}

	// Cancel mid-run from a watchpoint on beat progress: TraceFn fires per
	// instruction, so cancel once past a known beat.
	m.Reset(img)
	ctx, cancel := context.WithCancel(context.Background())
	var cancelBeat int64
	m.TraceFn = func(pc int, beat int64) {
		if cancelBeat == 0 && beat >= 3*DefaultCtxCheckBeats {
			cancelBeat = beat
			cancel()
		}
	}
	_, _, err = m.RunContext(ctx)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	var ec *ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("error type %T, want *ErrCanceled: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	if ec.Beat == 0 || ec.PC < 0 {
		t.Errorf("ErrCanceled carries no position: %+v", ec)
	}
	// The contract: the run stops within one check interval of the cancel.
	if m.Stats.Beats > cancelBeat+m.CtxCheckEvery+64 {
		t.Errorf("run continued %d beats past cancellation (check interval %d)",
			m.Stats.Beats-cancelBeat, m.CtxCheckEvery)
	}
	if m.Stats.Beats >= fullBeats {
		t.Error("canceled run executed to completion")
	}
}

func TestRunContextDeadline(t *testing.T) {
	img := build(t, loopSrc, mach.Trace28())
	m := New(img)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, _, err := m.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, DeadlineExceeded) = false: %v", err)
	}
	// An expired deadline still stops within the first check interval
	// (plus the beats of the one instruction in flight at the check).
	if m.Stats.Beats > DefaultCtxCheckBeats+64 {
		t.Errorf("expired-deadline run executed %d beats, want ~%d",
			m.Stats.Beats, DefaultCtxCheckBeats)
	}
}

func TestCtxCheckEveryTunable(t *testing.T) {
	img := build(t, loopSrc, mach.Trace28())
	m := New(img)
	m.CtxCheckEvery = 256
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	if m.Stats.Beats > 256+64 {
		t.Errorf("run executed %d beats with CtxCheckEvery=256", m.Stats.Beats)
	}
}

// TestRestoredRunKeepsTheContextClock: a solo run resumed from a checkpoint
// reports cancellation and the next pause on the context's own clock — the
// beats since boot, not since the restore — and counts its poll interval from
// the restore point.
func TestRestoredRunKeepsTheContextClock(t *testing.T) {
	img := build(t, loopSrc, mach.Trace28())
	const at, every = 20_000, 256
	m := New(img)
	m.StopBeat = at
	_, _, err := m.Run()
	var stop *ErrStopped
	if !errors.As(err, &stop) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	snap, err := m.Contexts()[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := func() *Machine {
		r := New(img)
		if err := r.Contexts()[0].Restore(snap); err != nil {
			t.Fatal(err)
		}
		return r
	}

	r := restored()
	r.CtxCheckEvery = every
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = r.RunContext(ctx)
	var ec *ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The first poll is one interval past the restore point, give or take the
	// instruction in flight.
	if ec.Beat < stop.Beat+every || ec.Beat > stop.Beat+every+64 {
		t.Errorf("canceled at beat %d, want one interval (%d) past the restore at %d", ec.Beat, every, stop.Beat)
	}
	if ec.Beat != r.Stats.Beats || ec.Beat != r.Contexts()[0].Beat() {
		t.Errorf("ErrCanceled.Beat %d is not the context clock (%d, Stats.Beats %d)", ec.Beat, r.Contexts()[0].Beat(), r.Stats.Beats)
	}

	r = restored()
	r.StopBeat = 2 * at
	_, _, err = r.Run()
	var again *ErrStopped
	if !errors.As(err, &again) {
		t.Fatalf("want a second ErrStopped, got %v", err)
	}
	if again.Beat < 2*at || again.Beat > 2*at+64 || again.Beat != r.Contexts()[0].Beat() {
		t.Errorf("restored run paused at beat %d, want the context clock at %d", again.Beat, 2*at)
	}
}
