package vliw

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// restamp rewrites a snapshot's payload length and checksum after a mutation,
// so Restore's section decoders — not the checksum — judge it.
func restamp(snap []byte) {
	if len(snap) < snapHeaderLen {
		return
	}
	payload := snap[snapHeaderLen:]
	binary.LittleEndian.PutUint64(snap[42:50], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(snap[50:82], sum[:])
}

// sectionBody returns the offset and length of a section's body in snap.
func sectionBody(t testing.TB, snap []byte, tag byte) (off, n int) {
	t.Helper()
	for off = snapHeaderLen; off+9 <= len(snap); off += 9 + n {
		n = int(binary.LittleEndian.Uint64(snap[off+1:]))
		if snap[off] == tag {
			return off + 9, n
		}
	}
	t.Fatalf("snapshot has no section %d", tag)
	return 0, 0
}

// snapshotAt runs snapSrc's image until the first instruction boundary at or
// after beat `from` that satisfies want, and snapshots it there.
func snapshotAt(t testing.TB, img *isa.Image, from int64, want func(*Context) bool) []byte {
	t.Helper()
	for split := from; ; split += 7 {
		m := New(img)
		m.StopBeat = split
		_, _, err := m.Run()
		var stop *ErrStopped
		if !errors.As(err, &stop) {
			t.Fatalf("no boundary from beat %d on satisfies the predicate (run ended: %v)", from, err)
		}
		if c := m.Contexts()[0]; want(c) {
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}
	}
}

func midPendingWrite(c *Context) bool { return len(c.inFlight()) > 0 }

// craftedPending are well-formed, correctly checksummed snapshots whose first
// in-flight write could never have been issued: a register no board has, a
// retire beat further out than the image's longest latency (it would alias a
// nearer ring bucket), and a non-zero reserved byte. Each is a patch at an
// offset into the first pending-writes entry.
var craftedPending = []struct {
	name  string
	off   int
	patch []byte
}{
	{"board 200", 9, []byte{200}},
	{"bank 9", 8, []byte{9}},
	{"index 64 of the I bank", 8, []byte{byte(mach.BankI), 0, 64}},
	{"due 100 beats out", 0, nil}, // patch filled in from the snapshot's beat
	{"reserved byte set", 11, []byte{1}},
	{"issued at word -1", 20, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
}

// craft applies craftedPending[i] to a copy of a mid-pending-write snapshot.
func craft(t testing.TB, snap []byte, i int) []byte {
	t.Helper()
	out := append([]byte(nil), snap...)
	off, n := sectionBody(t, out, secPending)
	if n < 4+pendingWireLen {
		t.Fatal("snapshot has no in-flight write to corrupt")
	}
	patch := craftedPending[i].patch
	if patch == nil {
		core, _ := sectionBody(t, out, secCore)
		beat := binary.LittleEndian.Uint64(out[core+9:])
		patch = binary.LittleEndian.AppendUint64(nil, beat+100)
	}
	copy(out[off+4+craftedPending[i].off:], patch)
	restamp(out)
	return out
}

// TestRestoreValidatesPendingWrites: Restore must refuse an in-flight write
// the machine could not have issued — before this check an out-of-range board
// killed the process in the checked run loop, and a far-future retire beat
// made the tiers disagree — and must leave the context untouched.
func TestRestoreValidatesPendingWrites(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	snap := snapshotAt(t, img, 50, midPendingWrite)
	for i, tc := range craftedPending {
		r := New(img)
		c := r.Contexts()[0]
		err := c.Restore(craft(t, snap, i))
		var bad *ErrBadSnapshot
		if !errors.As(err, &bad) || bad.Field != "pending-writes" {
			t.Errorf("%s: want ErrBadSnapshot[pending-writes], got %v", tc.name, err)
		}
		if c.restored || c.beat != 0 || midPendingWrite(c) {
			t.Errorf("%s: a rejected snapshot was partly applied", tc.name)
		}
	}
	// An overdue write is legal: it retires at the next drain.
	overdue := append([]byte(nil), snap...)
	off, _ := sectionBody(t, overdue, secPending)
	binary.LittleEndian.PutUint64(overdue[off+4:], 0)
	restamp(overdue)
	r := New(img)
	if err := r.Contexts()[0].Restore(overdue); err != nil {
		t.Fatalf("overdue write rejected: %v", err)
	}
	if _, _, err := r.Run(); err != nil {
		t.Fatalf("run after restoring an overdue write: %v", err)
	}
}

// noProof covers an image and proves no site, so the native tier keeps every
// guard and must agree with the checked tier on any restored state.
type noProof struct{ img *isa.Image }

func (c noProof) CertifiedImage() *isa.Image        { return c.img }
func (noProof) SafeSite(int, mach.Unit, uint8) bool { return false }

// FuzzSnapshotRestore mutates real mid-run snapshots and re-stamps length and
// checksum so the mutation reaches the section decoders. Restore either
// refuses with *ErrBadSnapshot and leaves the context untouched, or yields a
// context that runs to the same exit, output and Stats on the per-word
// reference (a plain machine under a hook that does nothing), the checked and
// the native tier — never a panic. The mutation is a patch at a position counted
// over the snapshot with the megabyte memory image skipped, optionally
// truncating the stream after it.
func FuzzSnapshotRestore(f *testing.F) {
	img := build(f, snapSrc, mach.Trace7())
	anywhere := func(*Context) bool { return true }
	bases := [][]byte{
		snapshotAt(f, img, 50, midPendingWrite),
		snapshotAt(f, img, 1, anywhere),
		snapshotAt(f, img, 2000, anywhere),
	}
	for which := range bases {
		f.Add(uint8(which), uint32(0), []byte{}, false)
	}
	pendOff, _ := sectionBody(f, bases[0], secPending)
	for i := range craftedPending {
		// The crafted snapshots as patches. The pending-writes section
		// precedes memory, so its offsets need no skip.
		c := craft(f, bases[0], i)
		at := pendOff + 4 + craftedPending[i].off
		f.Add(uint8(0), uint32(at), c[at:at+8], false)
	}

	ref, checked, native := New(img), New(img), New(img)
	f.Fuzz(func(t *testing.T, which uint8, pos uint32, patch []byte, cut bool) {
		snap := append([]byte(nil), bases[int(which)%len(bases)]...)
		memOff, memLen := sectionBody(t, snap, secMem)
		at := int(pos) % (len(snap) - memLen)
		if at >= memOff {
			at += memLen
		}
		n := copy(snap[at:], patch)
		if cut {
			snap = snap[:at+n]
		}
		restamp(snap)

		checked.Reset(img)
		c := checked.Contexts()[0]
		if err := c.Restore(snap); err != nil {
			var bad *ErrBadSnapshot
			if !errors.As(err, &bad) {
				t.Fatalf("Restore failed with %T, want *ErrBadSnapshot: %v", err, err)
			}
			if c.restored || c.beat != 0 || c.pc != 0 || midPendingWrite(c) {
				t.Fatalf("a rejected snapshot was partly applied: %v", err)
			}
			return
		}
		ref.Reset(img)
		ref.TraceFn = func(int, int64) {}
		native.Reset(img)
		if err := native.UseNativeCertificate(noProof{img}); err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Machine{ref, native} {
			if err := m.Contexts()[0].Restore(snap); err != nil {
				t.Fatalf("the same snapshot restores on one machine but not on another: %v", err)
			}
		}
		// A mutated busy window or clock can park a run for longer than any
		// beat budget expresses; the deadline bounds those, uncompared.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		type outcome struct {
			exit  int32
			out   string
			err   string
			stats Stats
		}
		run := func(m *Machine) (outcome, error) {
			m.CycleLimit = m.Contexts()[0].Beat() + 20_000
			exit, out, err := m.RunContext(ctx)
			o := outcome{exit: exit, out: out, stats: m.Stats}
			if err != nil {
				o.err = err.Error()
			}
			return o, err
		}
		ro, rerr := run(ref)
		co, cerr := run(checked)
		no, nerr := run(native)
		var canceled *ErrCanceled
		if errors.As(rerr, &canceled) || errors.As(cerr, &canceled) || errors.As(nerr, &canceled) {
			return
		}
		if ro != co {
			t.Fatalf("restored state runs differently:\nreference %+v\nchecked   %+v", ro, co)
		}
		var fault *Fault
		if errors.As(rerr, &fault) && (fault.Code == TrapWriteRace || fault.Code == TrapResource) {
			return // verdicts only the checked tier gives
		}
		if ro != no {
			t.Fatalf("restored state runs differently:\nreference %+v\nnative    %+v", ro, no)
		}
	})
}
