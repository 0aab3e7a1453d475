package vliw

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/safecheck"
)

// Mutation tests of the safe (guard-free) tier. A SafeCertificate's
// contract is strictly weaker than the fast tier's (see the doc comment on
// safecheck.SafeCertificate): at proven sites the bounds, alignment, and
// zero-divisor guards are GONE, so a post-certification mutation that
// retargets a proven load out of RAM is caught only by the Go runtime's
// slice-bounds and divide checks. These tests corrupt exactly such proven
// sites and pin down the promised blast radius: the run (or the one context
// in a RunMany batch) dies with the matching Fault — TrapMemBounds or
// TrapDivZero — and nothing else is disturbed.

const safeMutationSrc = `
var a [8]int
func main() int {
	var s int = 0
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i * 3 }
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] }
	return s / 3
}`

// buildSafeCertified compiles the mutation program (speculation off, so
// every load is a plain trapping LOAD) and mints its graded certificate.
func buildSafeCertified(t *testing.T) (*isa.Image, *safecheck.SafeCertificate) {
	t.Helper()
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	img := build(t, safeMutationSrc, cfg)
	cert, err := safecheck.Certify(img)
	if err != nil {
		t.Fatalf("pre-mutation image should certify safe: %v", err)
	}
	return img, cert
}

// provenOp returns a proven-safe site of one of the given kinds — the kind
// of site whose guards the safe tier deletes — failing the test if the
// image has none (the mutation would silently test the still-guarded path).
func provenOp(t *testing.T, img *isa.Image, cert *safecheck.SafeCertificate, kinds ...ir.OpKind) *mach.Op {
	t.Helper()
	for w := range img.Instrs {
		for si := range img.Instrs[w].Slots {
			s := &img.Instrs[w].Slots[si]
			for _, k := range kinds {
				if s.Op.Kind == k && cert.SafeSite(w, s.Unit, s.Beat) {
					return &s.Op
				}
			}
		}
	}
	t.Fatalf("image has no proven site of kinds %v to corrupt", kinds)
	return nil
}

func runSafeOn(t *testing.T, img *isa.Image, cert *safecheck.SafeCertificate) error {
	t.Helper()
	m := New(img)
	if err := m.UseSafeCertificate(cert); err != nil {
		t.Fatal(err)
	}
	if m.Tier() != TierSafe {
		t.Fatal("safety certificate accepted but machine not on the safe tier")
	}
	_, _, err := m.Run()
	return err
}

func TestSafeTierProvesSites(t *testing.T) {
	img, cert := buildSafeCertified(t)
	if p, total := cert.ProvenSites(); p == 0 {
		t.Fatalf("mutation program proves 0/%d sites; the safe-tier mutation tests would not exercise guard-free code", total)
	}
	if err := runSafeOn(t, img, cert); err != nil {
		t.Fatalf("sanity: unmutated safe run failed: %v", err)
	}
}

func TestSafeMutationLoadOutOfBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int32
	}{{"high", 1 << 30}, {"negative", -(1 << 30)}} {
		t.Run(tc.name, func(t *testing.T) {
			img, cert := buildSafeCertified(t)
			o := provenOp(t, img, cert, ir.Load, ir.LoadSpec)
			o.B = mach.ImmArg(tc.off)
			wantTrap(t, runSafeOn(t, img, cert), TrapMemBounds)
		})
	}
}

func TestSafeMutationStoreOutOfBounds(t *testing.T) {
	img, cert := buildSafeCertified(t)
	o := provenOp(t, img, cert, ir.Store)
	o.B = mach.ImmArg(1 << 30)
	wantTrap(t, runSafeOn(t, img, cert), TrapMemBounds)
}

func TestSafeMutationDivZero(t *testing.T) {
	img, cert := buildSafeCertified(t)
	o := provenOp(t, img, cert, ir.Div, ir.Rem)
	o.B = mach.ImmArg(0)
	wantTrap(t, runSafeOn(t, img, cert), TrapDivZero)
}

// TestSafeMutationGuardsStayArmedElsewhere proves the safe tier deletes
// ONLY the per-site guards its bitmask covers: a wild branch — a condition
// no safety proof discharges — still hits the always-on PC bounds guard.
func TestSafeMutationGuardsStayArmedElsewhere(t *testing.T) {
	img, cert := buildSafeCertified(t)
	n := 0
	for i := range img.Instrs {
		for si := range img.Instrs[i].Slots {
			o := &img.Instrs[i].Slots[si].Op
			switch o.Kind {
			case mach.OpJmp, mach.OpBrT, mach.OpCall:
				o.Target = len(img.Instrs) + 1000
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("image has no branch to corrupt")
	}
	wantTrap(t, runSafeOn(t, img, cert), TrapBadPC)
}

// TestSafeMutationContainedInRunMany proves the blast radius of a
// guard-free fault is one context: in a time-shared batch, the mutated
// tenant retires with its Fault while its neighbor runs to a clean halt.
func TestSafeMutationContainedInRunMany(t *testing.T) {
	img, cert := buildSafeCertified(t)
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	clean := build(t, safeMutationSrc, cfg)

	o := provenOp(t, img, cert, ir.Load, ir.LoadSpec)
	o.B = mach.ImmArg(1 << 30)

	m := New(img)
	if err := m.ResetMany([]*isa.Image{img, clean}); err != nil {
		t.Fatal(err)
	}
	if err := m.UseSafeCertificate(cert); err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatalf("whole-machine RunMany error: %v", err)
	}
	wantTrap(t, rs[0].Err, TrapMemBounds)
	if rs[1].Err != nil {
		t.Fatalf("clean neighbor context disturbed: %v", rs[1].Err)
	}
	if rs[1].Exit != 28 {
		t.Fatalf("clean neighbor exit = %d, want 28", rs[1].Exit)
	}
}

// TestSafeCertificateRejectsForeignImage proves a safety certificate cannot
// be laundered across images.
func TestSafeCertificateRejectsForeignImage(t *testing.T) {
	img1, cert := buildSafeCertified(t)
	_ = img1
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	img2 := build(t, safeMutationSrc, cfg)
	m := New(img2)
	if err := m.UseSafeCertificate(cert); err == nil {
		t.Fatal("safety certificate for a different image was accepted")
	}
	if m.Tier() != TierChecked {
		t.Fatal("rejected safety certificate left the machine armed")
	}
}
