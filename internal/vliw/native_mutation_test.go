package vliw

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/safecheck"
)

// Mutation tests of the native (closure-threaded) tier, the port of
// safe_mutation_test.go to the translator. The native tier deletes the same
// per-site guards the safe tier does AND bakes the (possibly corrupted)
// operands into closures at translation time, so these tests pin down the
// same promised blast radius: post-certification corruption of a proven
// site dies with the matching Fault — contained to the run, or to the one
// context in a RunMany batch — and a certificate minted for one image never
// arms a translation of another.

func runNativeOn(t *testing.T, img *isa.Image, cert *safecheck.SafeCertificate) error {
	t.Helper()
	m := New(img)
	if err := m.UseNativeCertificate(cert); err != nil {
		t.Fatal(err)
	}
	if m.Tier() != TierNative {
		t.Fatalf("Tier() = %v, want native", m.Tier())
	}
	_, _, err := m.Run()
	return err
}

func TestNativeTierProvesSites(t *testing.T) {
	img, cert := buildSafeCertified(t)
	if p, total := cert.ProvenSites(); p == 0 {
		t.Fatalf("mutation program proves 0/%d sites; the native-tier mutation tests would not exercise guard-free code", total)
	}
	if err := runNativeOn(t, img, cert); err != nil {
		t.Fatalf("sanity: unmutated native run failed: %v", err)
	}
}

// TestNativeMatchesChecked is the in-package equivalence smoke: the
// translated run must match the checked interpreter bit-for-bit — exit,
// output, and every Stats counter (the full oracle lives in internal/fuzz
// and certified_test.go; this one catches translator regressions where
// they are introduced).
func TestNativeMatchesChecked(t *testing.T) {
	img, cert := buildSafeCertified(t)

	mc := New(img)
	exitC, outC, errC := mc.Run()
	if errC != nil {
		t.Fatalf("checked run failed: %v", errC)
	}
	statsC := mc.Stats

	mn := New(img)
	if err := mn.UseNativeCertificate(cert); err != nil {
		t.Fatal(err)
	}
	exitN, outN, errN := mn.Run()
	if errN != nil {
		t.Fatalf("native run failed: %v", errN)
	}
	if exitN != exitC || outN != outC {
		t.Fatalf("native diverges: exit %d/%d out %q/%q", exitN, exitC, outN, outC)
	}
	if mn.Stats != statsC {
		t.Fatalf("native stats diverge:\nchecked %+v\nnative  %+v", statsC, mn.Stats)
	}
}

func TestNativeMutationLoadOutOfBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int32
	}{{"high", 1 << 30}, {"negative", -(1 << 30)}} {
		t.Run(tc.name, func(t *testing.T) {
			img, cert := buildSafeCertified(t)
			o := provenOp(t, img, cert, ir.Load, ir.LoadSpec)
			o.B = mach.ImmArg(tc.off)
			wantTrap(t, runNativeOn(t, img, cert), TrapMemBounds)
		})
	}
}

func TestNativeMutationStoreOutOfBounds(t *testing.T) {
	img, cert := buildSafeCertified(t)
	o := provenOp(t, img, cert, ir.Store)
	o.B = mach.ImmArg(1 << 30)
	wantTrap(t, runNativeOn(t, img, cert), TrapMemBounds)
}

func TestNativeMutationDivZero(t *testing.T) {
	img, cert := buildSafeCertified(t)
	o := provenOp(t, img, cert, ir.Div, ir.Rem)
	o.B = mach.ImmArg(0)
	wantTrap(t, runNativeOn(t, img, cert), TrapDivZero)
}

// TestNativeMutationGuardsStayArmedElsewhere proves the translator deletes
// ONLY the per-site guards the bitmask covers: a wild branch target baked
// into a translated closure still hits the always-on PC bounds guard.
func TestNativeMutationGuardsStayArmedElsewhere(t *testing.T) {
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
	wantTrap(t, runNativeOn(t, img, cert), TrapBadPC)
}

// TestNativeMutationContainedInRunMany proves the blast radius of a
// guard-free fault in a translated context is one context: the mutated
// tenant retires with its Fault while its neighbor runs to a clean halt.
func TestNativeMutationContainedInRunMany(t *testing.T) {
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
	if err := m.UseNativeCertificate(cert); err != nil {
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

// TestNativeCertificateRejectsForeignImage proves a native plan cannot be
// laundered across images.
func TestNativeCertificateRejectsForeignImage(t *testing.T) {
	img1, cert := buildSafeCertified(t)
	_ = img1
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	img2 := build(t, safeMutationSrc, cfg)
	m := New(img2)
	if err := m.UseNativeCertificate(cert); err == nil {
		t.Fatal("native-tier certificate for a different image was accepted")
	}
	if m.Tier() != TierChecked {
		t.Fatalf("Tier() = %v after rejected certificate, want checked", m.Tier())
	}
}
