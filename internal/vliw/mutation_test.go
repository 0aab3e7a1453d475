package vliw

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
)

// Mutation tests of the certified tiers. A certificate lets a machine skip
// checks on the image it was minted for; it does not — and by design cannot —
// vouch for an image mutated after certification. Each case corrupts a
// certified image and pins the promised blast radius: the run (or the one
// context of a RunMany batch) dies with the matching Fault, and a certificate
// never arms a machine running another image.
//
//   - fast: a schedcheck Certificate removes the resource and write-race
//     verdicts only, so every guard (PC bounds, memory bounds, divide by zero)
//     stays live and a mutation may hit any site.
//   - safe, native: a SafeCertificate also deletes the guards of the sites it
//     proves, so the mutations hit proven sites, where only the Go runtime's
//     slice-bounds and divide checks are left to catch them.
//
// The cases are listed one per line below, each on every tier it applies to,
// under the names the three per-tier suites gave them.

// A mutationTier is a certified tier and how the cases arm it.
type mutationTier struct {
	tier    Tier
	certify func(*isa.Image) (SafetyCertificate, error)
	arm     func(*Machine, SafetyCertificate) error
}

var (
	fastTier   = mutationTier{TierFast, fastCertify, func(m *Machine, c SafetyCertificate) error { return m.UseCertificate(c) }}
	safeTier   = mutationTier{TierSafe, safeCertify, (*Machine).UseSafeCertificate}
	nativeTier = mutationTier{TierNative, safeCertify, (*Machine).UseNativeCertificate}
)

// fastCertify makes every site a target: the fast tier deletes no guard.
func fastCertify(img *isa.Image) (SafetyCertificate, error) {
	cert, err := schedcheck.Certify(img)
	return anySite{cert}, err
}

type anySite struct{ *schedcheck.Certificate }

func (anySite) SafeSite(int, mach.Unit, uint8) bool { return true }

func safeCertify(img *isa.Image) (SafetyCertificate, error) { return safecheck.Certify(img) }

// mutationSrc is the program the cases corrupt.
const mutationSrc = `
var a [8]int
func main() int {
	var s int = 0
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i * 3 }
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] }
	return s / 3
}`

// The cases.
func TestCertifiedMutationWildBranch(t *testing.T)            { fastTier.trap(t, wildBranch) }
func TestSafeMutationGuardsStayArmedElsewhere(t *testing.T)   { safeTier.trap(t, wildBranch) }
func TestNativeMutationGuardsStayArmedElsewhere(t *testing.T) { nativeTier.trap(t, wildBranch) }
func TestCertifiedMutationMemBounds(t *testing.T)             { fastTier.trap(t, loadHigh) }
func TestSafeMutationLoadOutOfBounds(t *testing.T)            { safeTier.loadOutOfBounds(t) }
func TestNativeMutationLoadOutOfBounds(t *testing.T)          { nativeTier.loadOutOfBounds(t) }
func TestSafeMutationStoreOutOfBounds(t *testing.T)           { safeTier.trap(t, storeHigh) }
func TestNativeMutationStoreOutOfBounds(t *testing.T)         { nativeTier.trap(t, storeHigh) }
func TestCertifiedMutationDivZero(t *testing.T)               { fastTier.trap(t, divZero) }
func TestSafeMutationDivZero(t *testing.T)                    { safeTier.trap(t, divZero) }
func TestNativeMutationDivZero(t *testing.T)                  { nativeTier.trap(t, divZero) }
func TestSafeMutationContainedInRunMany(t *testing.T)         { safeTier.containedInRunMany(t) }
func TestNativeMutationContainedInRunMany(t *testing.T)       { nativeTier.containedInRunMany(t) }
func TestCertificateRejectsForeignImage(t *testing.T)         { fastTier.rejectsForeignImage(t) }
func TestSafeCertificateRejectsForeignImage(t *testing.T)     { safeTier.rejectsForeignImage(t) }
func TestNativeCertificateRejectsForeignImage(t *testing.T)   { nativeTier.rejectsForeignImage(t) }
func TestSafeTierProvesSites(t *testing.T)                    { safeTier.provesSites(t) }
func TestNativeTierProvesSites(t *testing.T)                  { nativeTier.provesSites(t) }

// A mutation corrupts a certified image and names the trap it must raise.
type mutation func(t *testing.T, img *isa.Image, cert SafetyCertificate) TrapCode

// wildBranch sends every branch far outside the image, a condition no safety
// proof discharges: the first taken control transfer is a wild jump.
func wildBranch(t *testing.T, img *isa.Image, _ SafetyCertificate) TrapCode {
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
	return TrapBadPC
}

// operandB sets operand B of the first site of the kinds the certificate
// proves.
func operandB(b int32, code TrapCode, kinds ...ir.OpKind) mutation {
	return func(t *testing.T, img *isa.Image, cert SafetyCertificate) TrapCode {
		provenOp(t, img, cert, kinds...).B = mach.ImmArg(b)
		return code
	}
}

var (
	loadHigh     = operandB(1<<30, TrapMemBounds, ir.Load, ir.LoadSpec) // far past the top of RAM
	loadNegative = operandB(-(1 << 30), TrapMemBounds, ir.Load, ir.LoadSpec)
	storeHigh    = operandB(1<<30, TrapMemBounds, ir.Store)
	divZero      = operandB(0, TrapDivZero, ir.Div, ir.Rem)
)

// certified compiles mutationSrc with speculation off, so every load is a
// plain trapping LOAD, and certifies it for the tier.
func (mt mutationTier) certified(t *testing.T) (*isa.Image, SafetyCertificate) {
	t.Helper()
	img := build(t, mutationSrc, noSpec())
	cert, err := mt.certify(img)
	if err != nil {
		t.Fatalf("pre-mutation image should certify: %v", err)
	}
	return img, cert
}

func noSpec() mach.Config {
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	return cfg
}

// run arms a machine over the (possibly mutated) image with the stale
// certificate and runs it.
func (mt mutationTier) run(t *testing.T, img *isa.Image, cert SafetyCertificate) error {
	t.Helper()
	m := New(img)
	if err := mt.arm(m, cert); err != nil {
		t.Fatal(err)
	}
	if m.Tier() != mt.tier {
		t.Fatalf("Tier() = %v, want %v", m.Tier(), mt.tier)
	}
	_, _, err := m.Run()
	return err
}

// trap runs the certified program clean, then mutated.
func (mt mutationTier) trap(t *testing.T, mutate mutation) {
	img, cert := mt.certified(t)
	if err := mt.run(t, img, cert); err != nil {
		t.Fatalf("sanity: unmutated certified run failed: %v", err)
	}
	code := mutate(t, img, cert)
	wantTrap(t, mt.run(t, img, cert), code)
}

func (mt mutationTier) loadOutOfBounds(t *testing.T) {
	t.Run("high", func(t *testing.T) { mt.trap(t, loadHigh) })
	t.Run("negative", func(t *testing.T) { mt.trap(t, loadNegative) })
}

// containedInRunMany: in a time-shared batch, the mutated tenant retires
// with its Fault while its neighbour runs to a clean halt.
func (mt mutationTier) containedInRunMany(t *testing.T) {
	img, cert := mt.certified(t)
	clean := build(t, mutationSrc, noSpec())
	loadHigh(t, img, cert)

	m := New(img)
	if err := m.ResetMany([]*isa.Image{img, clean}); err != nil {
		t.Fatal(err)
	}
	if err := mt.arm(m, cert); err != nil {
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

// rejectsForeignImage: a certificate cannot be laundered across images.
// Arming a machine with one minted for another compile of the same program
// fails, and the machine stays checked.
func (mt mutationTier) rejectsForeignImage(t *testing.T) {
	_, cert := mt.certified(t)
	m := New(build(t, mutationSrc, noSpec()))
	if err := mt.arm(m, cert); err == nil {
		t.Fatal("a certificate for a different image was accepted")
	}
	if m.Tier() != TierChecked {
		t.Fatalf("Tier() = %v after a rejected certificate, want checked", m.Tier())
	}
}

// provesSites: the mutation program has proven sites, or the cases above
// would not exercise guard-free code.
func (mt mutationTier) provesSites(t *testing.T) {
	img, cert := mt.certified(t)
	if p, total := cert.(*safecheck.SafeCertificate).ProvenSites(); p == 0 {
		t.Fatalf("mutation program proves 0/%d sites", total)
	}
	if err := mt.run(t, img, cert); err != nil {
		t.Fatalf("sanity: unmutated %v run failed: %v", mt.tier, err)
	}
}

// TestNativeMatchesChecked is the in-package equivalence smoke: the native
// run must match the checked one bit for bit — exit, output and every Stats
// counter (the full oracle lives in internal/fuzz and certified_test.go; this
// one catches regressions where they are introduced).
func TestNativeMatchesChecked(t *testing.T) {
	img, cert := nativeTier.certified(t)
	mc := New(img)
	exitC, outC, errC := mc.Run()
	if errC != nil {
		t.Fatalf("checked run failed: %v", errC)
	}
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
	if mn.Stats != mc.Stats {
		t.Fatalf("native stats diverge:\nchecked %+v\nnative  %+v", mc.Stats, mn.Stats)
	}
}

// provenOp returns a proven site of one of the given kinds — the kind of site
// whose guards the safe and native tiers delete — failing the test if the
// image has none (the mutation would silently test the still-guarded path).
func provenOp(t *testing.T, img *isa.Image, cert SafetyCertificate, kinds ...ir.OpKind) *mach.Op {
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

func wantTrap(t *testing.T, err error, code TrapCode) {
	t.Helper()
	if err == nil {
		t.Fatalf("mutated certified image ran clean; want %s trap", code)
	}
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if f.Code != code {
		t.Fatalf("trap code = %s, want %s (%v)", f.Code, code, err)
	}
}
