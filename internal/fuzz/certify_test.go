package fuzz

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// TestUncertifiableImageIsAFinding: an image that lints clean and then fails
// to certify is a verifier bug. Every stage must report it — on every tier
// that runs under a certificate — and none may count it a skipped input. The
// stub is an artifact whose lint report has no findings and records no image,
// which is the one way a clean report cannot mint a certificate.
func TestUncertifiableImageIsAFinding(t *testing.T) {
	ctx := context.Background()
	const src = `func main() int { print_i(6) return 7 }`
	stub := func() *core.Artifact {
		art, err := core.Build(ctx, src, core.Options{Config: mach.Trace28(), Opt: opt.Default()})
		if err != nil {
			t.Fatal(err)
		}
		art.Result().Lint = new(schedcheck.Report)
		if _, err := art.Certificate(); art.Lint().Err() != nil || err == nil {
			t.Fatalf("stub: lint %v, certificate error %v", art.Lint().Err(), err)
		}
		return art
	}
	stages := []struct {
		name string
		run  func(vliw.Tier) error
	}{
		{"matrix", func(tier vliw.Tier) error {
			_, err, d := runTiers(ctx, stub(), regime(tier), 1_000_000, "stub", src)
			if d != nil {
				return d
			}
			return err
		}},
		{"timeshare", func(tier vliw.Tier) error {
			return timeshare(ctx, []tenant{{art: stub(), src: src}}, Options{Tier: tier})
		}},
		{"snapshot", func(tier vliw.Tier) error {
			return snapshot(ctx, stub(), src, 1, Options{Tier: tier})
		}},
	}
	for _, st := range stages {
		for _, tier := range []vliw.Tier{vliw.TierFast, vliw.TierSafe, vliw.TierNative} {
			err := st.run(tier)
			if err == nil || errors.Is(err, ErrSkip) {
				t.Errorf("%s stage, tier %s: an image that cannot certify gave %v, want a finding", st.name, tier, err)
			} else if !strings.Contains(err.Error(), "records no image") {
				t.Errorf("%s stage, tier %s: the finding does not carry the certifier's reason: %v", st.name, tier, err)
			}
		}
		// Nothing needs a certificate on the checked tier: the same stub runs clean.
		if st.name != "snapshot" { // whose fast mode runs whatever tier is asked
			if err := st.run(vliw.TierChecked); err != nil {
				t.Errorf("%s stage, checked tier: %v", st.name, err)
			}
		}
	}
}
