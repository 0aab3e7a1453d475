// Differential test of the certified execution tiers: for every example
// program, optimization level, and machine width, the checked interpreter,
// the certified fast path, the guard-free safe tier, and the
// closure-threaded native tier must produce byte-identical results — same
// exit value, same printed output, and the same value in every Stats
// counter. The upper tiers skip checking, never timing: any divergence
// here means the execution modes disagree about the machine itself.
package trace

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// agreeOnExamples runs every example x O0/O1/O2 x Trace 7/14/28 on the
// checked interpreter and on each given tier, and fails on any difference
// in trap status, fault text, exit value, output, or any Stats counter.
func agreeOnExamples(t *testing.T, tiers []Tier) {
	t.Helper()
	mfs, err := filepath.Glob("examples/*.mf")
	if err != nil || len(mfs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	configs := []Config{Trace7(), Trace14(), Trace28()}
	levels := []struct {
		name string
		lvl  OptLevel
	}{{"O0", OptNone}, {"O1", OptLight}, {"O2", OptFull}}

	for _, mf := range mfs {
		src, err := os.ReadFile(mf)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			for _, lv := range levels {
				name := fmt.Sprintf("%s/%s/%s", filepath.Base(mf), cfg.Name, lv.name)
				t.Run(name, func(t *testing.T) {
					ctx := context.Background()
					art, err := Build(ctx, string(src), Options{Config: cfg, OptLevel: lv.lvl})
					if err != nil {
						t.Fatalf("compile: %v", err)
					}

					checked, cerr := art.Run(ctx, RunOptions{})
					for _, tier := range tiers {
						got, ferr := art.Run(ctx, RunOptions{Tier: tier})
						if (cerr == nil) != (ferr == nil) {
							t.Fatalf("trap disagreement: checked err=%v, %s err=%v", cerr, tier, ferr)
						}
						if cerr != nil {
							if cerr.Error() != ferr.Error() {
								t.Fatalf("different faults: checked %v, %s %v", cerr, tier, ferr)
							}
							continue
						}
						if got.Tier != tier {
							t.Fatalf("asked for the %s tier, ran on %s", tier, got.Tier)
						}
						if checked.Exit != got.Exit {
							t.Fatalf("exit: checked %d, %s %d", checked.Exit, tier, got.Exit)
						}
						if checked.Output != got.Output {
							t.Fatalf("output: checked %q, %s %q", checked.Output, tier, got.Output)
						}
						if checked.Stats != got.Stats {
							t.Fatalf("stats diverged:\nchecked: %+v\n%s:    %+v", checked.Stats, tier, got.Stats)
						}
					}
				})
			}
		}
	}
}

func TestFastCheckedAgree(t *testing.T) {
	agreeOnExamples(t, []Tier{TierFast, TierSafe})
}

// TestNativeCheckedAgree holds the native tier to the same contract: the
// per-image closure translation may delete dispatch and guards, but every
// observable — including each of the Stats counters — must match the
// checked interpreter bit for bit.
func TestNativeCheckedAgree(t *testing.T) {
	agreeOnExamples(t, []Tier{TierNative})
}
