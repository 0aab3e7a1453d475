// Differential test of the execution tiers: for every example program,
// optimization level, and machine width, the per-word interpreter, the
// checked tier, the certified fast path, the guard-free safe tier, and the
// native tier must produce byte-identical results — same
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
// per-word reference — a plain machine under a hook that must see every word
// and does nothing with it, which no tier can leave the per-word path under —
// on the checked tier and on each given tier, and fails on any difference
// from the reference in trap status, fault text, exit value, output, or any
// Stats counter.
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

					m := art.Machine()
					m.TraceFn = func(int, int64) {}
					exit, out, rerr := m.Run()
					ref := ExitResult{Exit: exit, Output: out, Stats: m.Stats}
					for _, tier := range append([]Tier{TierChecked}, tiers...) {
						got, ferr := art.Run(ctx, RunOptions{Tier: tier})
						if (rerr == nil) != (ferr == nil) {
							t.Fatalf("trap disagreement: reference err=%v, %s err=%v", rerr, tier, ferr)
						}
						if rerr != nil {
							if rerr.Error() != ferr.Error() {
								t.Fatalf("different faults: reference %v, %s %v", rerr, tier, ferr)
							}
							continue
						}
						if got.Tier != tier {
							t.Fatalf("asked for the %s tier, ran on %s", tier, got.Tier)
						}
						if ref.Exit != got.Exit {
							t.Fatalf("exit: reference %d, %s %d", ref.Exit, tier, got.Exit)
						}
						if ref.Output != got.Output {
							t.Fatalf("output: reference %q, %s %q", ref.Output, tier, got.Output)
						}
						if ref.Stats != got.Stats {
							t.Fatalf("stats diverged:\nreference: %+v\n%s:    %+v", ref.Stats, tier, got.Stats)
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
