package vliw_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// TestSharedPlanConcurrentRuns: an artifact's plan is run by many machines at
// once, and its region table is the one thing they all write. Eight goroutines,
// each with a machine of its own that it keeps pointing at one artifact and
// then the other, as a pool would, run two cold artifacts on the checked and
// the native tier together, so regions are built while other machines run them:
// every run must give the per-word reference's exit, output and counters, and
// each plan must end with every region built exactly once. Meaningful under
// -race (scripts/check.sh runs it there).
func TestSharedPlanConcurrentRuns(t *testing.T) {
	ctx := context.Background()
	type kernel struct {
		art  *core.Artifact
		want core.ExitResult
	}
	var kernels []*kernel
	for _, name := range []string{"fir", "sort"} {
		// A cold artifact of its own: the test is about who builds its plan.
		art, err := core.Build(ctx, testmatrix.Kernels.Get(t, name).Src, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// The reference stays per-word, on a plan of its own: the artifact's is
		// cold when the goroutines start.
		ref := vliw.New(art.Image())
		perWord(ref)
		exit, out, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, &kernel{art, core.ExitResult{Exit: exit, Output: out, Stats: ref.Stats}})
	}

	const workers, rounds = 8, 2
	tiers := []vliw.Tier{vliw.TierChecked, vliw.TierNative}
	var mu sync.Mutex
	var plans int64
	regions := map[*kernel]map[vliw.Tier]int64{kernels[0]: {}, kernels[1]: {}}
	// run is one run of k on m, held to the reference, its builds booked.
	run := func(who string, m *vliw.Machine, k *kernel, tier vliw.Tier) {
		got, err := k.art.RunOn(ctx, m, core.RunOptions{Tier: tier})
		if err != nil {
			t.Errorf("%s: %v", who, err)
			return
		}
		if got.Exit != k.want.Exit || got.Output != k.want.Output || got.Stats != k.want.Stats {
			t.Errorf("%s on %v: (%d, %q, %+v), the per-word reference gives (%d, %q, %+v)",
				who, tier, got.Exit, got.Output, got.Stats, k.want.Exit, k.want.Output, k.want.Stats)
		}
		p, r := m.Builds()
		mu.Lock()
		plans += p
		regions[k][tier] += r
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := new(vliw.Machine)
			for i := 0; i < rounds*len(kernels)*len(tiers); i++ {
				k, tier := kernels[(i+w)%len(kernels)], tiers[(i/len(kernels)+w/2)%len(tiers)]
				run(fmt.Sprintf("worker %d, run %d", w, i), m, k, tier)
			}
		}(w)
	}
	wg.Wait()
	// Two images decoded once, two certified copies derived once; and of each
	// plan's regions — read off one more machine pointed at it — every one was
	// built by exactly one of the runs.
	for _, k := range kernels {
		for _, tier := range tiers {
			m := new(vliw.Machine)
			run("afterwards", m, k, tier)
			if held, built := vliw.RegionsBuilt(m.Contexts()[0]), regions[k][tier]; held == 0 || int64(held) != built {
				t.Errorf("%v plan: it holds %d regions, the runs built %d", tier, held, built)
			}
		}
	}
	if plans != 4 {
		t.Errorf("the runs built %d plans, want 4", plans)
	}
}
