package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"github.com/multiflow-repro/trace/internal/vliw"
)

// runNoCache posts a /run that must execute (no memoised result) and succeed.
func runNoCache(t *testing.T, url, src string, tier vliw.Tier) {
	t.Helper()
	mustPostOK(t, url+"/run", RunRequest{Source: src, Run: RunRequestOptions{Tier: tier, NoCache: true}})
}

// TestWarmArtifactsBuildNothing: an artifact owns its plan, so once the cached
// artifacts are warm a run builds nothing, whichever program the pooled machine
// it draws ran last: two programs alternate on both tiers, every run executes,
// and after the warm-up passes the build counters stand still. (While each
// machine kept the one plan of its last image, every switch decoded the image,
// derived its certified copy and grew every region again.)
func TestWarmArtifactsBuildNothing(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})
	srcs := []string{demoSrc, guardedSrc}
	pass := func() {
		for _, tier := range []vliw.Tier{vliw.TierChecked, vliw.TierNative} {
			for _, src := range srcs {
				runNoCache(t, hs.URL, src, tier)
			}
		}
	}
	// The first pass decodes each image and derives each certified copy; heat is
	// the plan's, so the second still builds the regions of words a run meets
	// once.
	pass()
	pass()
	m := s.Metrics()
	plans, regions := m.PlanBuilds.Value(), m.RegionBuilds.Value()
	if plans != int64(2*len(srcs)) || regions == 0 {
		t.Fatalf("the warm-up built %d plans and %d regions, want %d plans and some regions", plans, regions, 2*len(srcs))
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if p, r := m.PlanBuilds.Value(), m.RegionBuilds.Value(); p != plans || r != regions {
		t.Errorf("warm no_cache runs built %d plans and %d regions, want none", p-plans, r-regions)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap["plan_builds"] != float64(plans) || snap["region_builds"] != float64(regions) {
		t.Errorf("/metrics reports plan_builds=%v region_builds=%v, want %d and %d", snap["plan_builds"], snap["region_builds"], plans, regions)
	}
}

// TestArtifactCostFollowsItsPlan: a cached artifact pins its plan — the decoded
// words, their certified copy, the regions built so far — so the cache charges
// it again after a run that built something, and still evicts to its budget.
func TestArtifactCostFollowsItsPlan(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})
	mustPostOK(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	unrun := s.Metrics().ArtifactBytes.Value()
	runNoCache(t, hs.URL, demoSrc, vliw.TierNative)
	ran := s.Metrics().ArtifactBytes.Value()
	if ran <= unrun {
		t.Fatalf("the artifact cost %d bytes before its first native run and %d after", unrun, ran)
	}

	// A budget that holds two artifacts nobody has run, and not one that has
	// run beside another.
	budget := unrun + ran - 1
	s, hs = newTestServer(t, Config{Parallelism: 1, CacheBytes: budget})
	var srcs [2]string
	for i := range srcs {
		srcs[i] = fmt.Sprintf("%s// v%d\n", demoSrc, i)
		mustPostOK(t, hs.URL+"/compile", CompileRequest{Source: srcs[i]})
	}
	m := s.Metrics()
	if m.ArtifactEntries.Value() != 2 || m.ArtifactEvictions.Value() != 0 {
		t.Fatalf("two artifacts that have not run: %d entries, %d evictions", m.ArtifactEntries.Value(), m.ArtifactEvictions.Value())
	}
	runNoCache(t, hs.URL, srcs[1], vliw.TierNative)
	if m.ArtifactEntries.Value() != 1 || m.ArtifactEvictions.Value() != 1 {
		t.Errorf("after one of them ran: %d entries, %d evictions, want the other evicted", m.ArtifactEntries.Value(), m.ArtifactEvictions.Value())
	}
	if used := m.ArtifactBytes.Value(); used > budget {
		t.Errorf("the cache holds %d bytes against a budget of %d", used, budget)
	}
	if _, ok := s.artifacts.get(Key(srcs[1], Options{})); !ok {
		t.Error("the artifact that ran was evicted, not the least recently used one")
	}
}
