package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"github.com/multiflow-repro/trace/internal/vliw"
)

// Three distinct tenant programs (distinct outputs and exits, same default
// machine options) for the batch endpoint tests.
var tenantSrcs = []string{
	`func main() int {
		var s int = 0
		for (var i int = 0; i < 300; i = i + 1) { s = s + i }
		print_i(s)
		return s & 255
	}`,
	`var a [256]float
	func main() int {
		for (var i int = 0; i < 256; i = i + 1) { a[i] = float(i) }
		var s float = 0.0
		for (var i int = 0; i < 256; i = i + 1) { s = s + a[i] }
		print_f(s)
		return int(s) & 511
	}`,
	`func main() int {
		var x int = 9
		for (var i int = 0; i < 150; i = i + 1) { x = (x * 13 + 7) & 4095 }
		print_i(x)
		return x & 31
	}`,
}

func runManyReq(tier vliw.Tier) RunManyRequest {
	req := RunManyRequest{Run: RunManyRunOptions{Tier: tier}}
	for _, src := range tenantSrcs {
		req.Programs = append(req.Programs, RunManyProgram{Source: src})
	}
	return req
}

// TestRunManyContextsMatchesSoloRuns: the batch endpoint's per-tenant
// results are identical to what /run reports for each program alone, and
// the scheduler summary is present and balanced.
func TestRunManyContextsMatchesSoloRuns(t *testing.T) {
	tenantsEqualSoloRuns(t, vliw.TierFast)
}

// TestRunManyTenantsEqualSoloRuns: K machines is K /run requests — on the
// checked tier, where the removed "machines" tenancy was compared, each
// /runmany tenant equals its solo /run.
func TestRunManyTenantsEqualSoloRuns(t *testing.T) {
	tenantsEqualSoloRuns(t, vliw.TierChecked)
}

func tenantsEqualSoloRuns(t *testing.T, tier vliw.Tier) {
	_, hs := newTestServer(t, Config{})

	solo := make([]RunResponse, len(tenantSrcs))
	for i, src := range tenantSrcs {
		resp, raw := post(t, hs.URL+"/run", RunRequest{Source: src, Run: RunRequestOptions{Tier: tier}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solo run %d: status %d: %s", i, resp.StatusCode, raw)
		}
		solo[i] = decode[RunResponse](t, raw)
	}

	resp, raw := post(t, hs.URL+"/runmany", runManyReq(tier))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("runmany: status %d: %s", resp.StatusCode, raw)
	}
	batch := decode[RunManyResponse](t, raw)
	if len(batch.Results) != len(tenantSrcs) {
		t.Fatalf("response shape: %+v", batch)
	}
	if batch.Sched.Contexts != len(tenantSrcs) || batch.Sched.TotalBeats == 0 {
		t.Fatalf("missing or empty scheduler summary: %+v", batch.Sched)
	}
	for i, r := range batch.Results {
		if r.Error != "" {
			t.Fatalf("tenant %d: %s", i, r.Error)
		}
		if r.Key != solo[i].Key {
			t.Errorf("tenant %d key %q != solo key %q (cache split)", i, r.Key, solo[i].Key)
		}
		if !r.CachedBuild {
			t.Errorf("tenant %d recompiled a cached artifact", i)
		}
		if r.Exit != solo[i].Exit || r.Output != solo[i].Output || r.Stats != solo[i].Stats {
			t.Errorf("tenant %d diverges from solo /run:\n batch: %+v\n solo:  %+v", i, r, solo[i])
		}
		if r.Tier != tier {
			t.Errorf("tenant %d ran on the %v tier despite tier=%v", i, r.Tier, tier)
		}
	}
}

// TestRunManyPerTenantError: a trapping tenant reports in its own slot; the
// batch stays 200 and the other tenants complete.
func TestRunManyPerTenantError(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := RunManyRequest{Programs: []RunManyProgram{
		{Source: tenantSrcs[0]},
		{Source: `func main() int {
			var d int = 0
			for (var i int = 0; i < 10; i = i + 1) { d = i - i }
			return 3 / d
		}`},
	}}
	resp, raw := post(t, hs.URL+"/runmany", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	batch := decode[RunManyResponse](t, raw)
	if batch.Results[0].Error != "" || batch.Results[0].Output == "" {
		t.Errorf("healthy tenant disturbed: %+v", batch.Results[0])
	}
	if batch.Results[1].Error == "" {
		t.Error("trapping tenant reported no error")
	}
}

// TestRunManyBadRequests: shape validation for the batch endpoint.
func TestRunManyBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no programs", RunManyRequest{}, http.StatusBadRequest},
		{"empty source", RunManyRequest{Programs: []RunManyProgram{{Source: ""}}}, http.StatusBadRequest},
		{"negative quantum", RunManyRequest{
			Programs: []RunManyProgram{{Source: tenantSrcs[0]}},
			Run:      RunManyRunOptions{Quantum: -1}}, http.StatusBadRequest},
		{"bad options", RunManyRequest{
			Programs: []RunManyProgram{{Source: tenantSrcs[0]}},
			Options:  Options{Pairs: 3}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := post(t, hs.URL+"/runmany", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, raw)
		}
	}
	// Too many programs.
	var big RunManyRequest
	for i := 0; i <= maxRunManyPrograms; i++ {
		big.Programs = append(big.Programs, RunManyProgram{Source: tenantSrcs[0]})
	}
	if resp, raw := post(t, hs.URL+"/runmany", big); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d: %s", resp.StatusCode, raw)
	}
}

// TestMetricsIncludeRunMany: the /metrics tree carries the new endpoint and
// its rejected counter.
func TestMetricsIncludeRunMany(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	post(t, hs.URL+"/runmany", RunManyRequest{Programs: []RunManyProgram{{Source: tenantSrcs[0]}}})
	resp, raw := post(t, hs.URL+"/runmany", RunManyRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("probe: %d %s", resp.StatusCode, raw)
	}
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var tree map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	eps, ok := tree["endpoints"].(map[string]any)
	if !ok {
		t.Fatalf("no endpoints in metrics: %v", tree)
	}
	rm, ok := eps["runmany"].(map[string]any)
	if !ok {
		t.Fatalf("no runmany endpoint metrics: %v", eps)
	}
	if rm["requests"].(float64) < 2 {
		t.Errorf("runmany requests = %v, want >= 2", rm["requests"])
	}
	if _, ok := rm["rejected"]; !ok {
		t.Error("runmany metrics missing rejected counter")
	}
	if s.Metrics().RunMany.Requests.Value() < 2 {
		t.Error("RunMany.Requests not counted")
	}
}
