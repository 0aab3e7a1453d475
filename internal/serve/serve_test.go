package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// demoSrc is a small program every test compiles; distinct tests mutate a
// comment to get distinct cache keys.
const demoSrc = `
func add(a int, b int) int { return a + b }
func main() int {
	var s int = 0
	for (var i int = 0; i < 50; i = i + 1) { s = add(s, i) }
	print_i(s)
	return s
}
`

// slowSrc runs long enough (hundreds of thousands of beats) that a short
// deadline reliably expires mid-simulation.
const slowSrc = `
func main() int {
	var s int = 0
	for (var i int = 0; i < 2000000; i = i + 1) { s = s + (i & 7) }
	return s & 65535
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return v
}

func TestCompileCacheMissThenHit(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})
	before := core.PipelineRuns()

	resp, raw := post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile: status %d: %s", resp.StatusCode, raw)
	}
	first := decode[CompileResponse](t, raw)
	if first.Cached {
		t.Error("first compile reported cached=true")
	}
	if first.Key == "" || first.Instrs == 0 {
		t.Errorf("implausible response: %+v", first)
	}

	resp, raw = post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second compile: status %d: %s", resp.StatusCode, raw)
	}
	second := decode[CompileResponse](t, raw)
	if !second.Cached {
		t.Error("second compile of identical source was not a cache hit")
	}
	if second.Key != first.Key {
		t.Errorf("key changed between identical compiles: %s vs %s", first.Key, second.Key)
	}
	if got := s.Metrics().ArtifactHits.Value(); got != 1 {
		t.Errorf("ArtifactHits = %d, want 1", got)
	}
	if ran := core.PipelineRuns() - before; ran != 1 {
		t.Errorf("pipeline executed %d times for two identical requests, want 1", ran)
	}
}

func TestKeySeparatesOptions(t *testing.T) {
	// Default options written explicitly must hash like omitted defaults;
	// semantically different options must not.
	base := Key(demoSrc, Options{})
	lvl2 := 2
	if got := Key(demoSrc, Options{Pairs: 4, OptLevel: &lvl2}); got != base {
		t.Error("explicit defaults produced a different key than omitted defaults")
	}
	if got := Key(demoSrc, Options{Pairs: 1}); got == base {
		t.Error("pairs=1 produced the same key as pairs=4")
	}
	lvl0 := 0
	if got := Key(demoSrc, Options{OptLevel: &lvl0}); got == base {
		t.Error("O=0 produced the same key as O=2")
	}
	if got := Key(demoSrc+" ", Options{}); got == base {
		t.Error("different source produced the same key")
	}
}

func TestConcurrentIdenticalCompilesCollapse(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	src := demoSrc + "// collapse\n"
	before := core.PipelineRuns()

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := json.Marshal(CompileRequest{Source: src})
			if err != nil {
				errs <- err.Error()
				return
			}
			resp, err := http.Post(hs.URL+"/compile", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// The acceptance criterion: N identical concurrent requests, exactly
	// one pipeline execution. The counter lives beneath every core entry
	// point, so neither the cache nor the flight group can fake it.
	if ran := core.PipelineRuns() - before; ran != 1 {
		t.Errorf("pipeline executed %d times for %d concurrent identical requests, want 1", ran, n)
	}
}

func TestRunResultMemoized(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	src := demoSrc + "// memo\n"
	req := RunRequest{Source: src, Run: RunRequestOptions{Tier: vliw.TierFast}}
	before := core.PipelineRuns()

	resp, raw := post(t, hs.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, raw)
	}
	first := decode[RunResponse](t, raw)
	if first.CachedResult {
		t.Error("first run reported cached_result=true")
	}
	if first.Tier != vliw.TierFast {
		t.Error("fast run did not take the certified fast path")
	}

	resp, raw = post(t, hs.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d: %s", resp.StatusCode, raw)
	}
	second := decode[RunResponse](t, raw)
	if !second.CachedResult || !second.CachedBuild {
		t.Errorf("second identical run not served from cache: %+v", second)
	}
	if second.Exit != first.Exit || second.Output != first.Output || second.Stats != first.Stats {
		t.Errorf("memoized result differs from computed result:\n%+v\n%+v", first, second)
	}
	if ran := core.PipelineRuns() - before; ran != 1 {
		t.Errorf("pipeline executed %d times across both runs, want 1", ran)
	}

	// no_cache forces a re-execution but must produce identical results
	// (the simulator is deterministic — that is what justifies the memo).
	req.Run.NoCache = true
	resp, raw = post(t, hs.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no_cache run: status %d: %s", resp.StatusCode, raw)
	}
	third := decode[RunResponse](t, raw)
	if third.CachedResult {
		t.Error("no_cache run reported cached_result=true")
	}
	if third.Exit != first.Exit || third.Stats.Beats != first.Stats.Beats {
		t.Errorf("re-executed run diverged from memoized run: %+v vs %+v", third, first)
	}
}

// guardedSrc exercises every guard class the safe tier can delete: array
// stores and loads behind provable loop bounds, plus a division by a
// nonzero constant.
const guardedSrc = `
var a [8]int
func main() int {
	var s int = 0
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i * 3 }
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] }
	return s / 3
}
`

// TestRunSafeTier: run.tier="safe" selects the guard-free tier end to end — the
// response reports it, the memo keeps safe and fast results apart, and the
// /metrics cert_level tree counts each run at the grade it executed under.
func TestRunSafeTier(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})

	safeReq := RunRequest{Source: guardedSrc, Run: RunRequestOptions{Tier: vliw.TierSafe}}
	resp, raw := post(t, hs.URL+"/run", safeReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("safe run: status %d: %s", resp.StatusCode, raw)
	}
	safe := decode[RunResponse](t, raw)
	if safe.Tier != vliw.TierSafe {
		t.Fatalf("safe run not on the safe tier: %+v", safe)
	}

	// The fast run of the same source must not be served from the safe
	// run's memo entry (distinct runKey) and must report its own tier.
	resp, raw = post(t, hs.URL+"/run", RunRequest{Source: guardedSrc, Run: RunRequestOptions{Tier: vliw.TierFast}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast run: status %d: %s", resp.StatusCode, raw)
	}
	fast := decode[RunResponse](t, raw)
	if fast.CachedResult {
		t.Error("fast run hit the safe run's memo entry (runKey ignores the tier)")
	}
	if fast.Tier != vliw.TierFast {
		t.Errorf("fast run tier: %+v", fast)
	}
	if fast.Exit != safe.Exit || fast.Output != safe.Output || fast.Stats != safe.Stats {
		t.Errorf("tiers disagree:\n safe: %+v\n fast: %+v", safe, fast)
	}

	// A repeat safe request is a memo hit and keeps its tier.
	resp, raw = post(t, hs.URL+"/run", safeReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached safe run: status %d: %s", resp.StatusCode, raw)
	}
	cached := decode[RunResponse](t, raw)
	if !cached.CachedResult || cached.Tier != vliw.TierSafe {
		t.Errorf("cached safe run lost its tier: %+v", cached)
	}

	if got := s.Metrics().RunsCertSafe.Value(); got != 2 {
		t.Errorf("RunsCertSafe = %d, want 2", got)
	}
	if got := s.Metrics().RunsCertFast.Value(); got != 1 {
		t.Errorf("RunsCertFast = %d, want 1", got)
	}
}

// TestRunNativeTier: run.tier="native" selects the native tier end
// to end — the response names the tier, the memo keys native apart from
// safe, an unknown tier name is a structured bad_request, and /metrics
// counts the run under cert_level.native.
func TestRunNativeTier(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})

	natReq := RunRequest{Source: guardedSrc, Run: RunRequestOptions{Tier: vliw.TierNative}}
	resp, raw := post(t, hs.URL+"/run", natReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("native run: status %d: %s", resp.StatusCode, raw)
	}
	native := decode[RunResponse](t, raw)
	if native.Tier != vliw.TierNative {
		t.Fatalf("native run not on the native tier: %+v", native)
	}

	// The safe run of the same source must not be served from the native
	// run's memo entry (distinct runKey) and must agree bit-for-bit.
	resp, raw = post(t, hs.URL+"/run", RunRequest{Source: guardedSrc, Run: RunRequestOptions{Tier: vliw.TierSafe}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("safe run: status %d: %s", resp.StatusCode, raw)
	}
	safe := decode[RunResponse](t, raw)
	if safe.CachedResult {
		t.Error("safe run hit the native run's memo entry (runKey ignores the tier)")
	}
	if safe.Tier != vliw.TierSafe {
		t.Errorf("safe run tier = %v", safe.Tier)
	}
	if native.Exit != safe.Exit || native.Output != safe.Output || native.Stats != safe.Stats {
		t.Errorf("tiers disagree:\n native: %+v\n safe:   %+v", native, safe)
	}

	// A repeat native request is a memo hit and keeps its tier name.
	resp, raw = post(t, hs.URL+"/run", natReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached native run: status %d: %s", resp.StatusCode, raw)
	}
	cached := decode[RunResponse](t, raw)
	if !cached.CachedResult || cached.Tier != vliw.TierNative {
		t.Errorf("cached native run lost its tier: %+v", cached)
	}

	// An unknown tier name is a structured bad_request, not a run.
	resp, raw = post(t, hs.URL+"/run", map[string]any{
		"source": guardedSrc, "run": map[string]any{"tier": "turbo"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown tier: status %d: %s", resp.StatusCode, raw)
	}

	if got := s.Metrics().RunsCertNative.Value(); got != 2 {
		t.Errorf("RunsCertNative = %d, want 2", got)
	}
}

// TestRunManySafeTier: the batch endpoint puts every tenant on the safe
// tier and the results stay identical to checked ones.
func TestRunManySafeTier(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})

	for _, tier := range []vliw.Tier{vliw.TierSafe, vliw.TierNative} {
		resp, raw := post(t, hs.URL+"/runmany", runManyReq(tier))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tier, resp.StatusCode, raw)
		}
		batch := decode[RunManyResponse](t, raw)
		checked := decode[RunManyResponse](t, mustPostOK(t, hs.URL+"/runmany", runManyReq(vliw.TierChecked)))
		for i, r := range batch.Results {
			if r.Error != "" {
				t.Fatalf("%s tenant %d: %s", tier, i, r.Error)
			}
			if r.Tier != tier {
				t.Errorf("%s tenant %d not on the requested tier: %+v", tier, i, r)
			}
			c := checked.Results[i]
			if r.Exit != c.Exit || r.Output != c.Output || r.Stats != c.Stats {
				t.Errorf("%s tenant %d diverges from checked:\n %s: %+v\n checked: %+v", tier, i, tier, r, c)
			}
		}
	}
}

// jsonFields lists a struct type's wire field names in declaration order.
func jsonFields(v any) []string {
	var names []string
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	return names
}

// TestWireSpellsTheTierOneWay: the execution tier crosses the wire as the
// "tier" name in both directions and nowhere else — the request option
// structs have exactly the documented fields, and /run and /runmany bodies
// echo "tier" with no fast/safe booleans beside it.
func TestWireSpellsTheTierOneWay(t *testing.T) {
	if got, want := jsonFields(RunRequestOptions{}), []string{"tier", "max_cycles", "no_cache"}; !reflect.DeepEqual(got, want) {
		t.Errorf("RunRequestOptions wire fields = %v, want %v", got, want)
	}
	if got, want := jsonFields(RunManyRunOptions{}), []string{"tier", "max_cycles", "quantum", "switch_beats"}; !reflect.DeepEqual(got, want) {
		t.Errorf("RunManyRunOptions wire fields = %v, want %v", got, want)
	}

	_, hs := newTestServer(t, Config{Parallelism: 1})
	check := func(what string, body map[string]json.RawMessage, tier string) {
		t.Helper()
		if got := string(body["tier"]); got != `"`+tier+`"` {
			t.Errorf("%s: tier = %s, want %q", what, got, tier)
		}
		for _, gone := range []string{"fast", "safe"} {
			if _, ok := body[gone]; ok {
				t.Errorf("%s: response still carries %q", what, gone)
			}
		}
	}
	for _, tier := range []string{"checked", "fast", "safe", "native"} {
		run := map[string]any{"tier": tier}
		raw := mustPostOK(t, hs.URL+"/run", map[string]any{"source": demoSrc, "run": run})
		check("/run "+tier, decode[map[string]json.RawMessage](t, raw), tier)

		raw = mustPostOK(t, hs.URL+"/runmany", map[string]any{
			"programs": []map[string]any{{"source": demoSrc}, {"source": tenantSrcs[0]}}, "run": run})
		batch := decode[struct {
			Results []map[string]json.RawMessage `json:"results"`
		}](t, raw)
		if len(batch.Results) != 2 {
			t.Fatalf("/runmany %s: %d results, want 2: %s", tier, len(batch.Results), raw)
		}
		for i, r := range batch.Results {
			check(fmt.Sprintf("/runmany %s tenant %d", tier, i), r, tier)
		}
	}
}

func mustPostOK(t *testing.T, url string, body any) []byte {
	t.Helper()
	resp, raw := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

func TestRunDeadlineReturns504AndMachineToPool(t *testing.T) {
	// SnapshotBytes < 0 disables checkpointing: the deadline maps straight
	// to 504 (the default configuration instead answers 202 + resume token;
	// snapshot_test.go covers that path).
	s, hs := newTestServer(t, Config{Parallelism: 1, RunTimeout: 30 * time.Millisecond, SnapshotBytes: -1})

	resp, raw := post(t, hs.URL+"/run", RunRequest{
		Source: slowSrc,
		Run:    RunRequestOptions{NoCache: true},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	if body["error"].Kind != "timeout" {
		t.Errorf("error kind = %q, want timeout; body %s", body["error"].Kind, raw)
	}
	if got := s.Metrics().MachinesInUse.Value(); got != 0 {
		t.Errorf("MachinesInUse = %d after timed-out run, want 0 (machine leaked)", got)
	}
	if got := s.Metrics().Timeouts.Value(); got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
}

func TestCompileErrorIsStructured(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1})
	resp, raw := post(t, hs.URL+"/compile", CompileRequest{
		Source: "func main() int {\n\treturn undefined_variable\n}",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	e := body["error"]
	if e.Kind != "compile" {
		t.Errorf("kind = %q, want compile", e.Kind)
	}
	if e.Pos == nil {
		t.Fatalf("no position on compile diagnostic: %s", raw)
	}
	if e.Pos.Line != 2 || e.Pos.Col == 0 {
		t.Errorf("position = %+v, want line 2 with a column", e.Pos)
	}
	if !strings.Contains(e.Msg, "undefined") {
		t.Errorf("msg = %q, want mention of the undefined identifier", e.Msg)
	}
	if got := s.Metrics().CompileErrors.Value(); got != 1 {
		t.Errorf("CompileErrors = %d, want 1", got)
	}
}

func TestSaturationReturns429(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1, MaxInflight: 1, RunTimeout: 5 * time.Second})

	// Occupy the single admission slot with a genuinely slow run.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		raw, _ := json.Marshal(RunRequest{Source: slowSrc, Run: RunRequestOptions{NoCache: true}})
		resp, err := http.Post(hs.URL+"/run", "application/json", bytes.NewReader(raw))
		if err == nil {
			resp.Body.Close()
		}
		close(release)
	}()
	<-started
	// Wait for the slow request to be admitted.
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().InFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	if body["error"].Kind != "saturated" {
		t.Errorf("error kind = %q, want saturated", body["error"].Kind)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
	if got := s.Metrics().Saturated.Value(); got == 0 {
		t.Error("Saturated counter not incremented")
	}
	if got := s.Metrics().Compile.Rejected.Value(); got == 0 {
		t.Error("per-endpoint Rejected counter not incremented for /compile")
	}
	if got := s.Metrics().Run.Rejected.Value(); got != 0 {
		t.Errorf("/run rejected %d requests; the rejection was on /compile", got)
	}
	// GET /metrics must stay reachable while the server is saturated —
	// that is the whole point of exempting it from admission.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status = %d under saturation, want 200", mresp.StatusCode)
	}
	<-release
	wg.Wait()
}

func TestLintEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	resp, raw := post(t, hs.URL+"/lint", CompileRequest{Source: demoSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	rep := decode[LintResponse](t, raw)
	if !rep.Clean || rep.Errors != 0 {
		t.Errorf("demo program should lint clean: %+v", rep)
	}
	if rep.Words == 0 || rep.Reachable == 0 {
		t.Errorf("lint response missing image shape: %+v", rep)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1, MaxSourceBytes: 128})

	resp, _ := post(t, hs.URL+"/compile", CompileRequest{Source: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: status %d, want 400", resp.StatusCode)
	}

	resp, _ = post(t, hs.URL+"/compile", CompileRequest{Source: strings.Repeat("x", 200)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized source: status %d, want 413", resp.StatusCode)
	}

	r, err := http.Post(hs.URL+"/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", r.StatusCode)
	}

	r, err = http.Get(hs.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status %d, want 405", r.StatusCode)
	}

	badPairs := CompileRequest{Source: "func main() int { return 0 }"}
	badPairs.Options.Pairs = 3
	resp, _ = post(t, hs.URL+"/compile", badPairs)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pairs=3: status %d, want 400", resp.StatusCode)
	}
}

func TestArtifactCacheEviction(t *testing.T) {
	// A budget big enough for roughly one artifact forces eviction on the
	// second distinct compile.
	s, hs := newTestServer(t, Config{Parallelism: 1, CacheBytes: 8 << 10})
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("%s// v%d\n", demoSrc, i)
		resp, raw := post(t, hs.URL+"/compile", CompileRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if got := s.Metrics().ArtifactEvictions.Value(); got == 0 {
		t.Error("no evictions after compiling 3 distinct programs into an ~1-artifact budget")
	}
	if got := s.Metrics().ArtifactEntries.Value(); got < 1 {
		t.Errorf("ArtifactEntries = %d, want >= 1", got)
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	post(t, hs.URL+"/compile", CompileRequest{Source: demoSrc})
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"artifact_cache", "run_cache", "endpoints", "in_flight", "machines_in_use", "cert_level"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("metrics snapshot missing %q", k)
		}
	}
}

// TestUnknownRequestFieldsAreRefused: a field the request type does not have
// is a 400 naming it, on every endpoint that takes a body and at every depth —
// before this, {"run":{"fast":true}} (the spelling from before Tier) was
// dropped by the decoder and the run answered 200 on the checked tier.
func TestUnknownRequestFieldsAreRefused(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	for _, tc := range []struct {
		path, body, field string
	}{
		{"/compile", `{"source": %q, "optimise": true}`, "optimise"},
		{"/compile", `{"source": %q, "options": {"pairs": 1, "unroll": 4}}`, "unroll"},
		{"/run", `{"source": %q, "run": {"fast": true}}`, "fast"},
		{"/run", `{"source": %q, "run": {"tier": "native", "safe": true}}`, "safe"},
		{"/lint", `{"source": %q, "strict": true}`, "strict"},
		{"/runmany", `{"programs": [{"source": %q, "priority": 1}]}`, "priority"},
		{"/runmany", `{"programs": [{"source": %q}], "run": {"fast": true}}`, "fast"},
		{"/resume", `{"token": %q, "beats": 5}`, "beats"},
		// The second way to run a batch, K machines, is K /run requests now.
		{"/runmany", `{"programs": [{"source": %q}], "run": {"tenancy": "machines"}}`, "tenancy"},
		// A field it has, with a value it cannot take: one reader, one rule for all three.
		{"/run", `{"source": %q, "run": {"max_cycles": -1}}`, "max_cycles"},
		{"/runmany", `{"programs": [{"source": %q}], "run": {"max_cycles": -1}}`, "max_cycles"},
		{"/runmany", `{"programs": [{"source": %q}], "run": {"switch_beats": -1}}`, "switch_beats"},
		{"/resume", `{"token": %q, "run": {"max_cycles": -1}}`, "max_cycles"},
	} {
		resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(fmt.Sprintf(tc.body, demoSrc)))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		e := decode[map[string]ErrorBody](t, out.Bytes())["error"]
		if resp.StatusCode != http.StatusBadRequest || e.Kind != "bad_request" || !strings.Contains(e.Msg, `"`+tc.field+`"`) {
			t.Errorf("%s with unknown field %q: status %d, body %s; want 400 bad_request naming the field", tc.path, tc.field, resp.StatusCode, out.Bytes())
		}
	}
	// What the decoder accepted before it still accepts: a second object is
	// refused, surrounding whitespace is not.
	resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(fmt.Sprintf(` {"source": %q} `+"\n", demoSrc)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("body with surrounding whitespace: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/run", "application/json", strings.NewReader(fmt.Sprintf(`{"source": %q} {}`, demoSrc)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("two objects in one body: status %d, want 400", resp.StatusCode)
	}
}
