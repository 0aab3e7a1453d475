package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
)

// referenceRun computes the uninterrupted result of src directly through the
// Artifact API — the oracle every paused-and-resumed serving path must match
// bit-for-bit, counters included — plus how long the simulation took, so the
// pause tests can pick a deadline relative to the machine they run on.
func referenceRun(t *testing.T, src string) (core.ExitResult, time.Duration) {
	t.Helper()
	art, err := core.Build(context.Background(), src, Options{}.toCore(1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, err := art.Run(context.Background(), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out, time.Since(start)
}

// pauseTimeout picks a RunTimeout that is guaranteed to interrupt the
// reference workload but completes the resume chain in a handful of hops
// whatever the host speed (the race detector slows simulation ~10-20x; a
// fixed deadline would blow the hop budget there).
func pauseTimeout(ref time.Duration) time.Duration {
	if d := ref / 6; d > 20*time.Millisecond {
		return d
	}
	return 20 * time.Millisecond
}

// resumeToCompletion drives POST /resume until it answers 200, asserting the
// pause/resume invariants along the way. It returns the final RunResponse
// plus the token the completing hop consumed.
func resumeToCompletion(t *testing.T, url, token string, beats int64) (RunResponse, string) {
	t.Helper()
	for hop := 0; hop < 100; hop++ {
		resp, raw := post(t, url+"/resume", ResumeRequest{Token: token})
		switch resp.StatusCode {
		case http.StatusOK:
			return decode[RunResponse](t, raw), token
		case http.StatusAccepted:
			p := decode[PausedResponse](t, raw)
			if p.ResumeToken == "" {
				t.Fatalf("202 without a resume token: %s", raw)
			}
			if p.Beats <= beats {
				t.Fatalf("resumed run did not advance: beats %d -> %d", beats, p.Beats)
			}
			token, beats = p.ResumeToken, p.Beats
		default:
			t.Fatalf("resume: status %d: %s", resp.StatusCode, raw)
		}
	}
	t.Fatal("run did not complete within 100 resume hops")
	return RunResponse{}, ""
}

func TestRunPausesAndResumesToCompletion(t *testing.T) {
	want, refDur := referenceRun(t, slowSrc)
	s, hs := newTestServer(t, Config{Parallelism: 1, RunTimeout: pauseTimeout(refDur)})

	resp, raw := post(t, hs.URL+"/run", RunRequest{
		Source: slowSrc,
		Run:    RunRequestOptions{NoCache: true},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202; body %s", resp.StatusCode, raw)
	}
	p := decode[PausedResponse](t, raw)
	if !p.Paused || p.ResumeToken == "" || p.Reason != "timeout" {
		t.Fatalf("implausible pause response: %+v", p)
	}
	if p.Beats <= 0 {
		t.Fatalf("paused at beat %d, want progress before the deadline", p.Beats)
	}

	final, lastToken := resumeToCompletion(t, hs.URL, p.ResumeToken, p.Beats)
	// The stitched-together run must be indistinguishable from the
	// uninterrupted one: exit, output, and every wire counter.
	if final.Exit != want.Exit || final.Output != want.Output {
		t.Errorf("resumed result diverged: got exit=%d out=%q, want exit=%d out=%q",
			final.Exit, final.Output, want.Exit, want.Output)
	}
	if final.Stats.Beats != want.Stats.Beats || final.Stats.Instrs != want.Stats.Instrs ||
		final.Stats.Ops != want.Stats.Ops || final.Stats.BankStalls != want.Stats.BankStalls {
		t.Errorf("resumed counters diverged:\ngot  %+v\nwant beats=%d instrs=%d ops=%d stalls=%d",
			final.Stats, want.Stats.Beats, want.Stats.Instrs, want.Stats.Ops, want.Stats.BankStalls)
	}

	if got := s.Metrics().MachinesInUse.Value(); got != 0 {
		t.Errorf("MachinesInUse = %d after resume chain, want 0", got)
	}
	if got := s.Metrics().SnapshotsResumed.Value(); got != 1 {
		t.Errorf("SnapshotsResumed = %d, want 1", got)
	}
	// Completion retires the token it consumed. (Earlier checkpoints in the
	// chain stay valid — the store is content-addressed, and an old token
	// just resumes from further back.)
	resp, raw = post(t, hs.URL+"/resume", ResumeRequest{Token: lastToken})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("resume of a completed token: status %d, want 404; body %s", resp.StatusCode, raw)
	}
}

func TestResumeUnknownToken(t *testing.T) {
	_, hs := newTestServer(t, Config{Parallelism: 1})
	resp, raw := post(t, hs.URL+"/resume", ResumeRequest{Token: strings.Repeat("ab", 32)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", resp.StatusCode, raw)
	}
	body := decode[map[string]ErrorBody](t, raw)
	if body["error"].Kind != "not_found" {
		t.Errorf("error kind = %q, want not_found", body["error"].Kind)
	}
	resp, raw = post(t, hs.URL+"/resume", ResumeRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty token: status %d, want 400; body %s", resp.StatusCode, raw)
	}
}

// TestSnapshotDiskRecovery is the SIGKILL drill: server A checkpoints a run
// into a spill directory and is abandoned without any shutdown handshake
// (all its in-RAM state is lost, exactly as a kill -9 would lose it); a
// fresh server B pointed at the same directory must re-index the snapshot
// and complete the run from the token alone. A corrupt spill file planted in
// the directory must be detected and discarded, not served.
func TestSnapshotDiskRecovery(t *testing.T) {
	want, refDur := referenceRun(t, slowSrc)
	dir := t.TempDir()

	_, hsA := newTestServer(t, Config{
		Parallelism: 1, RunTimeout: pauseTimeout(refDur), SnapshotDir: dir,
	})
	resp, raw := post(t, hsA.URL+"/run", RunRequest{
		Source: slowSrc,
		Run:    RunRequestOptions{NoCache: true},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202; body %s", resp.StatusCode, raw)
	}
	p := decode[PausedResponse](t, raw)

	files, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(files) != 1 {
		t.Fatalf("spill dir holds %d .snap files after pause, want 1", len(files))
	}

	// Plant wreckage a crashed writer could leave behind: an orphaned temp
	// file and a snapshot whose bytes do not match its token.
	corrupt := filepath.Join(dir, strings.Repeat("00", 32)+".snap")
	if err := os.WriteFile(corrupt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, p.ResumeToken+".snap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Server A vanishes here as far as B is concerned; B boots cold onto
	// the shared directory.
	sB, hsB := newTestServer(t, Config{Parallelism: 1, SnapshotDir: dir})
	if got := sB.Metrics().SnapshotsRecovered.Value(); got != 1 {
		t.Errorf("SnapshotsRecovered = %d, want 1 (corrupt file must not count)", got)
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Error("corrupt spill file survived the recovery scan")
	}

	final, _ := resumeToCompletion(t, hsB.URL, p.ResumeToken, p.Beats)
	if final.Exit != want.Exit || final.Output != want.Output || final.Stats.Beats != want.Stats.Beats {
		t.Errorf("recovered run diverged: got exit=%d beats=%d, want exit=%d beats=%d",
			final.Exit, final.Stats.Beats, want.Exit, want.Stats.Beats)
	}
}

func TestHealthzReadyzDrain(t *testing.T) {
	s, hs := newTestServer(t, Config{Parallelism: 1, MaxInflight: 1})

	// The probes bypass admission control: hold the only admission slot and
	// they must still answer.
	s.admit <- struct{}{}
	defer func() { <-s.admit }()

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(hs.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", ep, resp.StatusCode)
		}
	}

	s.StartDrain()
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz while draining = %d, want 503", resp.StatusCode)
	}
	// Liveness is orthogonal to draining: the process is still healthy.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz while draining = %d, want 200", resp.StatusCode)
	}

	r, err := http.Post(hs.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", r.StatusCode)
	}
}

// TestRunManyPoolExactlyOnce exhausts the machine pool with concurrent
// batches across every /runmany outcome class — clean completion, per-tenant
// trap, whole-batch deadline, rejected request — then checks every machine
// came back exactly once and the pool still serves.
func TestRunManyPoolExactlyOnce(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Parallelism: 1, RunTimeout: 50 * time.Millisecond, SnapshotBytes: -1,
	})
	trapSrc := "func main() int {\n\tvar z int = 0\n\treturn 7 / z\n}\n"

	reqs := []RunManyRequest{
		{Programs: []RunManyProgram{{Source: demoSrc}, {Source: demoSrc}}},
		{Programs: []RunManyProgram{{Source: demoSrc}, {Source: trapSrc}}},
		{Programs: []RunManyProgram{{Source: slowSrc}, {Source: slowSrc}}},
		{Programs: []RunManyProgram{{Source: demoSrc}}},
		{Programs: []RunManyProgram{{Source: demoSrc}},
			Run: RunManyRunOptions{Quantum: -1}},
	}
	var wg sync.WaitGroup
	status := make([]int, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req RunManyRequest) {
			defer wg.Done()
			resp, _ := post(t, hs.URL+"/runmany", req)
			status[i] = resp.StatusCode
		}(i, req)
	}
	wg.Wait()

	wantStatus := []int{200, 200, 504, 200, 400}
	for i, want := range wantStatus {
		if status[i] != want {
			t.Errorf("request %d: status %d, want %d", i, status[i], want)
		}
	}
	if got := s.Metrics().MachinesInUse.Value(); got != 0 {
		t.Fatalf("MachinesInUse = %d after mixed batch traffic, want 0 (pool leak)", got)
	}
	// The pool must still hand out machines after the churn.
	resp, raw := post(t, hs.URL+"/runmany", RunManyRequest{
		Programs: []RunManyProgram{{Source: demoSrc}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-churn batch: status %d: %s", resp.StatusCode, raw)
	}
	if got := s.Metrics().MachinesInUse.Value(); got != 0 {
		t.Errorf("MachinesInUse = %d after final batch, want 0", got)
	}
}
