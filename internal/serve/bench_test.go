package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/multiflow-repro/trace/internal/vliw"
)

// BenchmarkServeCachedRun measures steady-state /run throughput on the
// paper's fib workload: the artifact is cached, the run result is memoized,
// so each request is one cache probe plus JSON framing over real HTTP.
// This is the serving layer's headline number — the acceptance floor is
// 1000 req/s — and it is only reachable because compiled artifacts and
// their runs are deterministic and therefore cacheable; the raw simulation
// (818k beats) alone would cap a single CPU near 17 req/s.
func BenchmarkServeCachedRun(b *testing.B) {
	src, err := os.ReadFile("../../examples/fib.mf")
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Parallelism: 8})
	hs := httptest.NewServer(s)
	defer hs.Close()

	body, err := json.Marshal(RunRequest{Source: string(src), Run: RunRequestOptions{Tier: vliw.TierFast}})
	if err != nil {
		b.Fatal(err)
	}
	do := func(client *http.Client) error {
		resp, err := client.Post(hs.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		var rr RunResponse
		return json.NewDecoder(resp.Body).Decode(&rr)
	}
	// Warm the caches: compile once, run once.
	if err := do(http.DefaultClient); err != nil {
		b.Fatal(err)
	}

	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			if err := do(client); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeRunManyContexts drives POST /runmany with four distinct
// cached tenants time-shared on one pooled machine per request. Batch results
// are not memoized, so every request pays for real simulation.
func BenchmarkServeRunManyContexts(b *testing.B) {
	srcs := make([]RunManyProgram, 4)
	for i := range srcs {
		srcs[i].Source = fmt.Sprintf(`
func main() int {
	var s int = %d
	for (var i int = 0; i < 600; i = i + 1) { s = s + i*i + %d }
	print_i(s)
	return s & 255
}`, i, i)
	}
	s := New(Config{Parallelism: 8})
	hs := httptest.NewServer(s)
	defer hs.Close()

	body, err := json.Marshal(RunManyRequest{
		Programs: srcs,
		Run:      RunManyRunOptions{Tier: vliw.TierFast},
	})
	if err != nil {
		b.Fatal(err)
	}
	do := func(client *http.Client) error {
		resp, err := client.Post(hs.URL+"/runmany", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		var rr RunManyResponse
		return json.NewDecoder(resp.Body).Decode(&rr)
	}
	if err := do(http.DefaultClient); err != nil {
		b.Fatal(err) // warm the artifact cache
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			if err := do(client); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(4*float64(b.N)/b.Elapsed().Seconds(), "tenants/s")
}

// BenchmarkServeColdCompile measures the other end: every request a
// distinct program, every compile a full pipeline execution.
func BenchmarkServeColdCompile(b *testing.B) {
	s := New(Config{Parallelism: 1})
	hs := httptest.NewServer(s)
	defer hs.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := fmt.Sprintf("func main() int { return %d }", i)
		raw, _ := json.Marshal(CompileRequest{Source: src})
		resp, err := http.Post(hs.URL+"/compile", "application/json", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
