package main

import (
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// The benchmark reads BENCHMARK.json and writes bench/out relative to the
// repository root, so the tests run from there too.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestRank(t *testing.T) {
	for _, c := range []struct {
		q       float64
		n, want int
	}{
		{0.5, 1, 1}, {0.5, 5, 3}, {0.5, 24, 12}, {0.58, 24, 14}, {0.75, 200, 150}, {0.75, 125, 94}, {0.99, 80000, 79200}, {0.99, 3, 3},
	} {
		if got := rank(c.q, c.n); got != c.want {
			t.Errorf("rank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

func TestQuantileMs(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{{0, 1 * ms}, {0, 2 * ms}, {0, 3 * ms}, {1, 100 * ms}, {1, 400 * ms}, {1, 900 * ms}}
	if got := quantileMs(samples, true, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("pooled median = %v ms, want 3", got)
	}
	// Per class the medians are 2 and 400; their geometric mean is sqrt(800).
	if got, want := quantileMs(samples, false, 0.5), math.Sqrt(800); math.Abs(got-want) > 1e-9 {
		t.Errorf("per-class median = %v ms, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100},
		{name: "a", start: 10, end: 30, parent: 1},
		{name: "b", start: 20, end: 50, parent: 1},  // overlaps a: the union covers 10..50
		{name: "c", start: 90, end: 120, parent: 1}, // runs past its parent: only 90..100 counts
		{name: "a.inner", start: 12, end: 18, parent: 2},
	}
	want := []time.Duration{50, 14, 30, 30, 6}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got, want[i])
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on its two cheapest
// programs and checks that the metrics BENCHMARK.json declares are exactly
// the ones emitted.
func TestSmoke(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	o := options{seed: 1, seconds: 0.2, programs: 2, setups: 1}
	check := func(w *workload, kind string, res result, want []declared) {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s %s: correct %t, %d of %d failed", w.name, kind, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s %s: %s declared but not emitted", w.name, kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s %s: %s has unit %q, declared %q", w.name, kind, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s %s: %s = %v", w.name, kind, d.Name, m.Value)
			}
			if !validName.MatchString(d.Name) {
				t.Errorf("metric name %q", d.Name)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s %s: %d metrics emitted, %d declared", w.name, kind, len(res.Metrics), len(want))
		}
	}
	for _, w := range workloads {
		res, err := runUntraced(w, o)
		if err != nil {
			t.Fatal(err)
		}
		check(w, "untraced", res, man.EndToEnd)
		if got := res.Metrics["ok_ratio"].Value; got != 1 {
			t.Errorf("%s: ok_ratio = %v", w.name, got)
		}
		res, err = runTraced(w, o)
		if err != nil {
			t.Fatal(err)
		}
		check(w, "traced", res, man.PerLayer)
	}
}
