// Command benchjson converts `go test -bench` output into a small JSON
// document suitable for committing as a tracked benchmark baseline
// (BENCH_sim.json). Each benchmark's runs are averaged per metric; when a
// -baseline file (raw bench output of an earlier build) is given, the
// report also carries the old numbers and the ns/op speedup for every
// benchmark present in both.
//
// Usage:
//
//	go test -bench Simulator -benchmem -count=3 . | benchjson -baseline old.txt -o BENCH_sim.json
//	benchjson [-baseline old.txt] [-o out.json] [bench-output.txt]
//
// -require, -require-ratio and -require-max turn the report into a gate: a
// ns/op speedup floor against the baseline, a within-run ns/op ratio floor,
// and a ceiling on any metric of the run (B/op, allocs/op).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's metrics, averaged over its -count runs.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics"` // unit -> mean value
}

// Report is the document benchjson emits.
type Report struct {
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	Pkg        string             `json:"pkg,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Baseline   []Benchmark        `json:"baseline,omitempty"`
	Speedup    map[string]float64 `json:"speedup_ns_per_op,omitempty"` // baseline ns/op ÷ new ns/op
	// Ratios holds the within-run ns/op ratios asserted by -require-ratio,
	// keyed "A/B": A's mean ns/op divided by B's. A ratio above 1 means B
	// is the faster benchmark.
	Ratios map[string]float64 `json:"ratios_ns_per_op,omitempty"`
}

func main() {
	baseline := flag.String("baseline", "", "raw bench output of the build to compare against")
	out := flag.String("o", "", "output file (default stdout)")
	require := flag.String("require", "", "Name=minSpeedup[,...]: fail unless each named benchmark's ns/op speedup vs -baseline meets the floor")
	requireRatio := flag.String("require-ratio", "", "A/B=min[,...] (A and B benchmark names, sub-benchmarks too): fail unless A's mean ns/op divided by B's (both from this run) meets the floor — i.e. require B at least min× as fast as A")
	requireMax := flag.String("require-max", "", "Name:unit=ceiling[,...]: fail unless each named benchmark's mean value of that metric (B/op, allocs/op, ...) is at most the ceiling — for metrics that repeat exactly, where a ceiling is a floor without noise")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchjson [-baseline old.txt] [-o out.json] [bench-output.txt]")
		os.Exit(2)
	}

	rep, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fatal(err)
		}
		base, err := parse(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("baseline: %w", err))
		}
		rep.Baseline = base.Benchmarks
		rep.Speedup = map[string]float64{}
		for _, nb := range rep.Benchmarks {
			for _, ob := range base.Benchmarks {
				if ob.Name == nb.Name && nb.Metrics["ns/op"] > 0 {
					rep.Speedup[nb.Name] = round2(ob.Metrics["ns/op"] / nb.Metrics["ns/op"])
				}
			}
		}
	}

	if *require != "" {
		if *baseline == "" {
			fatal(fmt.Errorf("-require needs -baseline"))
		}
		for _, pair := range strings.Split(*require, ",") {
			name, floorStr, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fatal(fmt.Errorf("-require: bad entry %q, want Name=minSpeedup", pair))
			}
			floor, err := strconv.ParseFloat(floorStr, 64)
			if err != nil {
				fatal(fmt.Errorf("-require %s: %w", name, err))
			}
			got, present := rep.Speedup[name]
			if !present {
				fatal(fmt.Errorf("-require %s: benchmark missing from run or baseline", name))
			}
			if got < floor {
				fatal(fmt.Errorf("-require %s: speedup %.2f below floor %.2f (regression vs baseline)", name, got, floor))
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s speedup %.2fx >= %.2f floor: ok\n", name, got, floor)
		}
	}

	if *requireRatio != "" {
		nsOp := map[string]float64{}
		for _, b := range rep.Benchmarks {
			nsOp[b.Name] = b.Metrics["ns/op"]
		}
		rep.Ratios = map[string]float64{}
		for _, pair := range strings.Split(*requireRatio, ",") {
			names, floorStr, ok := strings.Cut(strings.TrimSpace(pair), "=")
			// A may be a sub-benchmark ("BenchmarkX/y"): B is what follows
			// the next "/Benchmark".
			i := strings.Index(names, "/Benchmark")
			ok2 := i > 0
			a, b := names, ""
			if ok2 {
				a, b = names[:i], names[i+1:]
			}
			if !ok || !ok2 {
				fatal(fmt.Errorf("-require-ratio: bad entry %q, want A/B=min", pair))
			}
			floor, err := strconv.ParseFloat(floorStr, 64)
			if err != nil {
				fatal(fmt.Errorf("-require-ratio %s: %w", names, err))
			}
			if nsOp[a] <= 0 || nsOp[b] <= 0 {
				fatal(fmt.Errorf("-require-ratio %s: benchmark missing from run", names))
			}
			got := round2(nsOp[a] / nsOp[b])
			rep.Ratios[names] = got
			if got < floor {
				fatal(fmt.Errorf("-require-ratio %s: ratio %.2f below floor %.2f (%s is not %.2fx as fast as %s)", names, got, floor, b, floor, a))
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s ns/op ratio %.2f >= %.2f floor: ok\n", names, got, floor)
		}
	}

	if *requireMax != "" {
		for _, entry := range strings.Split(*requireMax, ",") {
			key, ceilStr, ok := strings.Cut(strings.TrimSpace(entry), "=")
			name, unit, ok2 := strings.Cut(key, ":")
			if !ok || !ok2 {
				fatal(fmt.Errorf("-require-max: bad entry %q, want Name:unit=ceiling", entry))
			}
			ceiling, err := strconv.ParseFloat(ceilStr, 64)
			if err != nil {
				fatal(fmt.Errorf("-require-max %s: %w", key, err))
			}
			got, present := 0.0, false
			for _, b := range rep.Benchmarks {
				if b.Name == name {
					got, present = b.Metrics[unit]
				}
			}
			if !present {
				fatal(fmt.Errorf("-require-max %s: benchmark or metric missing from run", key))
			}
			if got > ceiling {
				fatal(fmt.Errorf("-require-max %s: %.0f above ceiling %.0f", key, got, ceiling))
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s %.0f <= %.0f ceiling: ok\n", key, got, ceiling)
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// parse reads raw `go test -bench` output: header key: value lines, then
// result lines of the form
//
//	BenchmarkName-8   115   21650178 ns/op   790063 beats/s   39283 allocs/op
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	type acc struct {
		runs int
		sums map[string]float64
	}
	byName := map[string]*acc{}
	var order []string

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			fields := strings.Fields(line)
			if len(fields) < 4 || len(fields)%2 != 0 {
				continue
			}
			// Strip the -GOMAXPROCS suffix so runs group across machines.
			name := fields[0]
			if i := strings.LastIndex(name, "-"); i > 0 {
				if _, err := strconv.Atoi(name[i+1:]); err == nil {
					name = name[:i]
				}
			}
			a := byName[name]
			if a == nil {
				a = &acc{sums: map[string]float64{}}
				byName[name] = a
				order = append(order, name)
			}
			a.runs++
			for i := 2; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bad metric value %q in %q", fields[i], line)
				}
				a.sums[fields[i+1]] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	for _, name := range order {
		a := byName[name]
		b := Benchmark{Name: name, Runs: a.runs, Metrics: map[string]float64{}}
		for unit, sum := range a.sums {
			b.Metrics[unit] = round2(sum / float64(a.runs))
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	return rep, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
