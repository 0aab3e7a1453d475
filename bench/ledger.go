package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// manifest is the part of BENCHMARK.json the ledger reads: the declared
// end-to-end metrics with their directions and bounds.
type manifest struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest() (manifest, error) {
	var m manifest
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return m, fmt.Errorf("run from the repository root: %w", err)
	}
	return m, json.Unmarshal(data, &m)
}

// ledger runs every workload in a child process of its own, so that no
// workload sees another's heap, caches or peak memory.
type ledger struct {
	o                      options
	traced                 bool
	cpuprofile, memprofile string
}

// set is one complete run of all workloads: result per workload name.
type set map[string]result

func (l ledger) main(selfcheck, record bool) error {
	man, err := readManifest()
	if err != nil {
		return err
	}
	first, err := l.runSet(l.traced && !selfcheck)
	if err != nil {
		return err
	}
	if record {
		if err := appendHistory(l.o, first); err != nil {
			return err
		}
	}
	if !selfcheck {
		return nil
	}
	second, err := l.runSet(false)
	if err != nil {
		return err
	}
	return compareSets(man, first, second)
}

// runSet runs each workload untraced and, if asked, traced.
func (l ledger) runSet(traced bool) (set, error) {
	out := set{}
	for _, w := range workloads {
		res, err := l.child(w.name, 0)
		if err != nil {
			return nil, err
		}
		out[w.name] = res
		if traced {
			if _, err := l.child(w.name, 1); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// child runs one workload in a child process, passes its report through, and
// parses the result line. The child has ended when this returns.
func (l ledger) child(workload string, traced int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", workload, "--trace", strconv.Itoa(traced),
		"--seed", strconv.FormatInt(l.o.seed, 10),
		"--seconds", strconv.FormatFloat(l.o.seconds, 'g', -1, 64),
		"--programs", strconv.Itoa(l.o.programs)}
	if traced == 0 {
		if l.cpuprofile != "" {
			args = append(args, "--cpuprofile", l.cpuprofile+workload+".pprof")
		}
		if l.memprofile != "" {
			args = append(args, "--memprofile", l.memprofile+workload+".pprof")
		}
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	if runErr != nil {
		return result{}, fmt.Errorf("%s: %w", workload, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// compareSets prints both sets side by side and fails if any pair of values
// is further apart than the metric's bound; a bound below one part in a
// million marks an exact metric, whose values must be identical.
func compareSets(man manifest, a, b set) error {
	bad := 0
	fmt.Printf("%-12s %-24s %16s %16s %9s %9s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, d := range man.EndToEnd {
			x, y := a[w.name].Metrics[d.Name].Value, b[w.name].Metrics[d.Name].Value
			diff := math.Abs(x-y) / math.Abs(x)
			verdict := ""
			if (d.Bound < 1e-6 && x != y) || diff > d.Bound {
				verdict = "  OUTSIDE"
				bad++
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.Bound < 1e-6 {
				bound = "exact"
			}
			fmt.Printf("%-12s %-24s %16.6g %16.6g %8.2f%% %9s%s\n", w.name, d.Name, x, y, 100*diff, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound between two runs of the same code", bad)
	}
	return nil
}

// appendHistory adds one line to bench/history.jsonl: the trajectory of the
// end-to-end metrics across commits.
func appendHistory(o options, s set) error {
	type entry struct {
		Commit  string             `json:"commit"`
		Date    string             `json:"date"`
		Seed    int64              `json:"seed"`
		Seconds float64            `json:"seconds"`
		Nproc   int                `json:"nproc"`
		Go      string             `json:"go"`
		CPU     string             `json:"cpu"`
		Metrics map[string]metrics `json:"metrics"`
	}
	e := entry{Date: time.Now().UTC().Format(time.RFC3339), Seed: o.seed, Seconds: o.seconds,
		Nproc: nproc, Go: runtime.Version(), Metrics: map[string]metrics{}}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	for name, res := range s {
		e.Metrics[name] = res.Metrics
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join("bench", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
