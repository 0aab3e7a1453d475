package xp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Tier selects the execution tier every workload simulation runs on
// (checked, fast, safe, or native). cmd/tracebench sets it from -tier;
// every table is identical at every setting (no tier changes timing).
var Tier vliw.Tier

// Table is one experiment's output: rows of measurements plus the paper
// claim the shape is checked against.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Headers    []string
	Rows       [][]string
	Notes      []string
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&b, "   paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	b.WriteString("   ")
	line(t.Headers)
	b.WriteString("   ")
	line(dashes(widths))
	for _, r := range t.Rows {
		b.WriteString("   ")
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Experiment is a registered experiment. Run takes the harness context:
// canceling it (cmd/tracebench wires SIGINT) stops the experiment at the
// next compile-pass or simulation-check boundary.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context) ([]*Table, error)
}

// Registry returns every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"f1", "Ideal VLIW (Figure 1) vs. the real partitioned machine", ExpF1},
		{"e1", "Trace-scheduled VLIW speedup over the scalar machine", ExpE1},
		{"e2", "Scoreboard machine: the basic-block ceiling", ExpE2},
		{"e3", "Code size (Section 9)", ExpE3},
		{"e4", "Interleaved memory, disambiguation, and the bank-stall gamble", ExpE4},
		{"e5", "Peak and achieved rates (Section 6.3)", ExpE5},
		{"e6", "Instruction cache and mask-word refill (Section 6.5)", ExpE6},
		{"e7", "Context switch cost (Section 8.1)", ExpE7},
		{"e8", "Multiway branch (Section 6.5.2)", ExpE8},
		{"e9", "Speculative non-trapping loads (Section 7)", ExpE9},
		{"e10", "Compensation code and code growth vs. unrolling", ExpE10},
		{"e11", "TLB misses and history-queue trap replay (Section 6.4.3)", ExpE11},
		{"e12", "Systems code on a VLIW (Section 8.4)", ExpE12},
		{"e13", "Ablation: trace scheduling vs basic-block compaction (Section 10)", ExpE13},
		{"e14", "Heuristics or profiling: static weights vs. the program's own profile (Section 4)", ExpE14},
	}
}

// RunByID runs one experiment ("e1".."e14", "f1") or all of them ("all").
func RunByID(ctx context.Context, id string) ([]*Table, error) {
	if id == "all" {
		var out []*Table
		for _, e := range Registry() {
			ts, err := e.Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
			out = append(out, ts...)
		}
		return out, nil
	}
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(ctx)
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("unknown experiment %q (have %s, all)", id, strings.Join(ids, ", "))
}

// runOn compiles and simulates a workload, returning the run statistics.
func runOn(ctx context.Context, w Workload, cfg mach.Config, lvl opt.Options, profRun bool) (*vliw.Stats, *core.Result, error) {
	art, err := core.Build(ctx, w.Src, core.Options{Config: cfg, Opt: lvl, ProfileRun: profRun})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	wantV, wantOut, err := core.Interpret(art.Result())
	if err != nil {
		return nil, nil, fmt.Errorf("%s: interpret: %w", w.Name, err)
	}
	run, err := art.Run(ctx, core.RunOptions{Tier: Tier})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: simulate: %w", w.Name, err)
	}
	if run.Exit != wantV || run.Output != wantOut {
		return nil, nil, fmt.Errorf("%s: simulator diverged from reference (%d vs %d)", w.Name, run.Exit, wantV)
	}
	st := run.Stats
	return &st, art.Result(), nil
}

func scalarBeats(w Workload, cfg mach.Config) (baseline.Result, error) {
	prog, err := lang.Compile(w.Src)
	if err != nil {
		return baseline.Result{}, err
	}
	r, _, _, err := baseline.Scalar(prog, cfg)
	return r, err
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
func i64(v int64) string   { return fmt.Sprintf("%d", v) }
