package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
)

// TestBeatProfileAddsUp: -beats' per-word accounting of sort (bank stalls,
// refills and TLB traps included) sums to the run's beats, its stall column
// to the beats the schedule did not plan, its runs to the instructions — and
// every counter of the run equals that of a run without the hook.
func TestBeatProfileAddsUp(t *testing.T) {
	src, err := os.ReadFile("../../bench/programs/sort.mf")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	art, err := core.Build(ctx, string(src), core.Options{Config: mach.Trace28(), Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	plain := art.Machine()
	if _, _, err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	m := art.Machine()
	p := profileBeats(m, art.Image())
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	p.finish()
	if m.Stats != plain.Stats {
		t.Fatalf("counters under -beats %+v, without %+v", m.Stats, plain.Stats)
	}
	var beats, stall, runs int64
	for _, w := range p.words {
		beats += w.beats
		stall += w.stall
		runs += w.runs
	}
	st := m.Stats
	if beats != st.Beats || runs != st.Instrs {
		t.Errorf("words sum to %d beats in %d runs; the run took %d beats, %d instructions", beats, runs, st.Beats, st.Instrs)
	}
	if want := st.BankStalls + st.TrapBeats + st.RefillBeats + st.InterruptBeats; stall != want || st.BankStalls == 0 {
		t.Errorf("words stall %d beats; the run has %d unplanned (%d bank-stall)", stall, want, st.BankStalls)
	}
	var out bytes.Buffer
	p.report(&out, 3, art.Image(), art.Result().Funcs)
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 5 || !strings.Contains(lines[2], "main") {
		t.Errorf("report:\n%s", out.String())
	}
}
