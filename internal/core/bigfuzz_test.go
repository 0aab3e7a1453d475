package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
)

// TestBigFuzz is the extended 400-trial version of TestFuzzDifferential.
func TestBigFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("extended fuzz skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99991))
	cfgs := []mach.Config{mach.Trace7(), mach.Trace14(), mach.Trace28(), mach.IdealConfig(2)}
	for trial := 0; trial < 400; trial++ {
		src := genProgram(rng)
		ref, err := Compile(context.Background(), src, Options{Config: mach.Trace7(), Opt: opt.None()})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		wantV, wantOut, werr := Interpret(ref)
		if werr != nil {
			continue
		}
		cfg := cfgs[trial%len(cfgs)]
		level := opt.Options{Inline: trial%2 == 0, UnrollFactor: 1 + rng.Intn(8)}
		res, err := Compile(context.Background(), src, Options{Config: cfg, Opt: level, ProfileRun: trial%2 == 1})
		if err != nil {
			t.Fatalf("trial %d [%s u%d]: compile: %v\n%s", trial, cfg.Name, level.UnrollFactor, err, src)
		}
		gotV, gotOut, _, err := runChecked(res)
		if err != nil {
			t.Fatalf("trial %d [%s u%d i%v p%d]: simulate: %v\n%s", trial, cfg.Name, level.UnrollFactor, level.Inline, trial%2, err, src)
		}
		if gotV != wantV || gotOut != wantOut {
			t.Fatalf("trial %d [%s u%d i%v p%d]: divergence exit %d vs %d out %q vs %q\n%s",
				trial, cfg.Name, level.UnrollFactor, level.Inline, trial%2, gotV, wantV, gotOut, wantOut, src)
		}
	}
}
