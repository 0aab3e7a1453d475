package trace

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLedgerProgramsMatchExpect builds every program the benchmark ledger
// runs (bench/programs: the kernels and the generated programs, which are
// the ones with nested calls, float returns and syscalls in loops) with the
// default options and holds its exit value and output, on the checked and
// the native tier, to the .expect file beside it — the reference
// interpreter's answer, frozen with the program. The files are only read.
func TestLedgerProgramsMatchExpect(t *testing.T) {
	for _, mf := range ledgerPrograms(t) {
		mf := mf
		t.Run(strings.TrimSuffix(filepath.Base(mf), ".mf"), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(mf)
			if err != nil {
				t.Fatal(err)
			}
			expect, err := os.ReadFile(strings.TrimSuffix(mf, ".mf") + ".expect")
			if err != nil {
				t.Fatal(err)
			}
			head, wantOut, _ := strings.Cut(string(expect), "\n")
			wantExit, err := strconv.ParseInt(strings.TrimPrefix(head, "exit "), 10, 32)
			if err != nil || !strings.HasPrefix(head, "exit ") {
				t.Fatalf("expect file: first line %q is not \"exit N\"", head)
			}
			ctx := context.Background()
			art, err := Build(ctx, string(src), Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, tier := range []Tier{TierChecked, TierNative} {
				got, err := art.Run(ctx, RunOptions{Tier: tier})
				if err != nil {
					t.Fatalf("%s: %v", tier, err)
				}
				if got.Exit != int32(wantExit) || got.Output != wantOut {
					t.Errorf("%s: exit %d, output %q; want exit %d, output %q", tier, got.Exit, got.Output, wantExit, wantOut)
				}
			}
		})
	}
}

// TestLedgerHasNoUnreachableWords: no ledger program, built with the default
// options, carries a word schedcheck finds no path to — functions every call
// of which was inlined are not compiled, and no block is laid out that
// control never enters.
func TestLedgerHasNoUnreachableWords(t *testing.T) {
	for _, mf := range ledgerPrograms(t) {
		mf := mf
		t.Run(strings.TrimSuffix(filepath.Base(mf), ".mf"), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(mf)
			if err != nil {
				t.Fatal(err)
			}
			art, err := Build(context.Background(), string(src), Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, f := range art.Lint().Findings {
				if f.Check == "unreachable" {
					t.Errorf("%s", f.String())
				}
			}
		})
	}
}

// ledgerPrograms lists the programs the benchmark ledger runs.
func ledgerPrograms(t *testing.T) []string {
	mfs, err := filepath.Glob("bench/programs/*.mf")
	if err != nil || len(mfs) == 0 {
		t.Fatalf("no ledger programs found: %v", err)
	}
	return mfs
}
