package trace

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// TestLedgerProgramsMatchExpect builds every program the benchmark ledger
// runs (bench/programs: the kernels and the generated programs, which are
// the ones with nested calls, float returns and syscalls in loops) with the
// default options and holds its exit value and output, on the checked and
// the native tier, to the .expect file beside it — the reference
// interpreter's answer, frozen with the program. The files are only read.
func TestLedgerProgramsMatchExpect(t *testing.T) {
	for _, p := range testmatrix.Ledger(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			expect, err := os.ReadFile("bench/programs/" + p.Name + ".expect")
			if err != nil {
				t.Fatal(err)
			}
			head, wantOut, _ := strings.Cut(string(expect), "\n")
			wantExit, err := strconv.ParseInt(strings.TrimPrefix(head, "exit "), 10, 32)
			if err != nil || !strings.HasPrefix(head, "exit ") {
				t.Fatalf("expect file: first line %q is not \"exit N\"", head)
			}
			ctx := context.Background()
			art, err := Build(ctx, p.Src, Options{})
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

// TestLedgerSimGolden records what the simulated machine does with every
// ledger program built with the default options: beats, instructions and
// operations of a checked run, packed code bytes, and the §8.4 rung the
// compile settled on: pressure retries of the whole program / the tightest
// trace-length cap a function took (0/0: neither). A change to the compiler or the
// machine that moves any of them shows per program, under -update, in the
// diff of testdata/ledger_sim.golden.
func TestLedgerSimGolden(t *testing.T) {
	progs := testmatrix.Ledger(t)
	lines := make([]string, len(progs))
	t.Run("programs", func(t *testing.T) {
		for i, p := range progs {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				art, err := Build(ctx, p.Src, Options{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				got, err := art.Run(ctx, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				_, packed, _ := art.Image().CodeSizes()
				capped := 0 // the tightest trace-length cap any function took
				for _, fc := range art.Result().Funcs {
					if fc.TraceCap > 0 && (capped == 0 || fc.TraceCap < capped) {
						capped = fc.TraceCap
					}
				}
				st := got.Stats
				lines[i] = fmt.Sprintf("beats=%d instrs=%d ops=%d packed=%d rung=%d/%d",
					st.Beats, st.Instrs, st.Ops, packed, art.Result().Attempts-1, capped)
			})
		}
	})
	var got testmatrix.Lines
	for i, p := range progs {
		got.Add(p.Name, lines[i])
	}
	testmatrix.CheckGolden(t, "testdata/ledger_sim.golden", &got, nil)
}

// TestLedgerHasNoUnreachableWords: no ledger program, built with the default
// options, carries a word schedcheck finds no path to — functions every call
// of which was inlined are not compiled, and no block is laid out that
// control never enters.
func TestLedgerHasNoUnreachableWords(t *testing.T) {
	for _, p := range testmatrix.Ledger(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			art, err := Build(context.Background(), p.Src, Options{})
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
