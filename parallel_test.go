package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// imageBytes serializes everything the machine executes from an image — the
// fixed-width words and the §6.5.1 packed stream — so two compilations can
// be compared for bit-exact equality.
func imageBytes(t *testing.T, img *isa.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, words := range img.Words {
		for _, w := range words {
			if err := binary.Write(&buf, binary.LittleEndian, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range img.Packed {
		if err := binary.Write(&buf, binary.LittleEndian, w); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelCompileDeterminism compiles every workload with a sequential
// backend and with an 8-worker pool and requires byte-identical images: the
// per-function fan-out must not leak scheduling order into the output.
func TestParallelCompileDeterminism(t *testing.T) {
	for _, w := range testmatrix.Programs(t, testmatrix.Kernels, testmatrix.MixedApp) {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := Build(context.Background(), w.Src, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("sequential compile: %v", err)
			}
			par, err := Build(context.Background(), w.Src, Options{Parallelism: 8})
			if err != nil {
				t.Fatalf("parallel compile: %v", err)
			}
			sb, pb := imageBytes(t, seq.Image()), imageBytes(t, par.Image())
			if !bytes.Equal(sb, pb) {
				t.Fatalf("images differ between Parallelism=1 (%d bytes) and Parallelism=8 (%d bytes)", len(sb), len(pb))
			}
			if seq.Image().Entry != par.Image().Entry || len(seq.Image().Instrs) != len(par.Image().Instrs) {
				t.Fatalf("image layout differs: entry %d vs %d, %d vs %d instrs",
					seq.Image().Entry, par.Image().Entry, len(seq.Image().Instrs), len(par.Image().Instrs))
			}
		})
	}
}

// TestStaticWeightsCompileDeterministically builds programs whose static
// weights are not binary fractions (a header's latches share its frequency)
// several times, sequentially and on four workers, and requires one image
// fingerprint: trace selection sums the weights in a fixed order, so float
// rounding cannot reorder the seeds between two compiles.
func TestStaticWeightsCompileDeterministically(t *testing.T) {
	progs := []testmatrix.Program{
		testmatrix.Gen.Get(t, "02"),
		testmatrix.Ledger.Get(t, "sort"),
		testmatrix.Ledger.Get(t, "scanner"),
	}
	for _, p := range progs {
		t.Run(p.Key(), func(t *testing.T) {
			t.Parallel()
			var want [32]byte
			for i := 0; i < 6; i++ {
				art, err := Build(context.Background(), p.Src, Options{Parallelism: 1 + 3*(i%2)})
				if err != nil {
					t.Fatal(err)
				}
				fp := art.Image().Fingerprint()
				if i == 0 {
					want = fp
				} else if fp != want {
					t.Fatalf("build %d (Parallelism %d) has fingerprint %x, build 0 %x", i, 1+3*(i%2), fp[:8], want[:8])
				}
			}
		})
	}
}

// TestParallelCompileRuns sanity-checks that a parallel-compiled image
// actually executes: compile the multi-function app with the worker pool
// and diff simulator output against the reference interpreter.
func TestParallelCompileRuns(t *testing.T) {
	w := testmatrix.MixedApp(t)[0]
	res, err := Build(context.Background(), w.Src, Options{Parallelism: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	wantV, wantOut, err := Interpret(res.Result())
	if err != nil {
		t.Fatal(err)
	}
	gotV, gotOut, _, err := runChecked(res)
	if err != nil {
		t.Fatal(err)
	}
	if gotV != wantV || gotOut != wantOut {
		t.Fatalf("parallel-compiled image diverges: exit %d vs %d, out %q vs %q", gotV, wantV, gotOut, wantOut)
	}
}
