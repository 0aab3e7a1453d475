package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
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

// TestParallelCompileDeterminism builds every workload twice at the same
// time, the second build in verify mode, and requires byte-identical images:
// neither a concurrent build (the service compiles many programs at once) nor
// IR validation at the pass boundaries may leak into the output. The image
// must also run like the reference interpreter.
func TestParallelCompileDeterminism(t *testing.T) {
	for _, w := range testmatrix.Programs(t, testmatrix.Kernels, testmatrix.MixedApp) {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var arts [2]*Artifact
			var errs [2]error
			var wg sync.WaitGroup
			for i, o := range []Options{{}, {Verify: true}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					arts[i], errs[i] = Build(context.Background(), w.Src, o)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
			}
			a, b := arts[0].Image(), arts[1].Image()
			ab, bb := imageBytes(t, a), imageBytes(t, b)
			if !bytes.Equal(ab, bb) {
				t.Fatalf("images differ between two builds (%d and %d bytes)", len(ab), len(bb))
			}
			if a.Entry != b.Entry || len(a.Instrs) != len(b.Instrs) {
				t.Fatalf("image layout differs: entry %d vs %d, %d vs %d instrs",
					a.Entry, b.Entry, len(a.Instrs), len(b.Instrs))
			}
			wantV, wantOut, err := Interpret(arts[0].Result())
			if err != nil {
				t.Fatal(err)
			}
			gotV, gotOut, _, err := runChecked(arts[0])
			if err != nil {
				t.Fatal(err)
			}
			if gotV != wantV || gotOut != wantOut {
				t.Fatalf("image diverges from the interpreter: exit %d vs %d, out %q vs %q", gotV, wantV, gotOut, wantOut)
			}
		})
	}
}

// TestStaticWeightsCompileDeterministically builds programs whose static
// weights are not binary fractions (a header's latches share its frequency)
// six times and requires one image fingerprint: trace selection sums the
// weights in a fixed order, so float rounding cannot reorder the seeds
// between two compiles.
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
				art, err := Build(context.Background(), p.Src, Options{})
				if err != nil {
					t.Fatal(err)
				}
				fp := art.Image().Fingerprint()
				if i == 0 {
					want = fp
				} else if fp != want {
					t.Fatalf("build %d has fingerprint %x, build 0 %x", i, fp[:8], want[:8])
				}
			}
		})
	}
}
