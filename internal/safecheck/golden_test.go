package safecheck_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// The golden matrix pins what the scheduler emits and what the analysis
// concludes, image by image: testmatrix.Matrix × Trace 7/14/28 × O0/O2. A
// performance rewrite of either layer must reproduce both files byte for
// byte; regenerate only on a deliberate behaviour change, with
//
//	go test ./internal/safecheck -run Golden -update

// eachGoldenImage hands visit the key and the image (nil for a compile error)
// of every cell of the golden matrix.
func eachGoldenImage(t *testing.T, visit func(key string, img *isa.Image)) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short mode")
	}
	for _, p := range testmatrix.Programs(t, testmatrix.Matrix...) {
		for _, m := range testmatrix.Machines {
			for _, lv := range testmatrix.MatrixLevels {
				var img *isa.Image
				if res, err := testmatrix.Compile(p.Src, m.Cfg, lv.Opt); err == nil {
					img = res.Image
				}
				visit(p.Key()+"/"+m.Name+"/"+lv.Name, img)
			}
		}
	}
}

// TestImageFingerprintsGolden pins the linked image of every matrix entry:
// same schedule, same encoding, same layout.
func TestImageFingerprintsGolden(t *testing.T) {
	var got testmatrix.Lines
	eachGoldenImage(t, func(key string, img *isa.Image) {
		if img == nil {
			got.Add(key, "compile-error")
		} else {
			got.Add(key, fmt.Sprintf("words=%d fp=%x", len(img.Instrs), img.Fingerprint()))
		}
	})
	testmatrix.CheckGolden(t, "testdata/fingerprints.golden", &got, nil)
}

// TestVerdictsGolden pins every Site verdict (word, beat, unit, kind, proven,
// detail) of every matrix entry. The one tolerated drift is the transfer
// budget: an image whose golden analysis exhausted the budget may finish now
// (Options.MaxVisits counts the transfers the fixpoint executes, and a
// cheaper fixpoint needs fewer); an image that used to finish must never
// exhaust.
func TestVerdictsGolden(t *testing.T) {
	var got testmatrix.Lines
	eachGoldenImage(t, func(key string, img *isa.Image) {
		if img == nil {
			return
		}
		rep := safecheck.Analyze(img, safecheck.Options{})
		h := sha256.New()
		for i := range rep.Sites {
			s := &rep.Sites[i]
			fmt.Fprintf(h, "%d|%d|%s|%d|%t|%s\n", s.Word, s.Beat, s.Unit, s.Kind, s.Proven, s.Detail)
		}
		got.Add(key, fmt.Sprintf("exhausted=%t sites=%d proven=%d hash=%x",
			rep.Exhausted, len(rep.Sites), rep.Proven(), h.Sum(nil)[:16]))
	})
	testmatrix.CheckGolden(t, "testdata/verdicts.golden", &got, func(want, got string) bool {
		return strings.HasPrefix(want, "exhausted=true ") && strings.HasPrefix(got, "exhausted=false ")
	})
}
