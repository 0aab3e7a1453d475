package safecheck_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/fuzz"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/xp"
)

// The golden matrix pins what the scheduler emits and what the analysis
// concludes, image by image: examples/*.mf, the experiment kernels and
// generated programs × Trace7/14/28 × O0/O2. A performance rewrite of either
// layer must reproduce both files byte for byte; regenerate only on a
// deliberate behaviour change, with
//
//	go test ./internal/safecheck -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

const goldenSeeds = 24

type goldenImage struct {
	key         string
	fingerprint string // "words=N fp=<sha256>", or "compile-error"
	verdicts    string // "exhausted=B sites=N proven=N hash=<sha256/128>", or ""
}

var goldenMatrix = sync.OnceValues(func() ([]goldenImage, error) {
	type program struct{ name, src string }
	var progs []program
	paths, err := filepath.Glob("../../examples/*.mf")
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no example programs found: %v", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		progs = append(progs, program{"examples/" + strings.TrimSuffix(filepath.Base(p), ".mf"), string(src)})
	}
	for _, w := range append(xp.AllWorkloads(), xp.MixedApp()) {
		progs = append(progs, program{"xp/" + w.Name, w.Src})
	}
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		progs = append(progs, program{fmt.Sprintf("gen/%02d", seed), fuzz.Gen(seed)})
	}
	configs := []struct {
		name string
		cfg  mach.Config
	}{{"Trace7", mach.Trace7()}, {"Trace14", mach.Trace14()}, {"Trace28", mach.Trace28()}}
	levels := []struct {
		name string
		opt  opt.Options
	}{{"O0", opt.None()}, {"O2", opt.Default()}}

	var out []goldenImage
	for _, p := range progs {
		for _, c := range configs {
			for _, lv := range levels {
				g := goldenImage{key: p.name + "/" + c.name + "/" + lv.name}
				res, err := core.Compile(context.Background(), p.src,
					core.Options{Config: c.cfg, Opt: lv.opt})
				if err != nil {
					g.fingerprint = "compile-error"
					out = append(out, g)
					continue
				}
				g.fingerprint = fmt.Sprintf("words=%d fp=%x", len(res.Image.Instrs), res.Image.Fingerprint())
				rep := safecheck.Analyze(res.Image, safecheck.Options{})
				h := sha256.New()
				for i := range rep.Sites {
					s := &rep.Sites[i]
					fmt.Fprintf(h, "%d|%d|%s|%d|%t|%s\n", s.Word, s.Beat, s.Unit, s.Kind, s.Proven, s.Detail)
				}
				g.verdicts = fmt.Sprintf("exhausted=%t sites=%d proven=%d hash=%x",
					rep.Exhausted, len(rep.Sites), rep.Proven(), h.Sum(nil)[:16])
				out = append(out, g)
			}
		}
	}
	return out, nil
})

// checkGolden compares "key value" lines against testdata/<file>, or rewrites
// the file under -update. accept, when non-nil, may waive a mismatch.
func checkGolden(t *testing.T, file string, got map[string]string, keys []string, accept func(want, got string) bool) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		var b bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d images)", path, len(keys))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), " ")
		want[k] = v
	}
	if len(want) != len(keys) {
		t.Errorf("%s has %d images, this build produced %d", path, len(want), len(keys))
	}
	diffs := 0
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in %s", k, path)
			continue
		}
		if w == got[k] || (accept != nil && accept(w, got[k])) {
			continue
		}
		if diffs++; diffs <= 10 {
			t.Errorf("%s:\n  want %s\n  got  %s", k, w, got[k])
		}
	}
	if diffs > 10 {
		t.Errorf("... and %d more differing images", diffs-10)
	}
}

// TestImageFingerprintsGolden pins the linked image of every matrix entry:
// same schedule, same encoding, same layout.
func TestImageFingerprintsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short mode")
	}
	imgs, err := goldenMatrix()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	var keys []string
	for _, g := range imgs {
		got[g.key] = g.fingerprint
		keys = append(keys, g.key)
	}
	checkGolden(t, "fingerprints.golden", got, keys, nil)
}

// TestVerdictsGolden pins every Site verdict (word, beat, unit, kind, proven,
// detail) of every matrix entry. The one tolerated drift is the transfer
// budget: an image whose golden analysis exhausted the budget may finish now
// (Options.MaxVisits counts transfers actually executed, and fewer are
// needed); an image that used to finish must never exhaust.
func TestVerdictsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short mode")
	}
	imgs, err := goldenMatrix()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	var keys []string
	for _, g := range imgs {
		if g.verdicts == "" {
			continue
		}
		got[g.key] = g.verdicts
		keys = append(keys, g.key)
	}
	checkGolden(t, "verdicts.golden", got, keys, func(want, got string) bool {
		return strings.HasPrefix(want, "exhausted=true ") && strings.HasPrefix(got, "exhausted=false ")
	})
}
