// Package testmatrix is the test matrix every matrix test ranges over: the
// named program corpora, the machine and optimisation-level axes, one
// compilation per (source, machine, options) per test process, and the one
// golden-file checker with its -update flag. Only _test.go files import it.
//
// A compiled result is shared by every test in the process that asks for the
// same cell, so it is read-only: a test that mutates an image clones it first.
package testmatrix

import (
	"bufio"
	"bytes"
	"context"
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
	"github.com/multiflow-repro/trace/internal/xp"
)

// A Program is one source of a corpus.
type Program struct {
	Corpus string // "examples", "testdata", "ledger", "xp" or "gen"
	Name   string // its name in the corpus: "daxpy", "mixed-app", "07"
	Src    string
}

// Key names the program across corpora: "examples/daxpy", "gen/07".
func (p Program) Key() string { return p.Corpus + "/" + p.Name }

// A Corpus lists its programs in a fixed order.
type Corpus func(t testing.TB) []Program

// The corpora.
var (
	Examples        = dir("examples", "examples")     // examples/*.mf
	Testdata        = dir("testdata", "testdata")     // testdata/*.mf
	Ledger          = dir("ledger", "bench/programs") // the benchmark ledger's programs
	Kernels         = workloads(xp.AllWorkloads()...) // the experiment kernels
	MixedApp        = workloads(xp.MixedApp())        // the multi-function application
	Gen      Corpus = gen                             // fuzz.Gen seeds 1..24, 1..6 under -short
)

// Matrix is the program axis of the golden matrix.
var Matrix = []Corpus{Examples, Kernels, MixedApp, Gen}

func gen(testing.TB) []Program {
	seeds := int64(24)
	if testing.Short() {
		seeds = 6
	}
	var progs []Program
	for seed := int64(1); seed <= seeds; seed++ {
		progs = append(progs, Program{"gen", fmt.Sprintf("%02d", seed), fuzz.Gen(seed)})
	}
	return progs
}

// Programs concatenates corpora in order.
func Programs(t testing.TB, corpora ...Corpus) []Program {
	var progs []Program
	for _, c := range corpora {
		progs = append(progs, c(t)...)
	}
	return progs
}

// Get returns the named program of the corpus.
func (c Corpus) Get(t testing.TB, name string) Program {
	t.Helper()
	for _, p := range c(t) {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no program %q in the corpus", name)
	return Program{}
}

func dir(corpus, path string) Corpus {
	return func(t testing.TB) []Program {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(root(t), path, "*.mf"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs in %s: %v", path, err)
		}
		sort.Strings(paths)
		var progs []Program
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, Program{corpus, strings.TrimSuffix(filepath.Base(p), ".mf"), string(src)})
		}
		return progs
	}
}

func workloads(ws ...xp.Workload) Corpus {
	return func(testing.TB) []Program {
		var progs []Program
		for _, w := range ws {
			progs = append(progs, Program{"xp", w.Name, w.Src})
		}
		return progs
	}
}

// root is the module's directory: the nearest one above the test's working
// directory that holds go.mod.
func root(t testing.TB) string {
	t.Helper()
	d, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			t.Fatal("no go.mod above the working directory")
		}
		d = filepath.Dir(d)
	}
}

// A Machine is a point of the machine axis.
type Machine struct {
	Name string // "Trace7", "Trace14", "Trace28"
	Cfg  mach.Config
}

// The machines, narrowest first.
var (
	Trace7   = Machine{"Trace7", mach.Trace7()}
	Trace14  = Machine{"Trace14", mach.Trace14()}
	Trace28  = Machine{"Trace28", mach.Trace28()}
	Machines = []Machine{Trace7, Trace14, Trace28}
)

// A Level is a point of the optimisation axis: opt.Level(N).
type Level struct {
	Name string // "O0", "O1", "O2"
	N    int
	Opt  opt.Options
}

// The levels. The golden matrix runs MatrixLevels.
var (
	O0           = level(0)
	O1           = level(1)
	O2           = level(2)
	Levels       = []Level{O0, O1, O2}
	MatrixLevels = []Level{O0, O2}
)

func level(n int) Level {
	o, _ := opt.Level(n) // n is 0, 1 or 2
	return Level{fmt.Sprintf("O%d", n), n, o}
}

type compileKey struct {
	src string
	cfg mach.Config
	opt opt.Options
}

type compiled struct {
	once sync.Once
	res  *core.Result
	err  error
}

var cache sync.Map // compileKey -> *compiled

// Compile is core.Compile of src for cfg at o (heuristic profile), done once
// per test process and shared by every caller. The result is read-only.
func Compile(src string, cfg mach.Config, o opt.Options) (*core.Result, error) {
	e, _ := cache.LoadOrStore(compileKey{src, cfg, o}, new(compiled))
	c := e.(*compiled)
	c.once.Do(func() {
		c.res, c.err = core.Compile(context.Background(), src, core.Options{Config: cfg, Opt: o})
	})
	return c.res, c.err
}

// MustCompile is Compile that fails the test on a compile error.
func MustCompile(t testing.TB, src string, cfg mach.Config, o opt.Options) *core.Result {
	t.Helper()
	res, err := Compile(src, cfg, o)
	if err != nil {
		t.Fatalf("compile for %s: %v", cfg.Name, err)
	}
	return res
}

var update = flag.Bool("update", false, "rewrite the golden files from this build")

// Lines is the content of a golden file of "key value" lines.
type Lines [][2]string

// Add appends a line.
func (l *Lines) Add(key, val string) { *l = append(*l, [2]string{key, val}) }

// CheckGolden holds got to the golden file at path line by line, or rewrites
// the file under -update. accept, when non-nil, may waive a mismatch.
func CheckGolden(t testing.TB, path string, got *Lines, accept func(want, got string) bool) {
	t.Helper()
	if *update {
		var b bytes.Buffer
		for _, kv := range *got {
			fmt.Fprintf(&b, "%s %s\n", kv[0], kv[1])
		}
		CheckFile(t, path, b.Bytes())
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
	if len(want) != len(*got) {
		t.Errorf("%s has %d entries, this build produced %d", path, len(want), len(*got))
	}
	diffs := 0
	for _, kv := range *got {
		k, g := kv[0], kv[1]
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in %s", k, path)
			continue
		}
		if w == g || (accept != nil && accept(w, g)) {
			continue
		}
		if diffs++; diffs <= 10 {
			t.Errorf("%s:\n  want %s\n  got  %s", k, w, g)
		}
	}
	if diffs > 10 {
		t.Errorf("... and %d more differing entries", diffs-10)
	}
}

// CheckFile holds got to the golden file at path byte for byte, or rewrites
// the file under -update.
func CheckFile(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this build's output (regenerate with -update if intended)\ngot:\n%s", path, got)
	}
}
