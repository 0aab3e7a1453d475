package safecheck_test

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// compileExample compiles examples/<name>.mf for Trace 14 at lv.
func compileExample(t *testing.T, name string, lv testmatrix.Level) *core.Result {
	t.Helper()
	return testmatrix.MustCompile(t, testmatrix.Examples.Get(t, name).Src, mach.Trace14(), lv.Opt)
}

func analyzeExample(t *testing.T, name string, lv testmatrix.Level) *safecheck.Report {
	t.Helper()
	res := compileExample(t, name, lv)
	return safecheck.Analyze(res.Image, safecheck.Options{
		Src: schedcheck.NewSourceMap(res.Image, res.Funcs),
	})
}

// The example programs are the precision regression suite: loop-bound
// recovery (rotated counters, unrolled bodies, compare results routed
// through the integer bank) must keep proving these site counts.
func TestExampleSiteCoverage(t *testing.T) {
	// minProven floors are what the analysis proves today; allProven pins
	// full coverage where it exists. fib is recursive: return addresses flow
	// through indirect jumps the analysis cannot bound, so only its
	// straight-line prologue site is provable.
	want := map[string]map[string]struct {
		minProven int
		allProven bool
	}{
		"daxpy":  {"O0": {6, true}, "O1": {30, true}, "O2": {80, true}},
		"matmul": {"O0": {9, true}, "O1": {43, false}, "O2": {145, false}},
		"sieve":  {"O0": {4, false}, "O1": {16, false}, "O2": {42, false}},
		"fib":    {"O0": {1, false}, "O1": {1, false}, "O2": {1, false}},
	}
	for ex, perLevel := range want {
		for _, lv := range testmatrix.Levels {
			rep := analyzeExample(t, ex, lv)
			w := perLevel[lv.Name]
			t.Logf("%s/%s: %s", ex, lv.Name, rep.Summary())
			if rep.Exhausted {
				t.Errorf("%s/%s: analysis budget exhausted", ex, lv.Name)
			}
			if got := rep.Proven(); got < w.minProven {
				t.Errorf("%s/%s: proved %d/%d sites, want >= %d",
					ex, lv.Name, got, rep.Total(), w.minProven)
			}
			if w.allProven && !rep.AllProven() {
				t.Errorf("%s/%s: want every site proven; unproven:", ex, lv.Name)
				for _, s := range rep.Unproven() {
					t.Errorf("    %s", s.String())
				}
			}
		}
	}
}

// TestNarrowMachineConstInRegister pins the narrow-machine precision case:
// the 1-pair TRACE 7/200 has too few immediate slots per word, so the
// scheduler materializes loop strides and bounds into registers ("add i14,
// i22" where i22 always holds 1). The affine bookkeeping must see through
// registers with exact abstract values or every rotated loop on a narrow
// machine loses its bound and no memory site proves.
func TestNarrowMachineConstInRegister(t *testing.T) {
	src := testmatrix.Examples.Get(t, "daxpy").Src
	for _, lv := range []struct {
		testmatrix.Level
		minProven int
		allProven bool
	}{
		{testmatrix.O0, 6, true},
		// Every site of the unrolled narrow-machine loops proves: the loop
		// bounds reach the counters through branch bits that test I-bank
		// compare results, whose registers the allocator reuses at once.
		// The floor leaves room for allocations that break an equality.
		{testmatrix.O2, 75, false},
	} {
		res := testmatrix.MustCompile(t, src, mach.Trace7(), lv.Opt)
		rep := safecheck.Analyze(res.Image, safecheck.Options{
			Src: schedcheck.NewSourceMap(res.Image, res.Funcs),
		})
		t.Logf("daxpy/Trace7/%s: %s", lv.Name, rep.Summary())
		if got := rep.Proven(); got < lv.minProven {
			t.Errorf("daxpy/Trace7/%s: proved %d/%d sites, want >= %d",
				lv.Name, got, rep.Total(), lv.minProven)
		}
		if lv.allProven && !rep.AllProven() {
			t.Errorf("daxpy/Trace7/%s: want every site proven; unproven:", lv.Name)
			for _, s := range rep.Unproven() {
				t.Errorf("    %s", s.String())
			}
		}
	}
}

func TestSiteAttribution(t *testing.T) {
	rep := analyzeExample(t, "daxpy", testmatrix.O0)
	if rep.Total() == 0 {
		t.Fatal("daxpy has no guarded sites")
	}
	for _, s := range rep.Sites {
		if s.Func == "" {
			t.Errorf("site %s has no function attribution", s.String())
		}
		if s.Word < 0 || s.Word >= rep.Words {
			t.Errorf("site %s outside image", s.String())
		}
	}
}

func TestCertifyGradesAndBitmask(t *testing.T) {
	res := compileExample(t, "daxpy", testmatrix.O2)
	cert, err := safecheck.Certify(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Level() != safecheck.CertSafe {
		t.Fatalf("Level() = %v, want CertSafe", cert.Level())
	}
	if cert.CertifiedImage() != res.Image {
		t.Fatal("certificate does not identify the image")
	}
	proven, total := cert.ProvenSites()
	if proven != total || proven == 0 {
		t.Fatalf("daxpy O2: proven %d/%d, want full coverage", proven, total)
	}
	// the bitmask must agree with the report, site by site
	for _, s := range cert.Report().Sites {
		want := s.Exec() && s.Proven
		if got := cert.SafeSite(s.Word, s.Unit, uint8(s.Beat)); got != want {
			t.Errorf("SafeSite(%d,%v,%d) = %v, want %v", s.Word, s.Unit, s.Beat, got, want)
		}
	}
	if cert.SafeSite(len(res.Image.Instrs)+7, mach.Unit{}, 0) {
		t.Error("SafeSite must be false for a site that does not exist")
	}
}

func TestCertifyRequiresMatchingResourceCert(t *testing.T) {
	a := compileExample(t, "daxpy", testmatrix.O0)
	b := compileExample(t, "sieve", testmatrix.O0)
	rep := safecheck.Analyze(a.Image, safecheck.Options{})
	if _, err := rep.Certify(nil); err == nil {
		t.Fatal("Certify(nil) must fail")
	}
	wrong, err := schedcheck.Certify(b.Image)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Certify(wrong); err == nil {
		t.Fatal("Certify with a different image's resource cert must fail")
	}
}

func TestBudgetExhaustionIsSound(t *testing.T) {
	res := compileExample(t, "matmul", testmatrix.O2)
	rep := safecheck.Analyze(res.Image, safecheck.Options{MaxVisits: 1})
	if !rep.Exhausted {
		t.Fatal("one visit must exhaust the budget")
	}
	if rep.Proven() != 0 {
		t.Fatalf("exhausted analysis proved %d sites, want 0", rep.Proven())
	}
	if rep.Total() == 0 {
		t.Fatal("exhausted analysis must still enumerate every site")
	}
}

// TestTransferCeilings pins the analysis work, in word transfers executed, on
// the three kernels the cold-path benchmarks use (Trace 28/200, O2). The
// counter repeats exactly, so this is the regression floor a wall-clock
// number cannot be: descending sweeps that went back to re-transferring every
// reachable word every round would cost NarrowRounds × words — 3–5× these
// ceilings — and fail here, not in a noisy benchmark. Ceilings are what the
// analysis needs today plus ~20 %.
func TestTransferCeilings(t *testing.T) {
	ceilings := map[string]int{"fft": 46000, "matmul": 6800, "scanner": 12600}
	for _, w := range testmatrix.Kernels(t) {
		ceiling, ok := ceilings[w.Name]
		if !ok {
			continue
		}
		res := testmatrix.MustCompile(t, w.Src, mach.Trace28(), testmatrix.O2.Opt)
		rep := safecheck.Analyze(res.Image, safecheck.Options{})
		words := len(res.Image.Instrs)
		t.Logf("%s: %d words, %d transfers, %d narrowing rounds", w.Name, words, rep.Transfers, rep.NarrowRounds)
		if rep.Exhausted {
			t.Errorf("%s: analysis budget exhausted", w.Name)
		}
		if rep.Transfers > ceiling {
			t.Errorf("%s: %d transfers, ceiling %d (a full re-sweep per round would be %d)",
				w.Name, rep.Transfers, ceiling, rep.NarrowRounds*words)
		}
		delete(ceilings, w.Name)
	}
	for name := range ceilings {
		t.Errorf("kernel %s not found in testmatrix.Kernels", name)
	}
}
