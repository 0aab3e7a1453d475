package safecheck_test

import (
	"slices"
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
// through the integer bank) must keep these sites proven. The ceilings are
// on unproven sites, which the compiler cannot lower by removing sites (a
// divide by a constant it turns into shifts is a site gone, proven or not):
// 0 is full coverage. fib is recursive: return addresses flow through
// indirect jumps the analysis cannot bound, so only its straight-line
// prologue site is provable. sieve's unproven sites are the same at every
// level since flow-conserving trace weights reshaped it.
func TestExampleSiteCoverage(t *testing.T) {
	maxUnproven := map[string]map[string]int{
		"daxpy":  {"O0": 0, "O1": 0, "O2": 0},
		"matmul": {"O0": 0, "O1": 0, "O2": 0},
		"sieve":  {"O0": 1, "O1": 4, "O2": 8},
		"fib":    {"O0": 14, "O1": 14, "O2": 14},
	}
	for ex, perLevel := range maxUnproven {
		for _, lv := range testmatrix.Levels {
			rep := analyzeExample(t, ex, lv)
			t.Logf("%s/%s: %s", ex, lv.Name, rep.Summary())
			if rep.Exhausted {
				t.Errorf("%s/%s: analysis budget exhausted", ex, lv.Name)
			}
			if rep.Proven() == 0 {
				t.Errorf("%s/%s: no site proven", ex, lv.Name)
			}
			if got, max := rep.Total()-rep.Proven(), perLevel[lv.Name]; got > max {
				t.Errorf("%s/%s: %d of %d sites unproven, want <= %d:", ex, lv.Name, got, rep.Total(), max)
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

// TestFixpointConverges is the evidence that the analysis runs its
// descending phase to the end rather than stopping at a cap: on every ledger
// program and experiment kernel (Trace 28/200, O2), recomputing any reachable
// word's entry state from its predecessors, without widening, changes
// nothing.
func TestFixpointConverges(t *testing.T) {
	for _, p := range testmatrix.Programs(t, testmatrix.Ledger, testmatrix.Kernels) {
		res := testmatrix.MustCompile(t, p.Src, mach.Trace28(), testmatrix.O2.Opt)
		exhausted, words := safecheck.Unconverged(res.Image)
		switch {
		case exhausted:
			t.Errorf("%s: analysis budget exhausted", p.Key())
		case len(words) > 0:
			t.Errorf("%s: one more step changes the entry state of %d words, first word %d", p.Key(), len(words), words[0])
		}
	}
}

// TestBlocksPartitionReachableWords holds the blocks the fixpoint keeps
// states between to their definition, read off the CFG schedcheck builds, on
// every ledger program and experiment kernel (Trace 28/200, O2): they are runs
// of consecutive words that partition the reachable words, and a word inside
// one is neither the image entry nor a component head, and is entered by one
// edge, the plain fallthrough from the word before: that word's only
// successor, with no branch, call, return or halt, and no jump but to it.
func TestBlocksPartitionReachableWords(t *testing.T) {
	inner, words := 0, 0
	for _, p := range testmatrix.Programs(t, testmatrix.Ledger, testmatrix.Kernels) {
		img := testmatrix.MustCompile(t, p.Src, mach.Trace28(), testmatrix.O2.Opt).Image
		succ, reachable := schedcheck.CFG(img)
		preds := make([][]int, len(succ))
		for w, ss := range succ {
			for i, s := range ss {
				if s >= 0 && s < len(succ) && !slices.Contains(ss[:i], s) {
					preds[s] = append(preds[s], w)
				}
			}
		}
		falls := func(w int) bool {
			for _, s := range img.Instrs[w].Slots {
				jumpsOn := s.Op.Kind == mach.OpJmp && s.Op.Target == w+1
				if s.Unit.Kind == mach.UBR && s.Op.Kind != mach.OpSyscall && !jumpsOn {
					return false
				}
			}
			return slices.Equal(succ[w], []int{w + 1})
		}
		blocks, heads := safecheck.Blocks(img)
		covered := make([]bool, len(img.Instrs))
		next := 0
		for _, b := range blocks {
			if b[0] < next || b[1] < b[0] {
				t.Fatalf("%s: block %v overlaps or precedes the one before", p.Key(), b)
			}
			for w := b[0]; w <= b[1]; w++ {
				covered[w] = true
				if w == b[0] {
					continue
				}
				inner++
				switch {
				case w == img.Entry:
					t.Errorf("%s: block %v: the image entry %d is inside it", p.Key(), b, w)
				case slices.Contains(heads, w):
					t.Errorf("%s: block %v: component head %d is inside it", p.Key(), b, w)
				case !slices.Equal(preds[w], []int{w - 1}):
					t.Errorf("%s: block %v: word %d has predecessors %v", p.Key(), b, w, preds[w])
				case !falls(w - 1):
					t.Errorf("%s: block %v: word %d is not a plain fallthrough to %d", p.Key(), b, w-1, w)
				}
			}
			next = b[1] + 1
		}
		for w := range covered {
			if reachable[w] {
				words++
			}
			if covered[w] != reachable[w] {
				t.Errorf("%s: word %d reachable %t, in a block %t", p.Key(), w, reachable[w], covered[w])
			}
		}
	}
	t.Logf("%d of %d reachable words are inside a block", inner, words)
}

// TestTransferCeilings pins the analysis work, in word transfers executed, on
// the three kernels the cold-path benchmarks use and over the whole ledger
// (Trace 28/200, O2). The counter repeats exactly, so this is the regression
// floor a wall-clock number cannot be: sweep-style narrowing, which
// re-transfers every predecessor of every word a round rebuilds, costs
// 1.2–2.1× these ceilings on the same programs and fails here, not in a noisy
// benchmark. Ceilings are what the analysis needs today plus ~20 %.
func TestTransferCeilings(t *testing.T) {
	ceilings := map[string]int{"fft": 17000, "matmul": 1750, "scanner": 4600}
	for _, w := range testmatrix.Kernels(t) {
		ceiling, ok := ceilings[w.Name]
		if !ok {
			continue
		}
		res := testmatrix.MustCompile(t, w.Src, mach.Trace28(), testmatrix.O2.Opt)
		rep := safecheck.Analyze(res.Image, safecheck.Options{})
		t.Logf("%s: %d words, %d transfers", w.Name, len(res.Image.Instrs), rep.Transfers)
		if rep.Exhausted {
			t.Errorf("%s: analysis budget exhausted", w.Name)
		}
		if rep.Transfers > ceiling {
			t.Errorf("%s: %d transfers, ceiling %d", w.Name, rep.Transfers, ceiling)
		}
		delete(ceilings, w.Name)
	}
	for name := range ceilings {
		t.Errorf("kernel %s not found in testmatrix.Kernels", name)
	}
	const ledgerCeiling = 103000
	total := 0
	for _, p := range testmatrix.Ledger(t) {
		res := testmatrix.MustCompile(t, p.Src, mach.Trace28(), testmatrix.O2.Opt)
		total += safecheck.Analyze(res.Image, safecheck.Options{}).Transfers
	}
	t.Logf("ledger: %d transfers", total)
	if total > ledgerCeiling {
		t.Errorf("ledger: %d transfers, ceiling %d", total, ledgerCeiling)
	}
}
