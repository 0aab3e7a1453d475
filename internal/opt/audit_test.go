package opt_test

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/fuzz"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// auditMark opens a violation report in an audited program's output.
const auditMark = math.MinInt32 + 7

// A site is one audited claim, named for the report.
type site struct {
	fn    string
	claim opt.DivClaim
}

// beforeDivConst lowers src and runs the passes of level lv that precede
// DivConst, leaving the IR the rewrite decides on.
func beforeDivConst(t *testing.T, src string, lv int) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	o, err := opt.Level(lv)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []pipeline.Pass
	for _, ps := range opt.Passes(o) {
		if ps.Name() == "divconst" {
			break
		}
		prefix = append(prefix, ps)
	}
	if err := pipeline.Run(context.Background(), p, pipeline.NewContext(), prefix...); err != nil {
		t.Fatal(err)
	}
	return p
}

// instrument inserts, before every claimed divide of f, a test of the
// dividend against its claim that prints auditMark, the site's number in
// *sites and the dividend when it lies outside. narrow, if not nil, edits
// each claim first.
func instrument(f *ir.Func, sites *[]site, narrow func(*opt.DivClaim)) {
	claims := opt.DivClaims(f)
	// Last site first: splitting a block leaves the ops before the split,
	// and every earlier site, where they were.
	for i := len(claims) - 1; i >= 0; i-- {
		c := claims[i]
		if narrow != nil {
			narrow(&c)
		}
		id := len(*sites)
		*sites = append(*sites, site{f.Name, c})
		b := f.Blocks[c.Block]
		cont, report := f.AddBlock(), f.AddBlock()
		cont.Ops = append([]ir.Op(nil), b.Ops[c.Index:]...)
		b.Ops = b.Ops[:c.Index:c.Index]
		bd := ir.NewBuilder(f)
		bd.SetBlock(b)
		below := bd.Bin(ir.CmpLT, ir.I32, c.X, bd.ConstI(c.Lo))
		above := bd.Bin(ir.CmpGT, ir.I32, c.X, bd.ConstI(c.Hi))
		bd.CondBr(bd.Bin(ir.Or, ir.I32, below, above), report, cont)
		bd.SetBlock(report)
		bd.Call("print_i", ir.Void, bd.ConstI(auditMark))
		bd.Call("print_i", ir.Void, bd.ConstI(int64(id)))
		bd.Call("print_i", ir.Void, c.X)
		bd.Br(cont)
	}
}

// audit runs p's claims: it executes a copy instrumented at every claimed
// divide beside p itself, and returns the number of sites audited and the
// first violation, "" when there is none.
func audit(t *testing.T, p *ir.Program, narrow func(*opt.DivClaim)) (int, string) {
	t.Helper()
	checked := p.Clone()
	var sites []site
	for _, f := range checked.Funcs {
		instrument(f, &sites, narrow)
	}
	if err := checked.Validate(); err != nil {
		t.Fatalf("instrumented program invalid: %v", err)
	}
	v0, out0, err0 := (&ir.Interp{Prog: p}).Run()
	v1, out1, err1 := (&ir.Interp{Prog: checked}).Run()
	want, got := strings.Split(out0, "\n"), strings.Split(out1, "\n")
	for i := 0; i < len(got); i++ {
		if i < len(want) && got[i] == want[i] {
			continue
		}
		if got[i] != strconv.Itoa(auditMark) || i+2 >= len(got) {
			break
		}
		id, _ := strconv.Atoi(got[i+1])
		s := sites[id]
		return len(sites), fmt.Sprintf("%s line %d: dividend %s outside its claim [%d, %d]",
			s.fn, s.claim.Line, got[i+2], s.claim.Lo, s.claim.Hi)
	}
	if v0 != v1 || out0 != out1 || fmt.Sprint(err0) != fmt.Sprint(err1) {
		t.Fatalf("instrumented run differs: exit %d vs %d, error %v vs %v", v0, v1, err0, err1)
	}
	return len(sites), ""
}

// TestDivClaimsHold executes every interval DivConst relies on, over the
// ledger programs and fuzz.Gen seeds 1-200 at O0 and O2: no dividend may
// leave its claimed interval.
func TestDivClaimsHold(t *testing.T) {
	progs := testmatrix.Ledger(t)
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		progs = append(progs, testmatrix.Program{Corpus: "gen", Name: fmt.Sprint(seed), Src: fuzz.Gen(seed)})
	}
	total := 0
	for _, lv := range []int{0, 2} {
		for _, pr := range progs {
			n, bad := audit(t, beforeDivConst(t, pr.Src, lv), nil)
			if bad != "" {
				t.Errorf("%s/O%d: %s", pr.Key(), lv, bad)
			}
			total += n
		}
	}
	t.Logf("%d claimed divides audited", total)
	if total == 0 {
		t.Fatal("no claim audited")
	}
}

// TestDivAuditCatchesNarrowedClaim: a claim one narrower than the analysis
// found is reported, with its function and line.
func TestDivAuditCatchesNarrowedClaim(t *testing.T) {
	src := `func count(n int) int {
	var s int = 0
	for (var i int = 0; i < 100; i = i + 1) {
		s = s + i % 7
	}
	return s + n
}
func main() int { return count(3) }
`
	p := beforeDivConst(t, src, 0)
	if n, bad := audit(t, p, nil); n != 1 || bad != "" {
		t.Fatalf("true claim: %d sites, violation %q", n, bad)
	}
	_, bad := audit(t, p, func(c *opt.DivClaim) { c.Hi-- })
	if want := "count line 4: dividend 99 outside its claim [0, 98]"; bad != want {
		t.Errorf("narrowed claim reported %q, want %q", bad, want)
	}
}
