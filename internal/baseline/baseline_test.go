package baseline

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
)

const daxpy = `
var x [64]float
var y [64]float
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { x[i] = float(i); y[i] = 1.0 }
	var a float = 2.0
	for (var i int = 0; i < 64; i = i + 1) { y[i] = y[i] + a * x[i] }
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + y[i] }
	print_f(s)
	return 0
}`

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScalarMatchesInterp(t *testing.T) {
	p := compile(t, daxpy)
	in := &ir.Interp{Prog: p}
	wv, wo, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	res, v, out, err := Scalar(compile(t, daxpy), mach.Trace28())
	if err != nil {
		t.Fatal(err)
	}
	if v != wv || out != wo {
		t.Fatalf("scalar changed semantics: %d %q vs %d %q", v, out, wv, wo)
	}
	if res.Beats <= res.Ops {
		t.Errorf("scalar with interlocks should take > 1 beat/op: %d beats, %d ops", res.Beats, res.Ops)
	}
	if res.FloatOps == 0 || res.MemRefs == 0 || res.Branches == 0 {
		t.Errorf("counters not populated: %+v", res)
	}
}

func TestScoreboardBetween1xAnd4x(t *testing.T) {
	cfg := mach.Trace28()
	sc, _, _, err := Scalar(compile(t, daxpy), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, v, out, err := Scoreboard(compile(t, daxpy), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" || v != 0 {
		t.Fatalf("scoreboard semantics: %d %q", v, out)
	}
	speedup := float64(sc.Beats) / float64(sb.Beats)
	// §3 / Acosta: "only a factor of 2 or 3 speedup" — allow 1.2..4.5 for
	// the shape check
	if speedup < 1.2 || speedup > 4.5 {
		t.Errorf("scoreboard speedup = %.2fx, expected the 2-3x ceiling shape", speedup)
	}
	t.Logf("scalar %d beats, scoreboard %d beats: %.2fx", sc.Beats, sb.Beats, speedup)
}

func TestScoreboardStopsAtBranches(t *testing.T) {
	// A branch-dense program should show almost no scoreboard win.
	branchy := `
func main() int {
	var s int = 0
	for (var i int = 0; i < 200; i = i + 1) {
		if (s % 2 == 0) { s = s + 3 } else { s = s - 1 }
	}
	return s
}`
	cfg := mach.Trace28()
	sc, _, _, err := Scalar(compile(t, branchy), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, _, _, err := Scoreboard(compile(t, branchy), cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(sc.Beats) / float64(sb.Beats)
	if speedup > 2.5 {
		t.Errorf("branch-dense scoreboard speedup %.2fx too high: lookahead must stop at branches", speedup)
	}
}

func TestVAXSize(t *testing.T) {
	p := compile(t, daxpy)
	sz := VAXSize(p)
	ops := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			ops += len(b.Ops)
		}
	}
	if sz <= 0 {
		t.Fatal("zero size")
	}
	perOp := float64(sz) / float64(ops)
	// a tight CISC encodes a high-level op in a few bytes
	if perOp < 1 || perOp > 6 {
		t.Errorf("VAX model: %.1f bytes/op out of plausible range", perOp)
	}
	// deterministic
	if sz != VAXSize(p) {
		t.Error("VAXSize not deterministic")
	}
}

func TestScalarCountsCalls(t *testing.T) {
	rec := `
func f(n int) int {
	if (n <= 0) { return 0 }
	return f(n-1) + n
}
func main() int { return f(10) }`
	res, v, _, err := Scalar(compile(t, rec), mach.Trace7())
	if err != nil {
		t.Fatal(err)
	}
	if v != 55 {
		t.Fatalf("f(10) = %d", v)
	}
	if res.Branches < 20 {
		t.Errorf("expected calls+returns in branch count, got %d", res.Branches)
	}
}

func TestScoreboardWideMonotone(t *testing.T) {
	src := `
var a [64]float
func main() int {
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { a[i] = float(i) }
	for (var r int = 0; r < 4; r = r + 1) {
		for (var i int = 0; i < 64; i = i + 1) { s = s + a[i] * 2.0 }
	}
	return int(s) & 65535
}`
	prog := compile(t, src)
	cfg := mach.Trace28()
	var prev int64
	for _, w := range []int{1, 2, 4, 8} {
		r, v, _, err := ScoreboardWide(prog, cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			t.Fatal("wrong answer")
		}
		if prev != 0 && r.Beats > prev {
			t.Errorf("width %d slower than narrower issue: %d > %d", w, r.Beats, prev)
		}
		prev = r.Beats
	}
	// width 1 equals the classic entry point
	r1, _, _, err := Scoreboard(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, _, _, err := ScoreboardWide(prog, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Beats != rw.Beats {
		t.Errorf("Scoreboard (%d) != ScoreboardWide(1) (%d)", r1.Beats, rw.Beats)
	}
}

// TestBaselinesFollowConfiguredIntegerLatencies: the baselines are built of
// the machine's own technology, so reconfiguring the integer multiply or
// divide latency slows a dependent chain of those ops on both of them. (They
// used to hard-code 4 and 30 beats.)
func TestBaselinesFollowConfiguredIntegerLatencies(t *testing.T) {
	const mulChain = `
func main() int {
	var p int = 1
	for (var i int = 0; i < 50; i = i + 1) { p = (p * 3) & 65535 }
	return p
}`
	const divChain = `
func main() int {
	var p int = 1000000
	for (var i int = 0; i < 20; i = i + 1) { p = p / 2 + p % 7 }
	return p
}`
	slowMul, slowDiv := mach.Trace28(), mach.Trace28()
	slowMul.LatIMul *= 4
	slowDiv.LatIDiv *= 2
	for _, tc := range []struct {
		name, src string
		slow      mach.Config
	}{{"mul", mulChain, slowMul}, {"div/rem", divChain, slowDiv}} {
		for _, m := range []struct {
			name string
			run  func(*ir.Program, mach.Config) (Result, int32, string, error)
		}{{"scalar", Scalar}, {"scoreboard", Scoreboard}} {
			base, v0, _, err := m.run(compile(t, tc.src), mach.Trace28())
			if err != nil {
				t.Fatal(err)
			}
			slow, v1, _, err := m.run(compile(t, tc.src), tc.slow)
			if err != nil {
				t.Fatal(err)
			}
			if v0 != v1 {
				t.Errorf("%s %s: a latency change altered the result: %d vs %d", m.name, tc.name, v0, v1)
			}
			if slow.Beats <= base.Beats {
				t.Errorf("%s %s: %d beats at the default latency, %d with it raised: the baseline ignores the configuration",
					m.name, tc.name, base.Beats, slow.Beats)
			}
		}
	}
}

// TestCalleeFrameStartsAllReady: a call's registers start ready. f returns
// with a divide still in flight to its v3 (a return does not wait for it),
// and g, called next at the same depth, branches on its own v3 at once. g must not
// wait for f's divide: with f dividing or adding, both machines take the same
// beats. (Ready times used to be keyed by call depth and register number and
// never cleared, so g stalled for the divide's 30 beats.)
func TestCalleeFrameStartsAllReady(t *testing.T) {
	build := func(k ir.OpKind) *ir.Program {
		param := func(f *ir.Func) ir.Reg {
			r := f.NewReg(ir.I32)
			f.Params = append(f.Params, ir.Param{Reg: r, Type: ir.I32})
			return r
		}
		f := ir.NewFunc("f", ir.Void)
		bf := ir.NewBuilder(f)
		a := param(f)
		if r := bf.Bin(k, ir.I32, a, bf.ConstI(7)); r != 3 {
			t.Fatalf("f writes v%d, want v3", r)
		}
		bf.Ret(ir.None)

		g := ir.NewFunc("g", ir.I32)
		bg := ir.NewBuilder(g)
		param(g)
		param(g)
		x := param(g) // v3
		s := bg.Bin(ir.Add, ir.I32, x, x)
		then, els := bg.NewBlock(), bg.NewBlock()
		bg.CondBr(s, then, els) // the scoreboard's issue waits at a branch
		bg.SetBlock(then)
		bg.Ret(s)
		bg.SetBlock(els)
		bg.Ret(x)

		m := ir.NewFunc("main", ir.I32)
		bm := ir.NewBuilder(m)
		one := bm.ConstI(1)
		bm.Call("f", ir.Void, one)
		bm.Ret(bm.Call("g", ir.I32, one, one, one))
		p := &ir.Program{Funcs: []*ir.Func{m, f, g}}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := mach.Trace28()
	for _, m := range []struct {
		name string
		run  func(*ir.Program, mach.Config) (Result, int32, string, error)
	}{{"scalar", Scalar}, {"scoreboard", Scoreboard}} {
		add, v, _, err := m.run(build(ir.Add), cfg)
		if err != nil || v != 2 {
			t.Fatalf("%s: exit %d, %v", m.name, v, err)
		}
		div, _, _, err := m.run(build(ir.Div), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if div.Beats != add.Beats {
			t.Errorf("%s: %d beats with a divide in flight in an earlier callee, %d without: g waited on f's register",
				m.name, div.Beats, add.Beats)
		}
	}
}
