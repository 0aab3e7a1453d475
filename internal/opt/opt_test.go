package opt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
)

// compile lowers source, failing the test on error.
func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// runProg executes and returns (exit, output).
func runProg(t *testing.T, p *ir.Program) (int32, string) {
	t.Helper()
	in := &ir.Interp{Prog: p}
	v, out, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, out
}

// checkSame verifies that optimizing the program under opts preserves
// behaviour, and returns the optimized program.
func checkSame(t *testing.T, src string, opts Options) *ir.Program {
	t.Helper()
	ref := compile(t, src)
	v0, out0 := runProg(t, ref)
	p := compile(t, src)
	Run(p, opts)
	if err := p.Validate(); err != nil {
		t.Fatalf("optimized program invalid: %v\n%s", err, p)
	}
	v1, out1 := runProg(t, p)
	if v0 != v1 || out0 != out1 {
		t.Fatalf("behaviour changed: exit %d->%d, out %q->%q", v0, v1, out0, out1)
	}
	return p
}

const sumSrc = `
var a [64]float
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { a[i] = float(i) }
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + a[i] }
	return int(s)
}`

// TestConstFoldAndCSE: LVN folds constants and reuses an available
// expression, and a definition of a register kills what held its old value:
// the expressions that read it and the copies made of it.
func TestConstFoldAndCSE(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int32
		shrinks   bool
	}{
		{"fold and reuse", `
func main() int {
	var x int = 3 * 4 + 2
	var y int = 3 * 4 + 2
	return x + y
}`, 28, true},
		// a's new value is a copy of c until c changes, so y reads a itself
		{"operand redefined", `
func f(a int, b int, c int) int {
	var x int = a * b
	a = c
	c = c + 1
	var y int = a * b
	return x * 100 + y
}
func main() int { return f(3, 4, 5) }`, 1220, false},
		{"copy source redefined", `
func f(a int) int {
	var c int = a
	a = a + 1
	return c * 100 + a
}
func main() int { return f(3) }`, 304, false},
	} {
		p := compile(t, tc.src)
		f := p.Func("main")
		before := countOps(f)
		n := 0
		for _, g := range p.Funcs {
			n += LVN(g)
			DCE(g)
		}
		if tc.shrinks && n == 0 {
			t.Errorf("%s: LVN found nothing to do", tc.name)
		}
		if after := countOps(f); tc.shrinks && after >= before {
			t.Errorf("%s: ops %d -> %d, want shrink", tc.name, before, after)
		}
		if v, _ := runProg(t, p); v != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, v, tc.want)
		}
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	p := checkSame(t, `
func main() int {
	var x int = 7
	var a int = x + 0
	var b int = x * 1
	var c int = x * 0
	var d int = x - 0
	var e int = x | 0
	var f int = x & 0
	return a + b + c + d + e + f
}`, None())
	// after folding, no Mul/And should remain
	for _, b := range p.Func("main").Blocks {
		for _, o := range b.Ops {
			if o.Kind == ir.Mul || o.Kind == ir.And {
				t.Errorf("identity not folded: %s", o.String())
			}
		}
	}
}

func TestSelfRedefiningOpNotCSEd(t *testing.T) {
	// i = i + 1 twice must produce +2, not CSE the second into a stale copy.
	checkSame(t, `
func main() int {
	var i int = 0
	var k int = 1
	i = i + k
	i = i + k
	return i
}`, None())
}

// TestSelfCopyTerminates: d = (d >> 0) >> 0 folds to the self-copy d <- d,
// which must not enter LVN's copy table, where resolving d would loop.
func TestSelfCopyTerminates(t *testing.T) {
	p := compile(t, `
func f(d int) int { d = ((d >> 0) >> 0); return d + 1 }
func main() int { return f(5) }`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		LVN(p.Func("f"))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("LVN did not return within 10 s")
	}
	if v, _ := runProg(t, p); v != 6 {
		t.Errorf("f(5) = %d after LVN, want 6", v)
	}
}

func TestBranchFolding(t *testing.T) {
	p := compile(t, `
func main() int {
	if (1 < 2) { return 10 }
	return 20
}`)
	f := p.Func("main")
	cleanup(f)
	for _, b := range f.Blocks {
		if t0 := b.Term(); t0.Kind == ir.CondBr {
			t.Error("constant branch not folded")
		}
	}
	v, _ := runProg(t, p)
	if v != 10 {
		t.Errorf("got %d, want 10", v)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	p := checkSame(t, `
var g [4]int
func main() int {
	var dead int = 1 + 2
	g[0] = 42
	print_i(g[0])
	return 0
}`, None())
	// the store and call must survive
	var stores, calls int
	for _, b := range p.Func("main").Blocks {
		for _, o := range b.Ops {
			switch o.Kind {
			case ir.Store:
				stores++
			case ir.Call:
				calls++
			}
		}
	}
	if stores == 0 || calls == 0 {
		t.Error("DCE removed a side-effecting op")
	}
}

func TestLICMHoists(t *testing.T) {
	src := `
var a [32]int
var n int = 32
func main() int {
	var x int = 5
	var y int = 7
	for (var i int = 0; i < n; i = i + 1) {
		a[i] = x * y + i
	}
	return a[31]
}`
	p := compile(t, src)
	f := p.Func("main")
	cleanup(f)
	h := LICM(f)
	if h == 0 {
		t.Error("LICM hoisted nothing")
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("after LICM: %v", err)
	}
	v, _ := runProg(t, p)
	if v != 66 {
		t.Errorf("got %d, want 66", v)
	}
	// x*y must now be outside the loop body blocks
	loops := f.NaturalLoops()
	if len(loops) == 0 {
		t.Fatal("loop disappeared")
	}
	for b := range loops[0].Body {
		for _, o := range f.Blocks[b].Ops {
			if o.Kind == ir.Mul {
				t.Error("invariant mul still inside loop")
			}
		}
	}
}

func TestLICMZeroTripSafety(t *testing.T) {
	// Loop may run zero times; hoisted code must not change behaviour.
	checkSame(t, `
var a [8]int
func f(n int) int {
	var q int = 3
	for (var i int = 0; i < n; i = i + 1) { a[i] = q * 7 }
	return a[0]
}
func main() int { return f(0) + f(3) }`, None())
}

func TestUnrollPreservesSemantics(t *testing.T) {
	for _, factor := range []int{2, 3, 4, 8} {
		opts := None()
		opts.UnrollFactor = factor
		p := checkSame(t, sumSrc, opts)
		v, _ := runProg(t, p)
		if v != 2016 {
			t.Errorf("factor %d: got %d, want 2016", factor, v)
		}
	}
}

func TestUnrollOddTripCounts(t *testing.T) {
	// trip counts that are not multiples of the factor exercise the
	// test-preserving exits inside the unrolled body
	for _, n := range []int{0, 1, 2, 3, 5, 7, 13} {
		src := fmt.Sprintf(`
var a [16]int
func main() int {
	var s int = 0
	for (var i int = 0; i < %d; i = i + 1) { s = s + i * i }
	return s
}`, n)
		opts := None()
		opts.UnrollFactor = 4
		checkSame(t, src, opts)
	}
}

func TestUnrollGrowsCode(t *testing.T) {
	p := compile(t, sumSrc)
	f := p.Func("main")
	before := countOps(f)
	n := Unroll(f, 4, 10000)
	if n != 2 {
		t.Errorf("unrolled %d loops, want 2", n)
	}
	after := countOps(f)
	if after < before*3 {
		t.Errorf("ops %d -> %d, expected ~4x growth", before, after)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnrollRespectsMaxOps(t *testing.T) {
	p := compile(t, sumSrc)
	f := p.Func("main")
	if n := Unroll(f, 4, 1); n != 0 {
		t.Errorf("unrolled %d loops despite maxOps=1", n)
	}
}

func TestInline(t *testing.T) {
	src := `
func sq(x int) int { return x * x }
func cube(x int) int { return sq(x) * x }
func unused(x int) int { return cube(x) + 1 }
func main() int {
	var s int = 0
	for (var i int = 1; i < 5; i = i + 1) { s = s + cube(i) }
	return s
}`
	p := compile(t, src)
	n := Inline(p, 60, 2000)
	if n == 0 {
		t.Fatal("nothing inlined")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("after inline: %v", err)
	}
	v, _ := runProg(t, p)
	if v != 100 { // 1+8+27+64
		t.Errorf("got %d, want 100", v)
	}
	// main should now contain no calls to sq or cube
	for _, b := range p.Func("main").Blocks {
		for _, o := range b.Ops {
			if o.Kind == ir.Call && (o.Sym == "sq" || o.Sym == "cube") {
				t.Errorf("call to %s survived inlining", o.Sym)
			}
		}
	}
	// no call reaches them now, so they are not compiled
	for _, name := range []string{"sq", "cube", "unused"} {
		if p.Func(name) != nil {
			t.Errorf("%s survived inlining with no call from main reaching it", name)
		}
	}
}

func TestInlineSkipsRecursive(t *testing.T) {
	src := `
func fib(n int) int {
	if (n < 2) { return n }
	return fib(n-1) + fib(n-2)
}
func main() int { return fib(10) }`
	p := compile(t, src)
	Inline(p, 1000, 10000)
	// fib must still be called (it is recursive)
	found := false
	for _, b := range p.Func("main").Blocks {
		for _, o := range b.Ops {
			if o.Kind == ir.Call && o.Sym == "fib" {
				found = true
			}
		}
	}
	if !found || p.Func("fib") == nil {
		t.Error("recursive function was inlined")
	}
	v, _ := runProg(t, p)
	if v != 55 {
		t.Errorf("fib(10) = %d, want 55", v)
	}
}

func TestInlineWithFrames(t *testing.T) {
	checkSame(t, `
func work(x int) int {
	var tmp [4]int
	tmp[0] = x
	tmp[1] = x * 2
	return tmp[0] + tmp[1]
}
func main() int {
	var loc [2]int
	loc[0] = 5
	return work(loc[0]) + work(7)
}`, Options{Inline: true, UnrollFactor: 1})
}

func TestMutualRecursionNotInlined(t *testing.T) {
	checkSame(t, `
func even(n int) int { if (n == 0) { return 1 } return odd(n - 1) }
func odd(n int) int { if (n == 0) { return 0 } return even(n - 1) }
func main() int { return even(10) * 10 + odd(7) }`, Default())
}

func TestFullPipelinePreservesSemantics(t *testing.T) {
	srcs := []string{
		sumSrc,
		`
var x [40]float
var y [40]float
func daxpy(n int, a float) {
	for (var i int = 0; i < n; i = i + 1) { y[i] = y[i] + a * x[i] }
}
func main() int {
	for (var i int = 0; i < 40; i = i + 1) { x[i] = float(i); y[i] = 1.0 }
	daxpy(40, 2.0)
	var s float = 0.0
	for (var i int = 0; i < 40; i = i + 1) { s = s + y[i] }
	print_f(s)
	return int(s)
}`,
		`
func collatz(n int) int {
	var steps int = 0
	while (n != 1) {
		if (n % 2 == 0) { n = n / 2 } else { n = 3 * n + 1 }
		steps = steps + 1
	}
	return steps
}
func main() int { return collatz(27) }`,
		`
var h [16]int
func hash(x int) int { return ((x * 2654435) ^ (x >> 3)) & 15 }
func main() int {
	for (var i int = 0; i < 100; i = i + 1) {
		var k int = hash(i)
		h[k] = h[k] + 1
	}
	var mx int = 0
	for (var i int = 0; i < 16; i = i + 1) { mx = h[i] > mx ? h[i] : mx }
	return mx
}`,
	}
	for i, src := range srcs {
		for _, opts := range []Options{None(), Default(), {Inline: true, UnrollFactor: 4}} {
			t.Run(fmt.Sprintf("src%d_unroll%d", i, opts.UnrollFactor), func(t *testing.T) {
				checkSame(t, src, opts)
			})
		}
	}
}

// TestRandomizedPrograms generates random straight-line+loop programs and
// differentially tests the optimizer against the unoptimized interpreter.
func TestRandomizedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 40; trial++ {
		src := randomProgram(rng)
		ref, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: generated program does not compile: %v\n%s", trial, err, src)
		}
		in0 := &ir.Interp{Prog: ref}
		v0, out0, err0 := in0.Run()

		p, _ := lang.Compile(src)
		Run(p, Options{Inline: true, UnrollFactor: 1 + rng.Intn(8)})
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: optimized invalid: %v\n%s", trial, err, src)
		}
		in1 := &ir.Interp{Prog: p}
		v1, out1, err1 := in1.Run()
		if (err0 == nil) != (err1 == nil) {
			t.Fatalf("trial %d: error divergence %v vs %v\n%s", trial, err0, err1, src)
		}
		if err0 == nil && (v0 != v1 || out0 != out1) {
			t.Fatalf("trial %d: divergence exit %d vs %d out %q vs %q\n%s",
				trial, v0, v1, out0, out1, src)
		}
	}
}

// randomProgram emits a random but well-formed MF program over a small set
// of int variables and one global array.
func randomProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("var arr [16]int\nfunc main() int {\n")
	vars := []string{"a", "b", "c"}
	for _, v := range vars {
		fmt.Fprintf(&b, "\tvar %s int = %d\n", v, rng.Intn(20)-10)
	}
	rv := func() string { return vars[rng.Intn(len(vars))] }
	expr := func() string {
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s + %s", rv(), rv())
		case 1:
			return fmt.Sprintf("%s * %d", rv(), rng.Intn(5))
		case 2:
			return fmt.Sprintf("%s - %d", rv(), rng.Intn(9))
		case 3:
			return fmt.Sprintf("(%s ^ %s) & 255", rv(), rv())
		case 4:
			return fmt.Sprintf("%s > %s ? %s : %s", rv(), rv(), rv(), rv())
		default:
			return fmt.Sprintf("arr[%d]", rng.Intn(16))
		}
	}
	for i := 0; i < 6; i++ {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "\t%s = %s\n", rv(), expr())
		case 1:
			fmt.Fprintf(&b, "\tarr[%d] = %s\n", rng.Intn(16), expr())
		case 2:
			fmt.Fprintf(&b, "\tif (%s > %d) { %s = %s } else { %s = %s }\n",
				rv(), rng.Intn(10)-5, rv(), expr(), rv(), expr())
		case 3:
			v := rv()
			fmt.Fprintf(&b, "\tfor (var i int = 0; i < %d; i = i + 1) { %s = %s + i; arr[i %% 16] = %s }\n",
				rng.Intn(12)+1, v, v, rv())
		}
	}
	fmt.Fprintf(&b, "\tprint_i(a + b * 3 - c)\n\treturn (a ^ b) + c\n}\n")
	return b.String()
}

func TestTailDupRemovesInLoopMerges(t *testing.T) {
	src := `
var acc [4]int
func main() int {
	for (var i int = 0; i < 50; i = i + 1) {
		if (i % 2 == 0) { acc[0] = acc[0] + 1 } else { acc[1] = acc[1] + 1 }
		acc[2] = acc[2] + i
	}
	return acc[0] + acc[1] * 100 + acc[2] * 10000
}`
	p := compile(t, src)
	f := p.Func("main")
	n := TailDup(f, 12, 200)
	if n == 0 {
		t.Fatal("no in-loop merge duplicated")
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("after taildup: %v", err)
	}
	// semantics preserved
	ref := compile(t, src)
	in0 := &ir.Interp{Prog: ref}
	v0, _, _ := in0.Run()
	in1 := &ir.Interp{Prog: p}
	v1, _, err := in1.Run()
	if err != nil || v0 != v1 {
		t.Fatalf("taildup changed semantics: %d vs %d (%v)", v1, v0, err)
	}
}

func TestTailDupLeavesLoopHeadersAndExits(t *testing.T) {
	// no if-chain: a nested loop's exit continuation must NOT be duplicated
	src := `
var a [16]float
func main() int {
	var s float = 0.0
	for (var i int = 0; i < 4; i = i + 1) {
		for (var j int = 0; j < 4; j = j + 1) { s = s + a[j] }
		s = s * 0.5
	}
	return int(s)
}`
	p := compile(t, src)
	f := p.Func("main")
	// unroll first, creating the multi-exit shape that once fooled the pass
	Unroll(f, 4, 10000)
	if n := TailDup(f, 12, 200); n != 0 {
		t.Errorf("taildup duplicated %d blocks in branch-free loop nest", n)
	}
}

func TestTailDupBudget(t *testing.T) {
	src := `
var acc [8]int
func main() int {
	for (var i int = 0; i < 50; i = i + 1) {
		if (i % 2 == 0) { acc[0] = acc[0] + 1 }
		if (i % 3 == 0) { acc[1] = acc[1] + 1 }
		if (i % 5 == 0) { acc[2] = acc[2] + 1 }
		acc[3] = acc[3] + 1
	}
	return acc[0] + acc[1] + acc[2] + acc[3]
}`
	p := compile(t, src)
	f := p.Func("main")
	before := countOps(f)
	TailDup(f, 12, 10) // tiny budget
	after := countOps(f)
	if after > before+10 {
		t.Errorf("budget exceeded: %d -> %d ops", before, after)
	}
}

// TestLevel: the three optimization levels every front end spells -O, "O" or
// OptLevel, and nothing else.
func TestLevel(t *testing.T) {
	for n, want := range []Options{None(), {Inline: true, UnrollFactor: 4}, Default()} {
		if got, err := Level(n); err != nil || got != want {
			t.Errorf("Level(%d) = %+v, %v; want %+v", n, got, err, want)
		}
	}
	for _, n := range []int{-1, 3} {
		if _, err := Level(n); err == nil {
			t.Errorf("Level(%d) is not an error", n)
		}
	}
}
