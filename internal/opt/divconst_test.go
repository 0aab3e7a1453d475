package opt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
)

// lit spells v as a source expression (the most negative int has no literal).
func lit(v int64) string {
	if v == math.MinInt32 {
		return "(-2147483647 - 1)"
	}
	return fmt.Sprint(v)
}

// widest returns the largest B for which [0, B] takes the multiply form
// for divisor d, by bisection (a bound that fits implies every smaller one
// does).
func widest(d int64) int64 {
	lo, hi := int64(0), int64(math.MaxInt32)
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if _, _, ok := magic(d, mid); ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// shape is one way a dividend reaches its interval.
type shape struct {
	lo, hi int64
	expr   string // the dividend, over p (a loaded, unbounded value) or i (a loop counter)
	loop   int64  // > 0: a counted loop for (i = 0; i < loop; i++) supplies i
}

// maskShape is (p & (hi-lo)) + lo: the interval [lo, hi], both ends reached
// at p = 0 and p = hi-lo.
func maskShape(lo, hi int64) shape {
	return shape{lo: lo, hi: hi, expr: fmt.Sprintf("(p & %d) + %s", hi-lo, lit(lo))}
}

// loopShape is i*k + lo over 0 ≤ i < n: the interval [lo, lo+(n-1)k], its
// ends reached on the first and last trip.
func loopShape(lo, k, n int64) shape {
	return shape{lo: lo, hi: lo + (n-1)*k, expr: fmt.Sprintf("i * %d + %s", k, lit(lo)), loop: n}
}

// divProgram returns a program that prints x / c and x % c for every
// dividend of every shape: p runs over inputs (loaded from a global, so no
// analysis knows them), i over a shape's counted loop.
func divProgram(c int64, inputs []int64, shapes []shape) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var in [%d]int = {", len(inputs))
	var late []int // the most negative int is stored by main
	for i, v := range inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		if v == math.MinInt32 {
			late, v = append(late, i), 0
		}
		fmt.Fprint(&b, v)
	}
	b.WriteString("}\nfunc main() int {\n")
	for _, i := range late {
		fmt.Fprintf(&b, "\tin[%d] = %s\n", i, lit(math.MinInt32))
	}
	for _, s := range shapes {
		if s.loop > 0 {
			fmt.Fprintf(&b, "\tfor (var i int = 0; i < %d; i = i + 1) {\n", s.loop)
		} else {
			fmt.Fprintf(&b, "\tfor (var j int = 0; j < %d; j = j + 1) {\n\t\tvar p int = in[j]\n", len(inputs))
		}
		fmt.Fprintf(&b, "\t\tvar x int = %s\n\t\tprint_i(x / %s)\n\t\tprint_i(x %% %s)\n\t}\n", s.expr, lit(c), lit(c))
	}
	b.WriteString("\treturn 0\n}\n")
	return b.String()
}

// special are the dividends every divisor is tried on.
func special() []int64 {
	vs := []int64{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32}
	for k := 1; k < 31; k++ {
		p := int64(1) << k
		vs = append(vs, p-1, p+1, -p-1, -p+1, -p)
	}
	return vs
}

// checkDivProgram runs src before and after cleanup and DivConst and
// requires the same exit and output; it returns the forms DivConst chose,
// in source order.
func checkDivProgram(t *testing.T, src string) []divForm {
	t.Helper()
	p := compile(t, src)
	v0, out0 := runProg(t, p.Clone())
	var forms []divForm
	for _, f := range p.Funcs {
		cleanup(f)
		for _, s := range divSites(f) {
			forms = append(forms, s.form)
		}
		DivConst(f)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("rewritten program invalid: %v", err)
	}
	v1, out1 := runProg(t, p)
	if v0 != v1 || out0 != out1 {
		t.Fatalf("rewrite changed behaviour: exit %d -> %d\nsource:\n%s\nfirst difference: %s",
			v0, v1, src, firstDiff(out0, out1))
	}
	return forms
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %s vs %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(la), len(lb))
}

// TestDivConstPowersOfTwo holds every ±2^k, with ±1, to the divider on the
// special dividends, unbounded (the sign-corrected sequence) and proven
// non-negative by a mask (one and or shr).
func TestDivConstPowersOfTwo(t *testing.T) {
	var divisors []int64
	for k := 0; k < 31; k++ {
		divisors = append(divisors, int64(1)<<k, -int64(1)<<k)
	}
	divisors = append(divisors, math.MinInt32)
	for _, c := range divisors {
		shapes := []shape{{lo: math.MinInt32, hi: math.MaxInt32, expr: "p"}, maskShape(0, math.MaxInt32)}
		forms := checkDivProgram(t, divProgram(c, special(), shapes))
		want := []divForm{divPow2, divPow2, divPow2Pos, divPow2Pos}
		if fmt.Sprint(forms) != fmt.Sprint(want) {
			t.Errorf("c=%d: forms %v, want %v", c, forms, want)
		}
	}
}

// TestDivConstMultiply holds every divisor from 3 to 1000 that is not a
// power of two, and its negation, to the divider at the widest bound the
// multiply form takes, on both ends of [0, B] and [-B, B] reached by a mask
// and by a counted loop, and on the special dividends, which no bound
// covers. One past the widest bound keeps the divider.
func TestDivConstMultiply(t *testing.T) {
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for d := int64(3); d <= 1000; d += step {
		if d&(d-1) == 0 {
			continue
		}
		b := widest(d)
		if b >= math.MaxInt32/2 {
			t.Fatalf("d=%d: widest bound %d leaves no room for a signed interval", d, b)
		}
		for _, c := range []int64{d, -d} {
			inputs := append(special(), b-1, b, 2*b-1, 2*b, b+1)
			shapes := []shape{
				{lo: math.MinInt32, hi: math.MaxInt32, expr: "p"},
				maskShape(0, b),
				maskShape(-b, b),
				maskShape(0, b+1),
				loopShape(0, b/63, 64),
				loopShape(-b, 2*b/63, 64),
			}
			forms := checkDivProgram(t, divProgram(c, inputs, shapes))
			want := []divForm{divNoBound, divNoBound, divMagic, divMagic, divMagic, divMagic,
				divTooWide, divTooWide, divMagic, divMagic, divMagic, divMagic}
			if fmt.Sprint(forms) != fmt.Sprint(want) {
				t.Errorf("c=%d (B=%d): forms %v, want %v", c, b, forms, want)
			}
		}
	}
}

// TestMagicBounds pins the multiply form's two conditions at their edges:
// the widest bound holds both, and one past it breaks one.
func TestMagicBounds(t *testing.T) {
	for _, d := range []int64{3, 5, 6, 7, 10, 97, 100, 641, 1000, 65535, 1<<20 + 1} {
		b := widest(d)
		m, s, ok := magic(d, b)
		if !ok || b*m > math.MaxInt32 || b*(m*d-int64(1)<<s) >= int64(1)<<s {
			t.Errorf("d=%d: magic(%d) = %d, %d, %v", d, b, m, s, ok)
		}
		if _, _, ok := magic(d, b+1); ok {
			t.Errorf("d=%d: bound %d is not the widest", d, b)
		}
		// Every x of [0, b] divides exactly; sampled on a fine grid and at
		// the end.
		for x := int64(0); x <= b; x += 1 + b/4096 {
			if got := x * m >> s; got != x/d {
				t.Fatalf("d=%d: (%d*%d)>>%d = %d, want %d", d, x, m, s, got, x/d)
			}
		}
		if got := b * m >> s; got != b/d {
			t.Errorf("d=%d: end %d gives %d, want %d", d, b, got, b/d)
		}
	}
}

// TestDivConstKeepsZeroTrap: a divide by zero is not a candidate and still
// faults.
func TestDivConstKeepsZeroTrap(t *testing.T) {
	for _, src := range []string{
		"func main() int {\n\tvar x int = 5\n\tvar z int = 0\n\treturn x / z\n}\n",
		"func main() int {\n\tvar x int = 5\n\tvar z int = 0\n\treturn x % z\n}\n",
	} {
		ref := compile(t, src)
		_, _, err0 := (&ir.Interp{Prog: ref}).Run()
		p := compile(t, src)
		for _, f := range p.Funcs {
			cleanup(f)
			if n, nb, tw := DivConst(f); n+nb+tw != 0 {
				t.Errorf("a zero divisor was counted: %d %d %d", n, nb, tw)
			}
		}
		_, _, err1 := (&ir.Interp{Prog: p}).Run()
		if err0 == nil || err1 == nil || err0.Error() != err1.Error() {
			t.Errorf("trap changed: %v -> %v", err0, err1)
		}
	}
}
