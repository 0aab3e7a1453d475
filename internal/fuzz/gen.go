// Package fuzz is the differential robustness harness for the no-interlock
// stack. It generates random, always-terminating MF programs and checks that
// the trace-scheduled VLIW executes each one exactly like the scalar
// reference — at every optimization level and machine width — and that
// compilation itself is byte-deterministic. On a machine with no
// hardware interlocks a scheduling bug does not fault, it silently corrupts
// results (PAPER.md §"Simplify the hardware"); an independent oracle is the
// only way to observe that class of bug.
package fuzz

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// flit renders v as an MF float literal. %g alone drops the decimal point on
// whole values ("12"), which the frontend would type as int.
func flit(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}

// Gen generates a random MF program from seed. Every generated program
// terminates by construction:
//
//   - for loops have constant trip counts;
//   - while loops increment their (dedicated) counter as the first body
//     statement, so break/continue cannot skip progress;
//   - recursion takes a literal argument and strictly decreases it;
//   - array indices are masked to the array bounds;
//   - divisors are forced nonzero with (x & k) + 1.
//
// The same seed always yields the same program.
func Gen(seed int64) string {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	return g.program()
}

type gen struct {
	rng   *rand.Rand
	b     strings.Builder
	vars  []string // assignable int scalars in scope
	depth int
	loops int // enclosing loop count (break/continue legality)
	wn    int // while-counter naming
}

func (g *gen) program() string {
	fmt.Fprintf(&g.b, "var gi [16]int = {%d, %d, %d}\n",
		g.rng.Intn(50)-25, g.rng.Intn(50)-25, g.rng.Intn(50)-25)
	g.b.WriteString("var gf [8]float\n")
	fmt.Fprintf(&g.b, "var gn int = %d\n", g.rng.Intn(30)-15)

	// Helper battery: iterative, bounded-recursive, float, and array-walking
	// helpers give the trace scheduler calls to schedule around.
	fmt.Fprintf(&g.b, `func iter(x int) int {
	var s int = 1
	for (var i int = 0; i < (x & 15); i = i + 1) { s = s + i * %d - (s >> 2) }
	return s
}
`, 1+g.rng.Intn(5))
	fmt.Fprintf(&g.b, `func rec(x int) int {
	if (x < 2) { return x + 1 }
	return rec(x - 1) + rec(x - 2) * %d
}
`, 1+g.rng.Intn(3))
	fmt.Fprintf(&g.b, `func fhelp(v float) float {
	if (v < 0.0) { return %s - v }
	return v * %s + 0.125
}
`, flit(1.0+g.rng.Float64()), flit(0.5+g.rng.Float64()))
	fmt.Fprintf(&g.b, `func sweep(lo int, hi int) int {
	var acc int = 0
	for (var i int = lo & 15; i < (hi & 15); i = i + 1) {
		acc = acc + gi[i] * (i + 1)
		gi[i] = acc %% 1000 - 250
	}
	return acc
}
`)

	g.b.WriteString("func main() int {\n")
	g.vars = []string{"a", "b", "c", "d"}
	for _, v := range g.vars {
		fmt.Fprintf(&g.b, "\tvar %s int = %d\n", v, g.rng.Intn(60)-30)
	}
	g.b.WriteString("\tvar x float = 1.5\n")
	g.b.WriteString("\tvar y float = -0.75\n")
	g.b.WriteString("\tvar la [8]int\n")
	g.b.WriteString("\tfor (var i int = 0; i < 8; i = i + 1) { la[i] = i * 3 - 5 }\n")

	n := 4 + g.rng.Intn(5)
	for i := 0; i < n; i++ {
		g.stmt("\t", 3)
	}

	// Checksum epilogue: fold every piece of mutable state into the result
	// so a corruption anywhere is observable at the exit value.
	g.b.WriteString("\tvar chk int = a + b * 3 - c * 5 + d * 7 + gn\n")
	g.b.WriteString("\tfor (var i int = 0; i < 16; i = i + 1) {\n")
	g.b.WriteString("\t\tchk = (chk * 31 + gi[i] + la[(i & 7)] * 5 + int(gf[(i & 7)] * 16.0)) & 16777215\n")
	g.b.WriteString("\t}\n")
	g.b.WriteString("\tchk = (chk + int(fhelp(x) * 8.0) + int(y * 4.0)) & 16777215\n")
	g.b.WriteString("\tprint_i(chk)\n")
	g.b.WriteString("\tprint_f(fhelp(y) + x)\n")
	g.b.WriteString("\treturn chk & 65535\n}\n")
	return g.b.String()
}

// iv picks an assignable int scalar.
func (g *gen) iv() string { return g.vars[g.rng.Intn(len(g.vars))] }

// iexpr generates an int-typed expression of bounded depth.
func (g *gen) iexpr(d int) string {
	if d <= 0 {
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(40)-20)
		case 1:
			return fmt.Sprintf("gi[%d]", g.rng.Intn(16))
		case 2:
			return fmt.Sprintf("la[%d]", g.rng.Intn(8))
		case 3:
			return "gn"
		default:
			return g.iv()
		}
	}
	switch g.rng.Intn(14) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.iexpr(d-1), g.iexpr(d-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.iexpr(d-1), g.iexpr(d-1))
	case 2:
		return fmt.Sprintf("(%s * %d)", g.iexpr(d-1), g.rng.Intn(9)-4)
	case 3:
		// nonzero divisor by construction
		return fmt.Sprintf("(%s / ((%s & 7) + 1))", g.iexpr(d-1), g.iexpr(d-1))
	case 4:
		return fmt.Sprintf("(%s %% ((%s & 15) + 1))", g.iexpr(d-1), g.iexpr(d-1))
	case 5:
		return fmt.Sprintf("((%s ^ %s) & 4095)", g.iexpr(d-1), g.iexpr(d-1))
	case 6:
		return fmt.Sprintf("(%s >> %d)", g.iexpr(d-1), g.rng.Intn(5))
	case 7:
		return fmt.Sprintf("((%s << %d) & 65535)", g.iexpr(d-1), g.rng.Intn(4))
	case 8:
		return fmt.Sprintf("(%s %s %s ? %s : %s)",
			g.iexpr(d-1), g.cmpOp(), g.iexpr(d-1), g.iexpr(d-1), g.iexpr(d-1))
	case 9:
		return fmt.Sprintf("(%s %s %s)", g.boolExpr(d-1), g.logOp(), g.boolExpr(d-1))
	case 10:
		return fmt.Sprintf("iter(%s)", g.iexpr(d-1))
	case 11:
		return fmt.Sprintf("rec(%d)", 2+g.rng.Intn(9))
	case 12:
		return fmt.Sprintf("int(%s)", g.fexpr(d-1))
	default:
		return fmt.Sprintf("gi[(%s & 15)]", g.iexpr(d-1))
	}
}

// boolExpr generates an int-typed truth value.
func (g *gen) boolExpr(d int) string {
	return fmt.Sprintf("(%s %s %s)", g.iexpr(d), g.cmpOp(), g.iexpr(d))
}

// fexpr generates a float-typed expression of bounded depth.
func (g *gen) fexpr(d int) string {
	if d <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return flit(float64(g.rng.Intn(200)-100) / 8)
		case 1:
			return fmt.Sprintf("gf[%d]", g.rng.Intn(8))
		case 2:
			return "x"
		default:
			return "y"
		}
	}
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.fexpr(d-1), g.fexpr(d-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.fexpr(d-1), g.fexpr(d-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.fexpr(d-1), flit(0.25+g.rng.Float64()))
	case 3:
		// divisor bounded away from zero
		return fmt.Sprintf("(%s / %s)", g.fexpr(d-1), flit(1.0+g.rng.Float64()))
	case 4:
		return fmt.Sprintf("float(%s)", g.iexpr(d-1))
	case 5:
		return fmt.Sprintf("fhelp(%s)", g.fexpr(d-1))
	default:
		return fmt.Sprintf("gf[(%s & 7)]", g.iexpr(d-1))
	}
}

func (g *gen) cmpOp() string {
	return []string{"==", "!=", "<", "<=", ">", ">="}[g.rng.Intn(6)]
}

func (g *gen) logOp() string {
	return []string{"&&", "||"}[g.rng.Intn(2)]
}

// stmt emits one random statement at the given indent.
func (g *gen) stmt(indent string, d int) {
	choice := g.rng.Intn(12)
	if d <= 0 && choice >= 6 {
		choice = g.rng.Intn(6) // no further nesting
	}
	switch choice {
	case 0:
		fmt.Fprintf(&g.b, "%s%s = %s\n", indent, g.iv(), g.iexpr(2))
	case 1:
		fmt.Fprintf(&g.b, "%sgi[(%s & 15)] = %s\n", indent, g.iexpr(1), g.iexpr(2))
	case 2:
		fmt.Fprintf(&g.b, "%sla[(%s & 7)] = %s\n", indent, g.iexpr(1), g.iexpr(1))
	case 3:
		fmt.Fprintf(&g.b, "%sgf[(%s & 7)] = %s\n", indent, g.iexpr(1), g.fexpr(2))
	case 4:
		fmt.Fprintf(&g.b, "%s%s = %s\n", indent, []string{"x", "y"}[g.rng.Intn(2)], g.fexpr(2))
	case 5:
		fmt.Fprintf(&g.b, "%sgn = %s\n", indent, g.iexpr(2))
	case 6, 7:
		fmt.Fprintf(&g.b, "%sif (%s) {\n", indent, g.boolExpr(1))
		g.stmt(indent+"\t", d-1)
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.b, "%s} else {\n", indent)
			g.stmt(indent+"\t", d-1)
		}
		fmt.Fprintf(&g.b, "%s}\n", indent)
	case 8:
		v := fmt.Sprintf("i%d", g.rng.Intn(10000))
		fmt.Fprintf(&g.b, "%sfor (var %s int = 0; %s < %d; %s = %s + 1) {\n",
			indent, v, v, 2+g.rng.Intn(14), v, v)
		fmt.Fprintf(&g.b, "%s\t%s = %s + %s * %d\n", indent, g.iv(), g.iv(), v, 1+g.rng.Intn(3))
		g.loops++
		g.stmt(indent+"\t", d-1)
		g.loops--
		fmt.Fprintf(&g.b, "%s}\n", indent)
	case 9:
		// while with the counter incremented FIRST, so a continue in the
		// body cannot skip progress.
		g.wn++
		v := fmt.Sprintf("w%d", g.wn)
		fmt.Fprintf(&g.b, "%svar %s int = 0\n", indent, v)
		fmt.Fprintf(&g.b, "%swhile (%s < %d) {\n", indent, v, 2+g.rng.Intn(10))
		fmt.Fprintf(&g.b, "%s\t%s = %s + 1\n", indent, v, v)
		g.loops++
		g.stmt(indent+"\t", d-1)
		g.loops--
		fmt.Fprintf(&g.b, "%s}\n", indent)
	case 10:
		if g.loops > 0 {
			// guarded break/continue exercises compensation at loop exits
			kw := []string{"break", "continue"}[g.rng.Intn(2)]
			fmt.Fprintf(&g.b, "%sif (%s) { %s }\n", indent, g.boolExpr(0), kw)
		} else {
			fmt.Fprintf(&g.b, "%sprint_i(%s & 255)\n", indent, g.iv())
		}
	default:
		fmt.Fprintf(&g.b, "%s%s = sweep(%s, %s)\n", indent, g.iv(), g.iexpr(0), g.iexpr(0))
	}
}
