// Package alias is the memory disambiguator (§6.4.2): it represents address
// expressions as linear forms over symbolic values — the derivation trees,
// which the trace scheduler derives in one place (tsched's formTracker) — and
// answers, for two memory references, "can these be to the same location?"
// and the paper's novel *relative* query "can these be equal modulo N memory
// banks?" (§6.4.4) with No, Maybe, or Yes. "No" lets the code generator
// schedule the references simultaneously with no bank-management hardware;
// "Yes" forces separation; "Maybe" leaves the choice to the bank-stall
// gamble (§6.4.4).
package alias

import (
	"fmt"
	"sort"
	"strings"

	"github.com/multiflow-repro/trace/internal/absval"
)

// Answer is the disambiguator's verdict.
type Answer int

const (
	// No: the references can never conflict.
	No Answer = iota
	// Maybe: a conflict cannot be ruled out (e.g. unknown base addresses).
	Maybe
	// Yes: the references always conflict.
	Yes
)

func (a Answer) String() string {
	switch a {
	case No:
		return "no"
	case Maybe:
		return "maybe"
	case Yes:
		return "yes"
	}
	return "?"
}

// Form is a linear address expression: Const + Σ Terms[v]·v over symbolic
// variables v. Symbolic variables stand for run-time values the derivation
// could not see through (loop-carried registers at trace entry, incoming
// array-reference parameters, opaque computations). Two Forms are comparable
// when derived by the same walk over a trace (the trace scheduler's
// formTracker, one per trace), which guarantees variable identity.
type Form struct {
	Const int64
	Terms map[int]int64 // variable id -> coefficient (no zero entries)
}

// ConstForm returns a constant form.
func ConstForm(c int64) Form { return Form{Const: c} }

// VarForm returns the form 1·v + 0.
func VarForm(v int) Form { return Form{Terms: map[int]int64{v: 1}} }

// IsConst reports whether the form has no variable part.
func (f Form) IsConst() bool { return len(f.Terms) == 0 }

func (f Form) clone() Form {
	g := Form{Const: f.Const}
	if len(f.Terms) > 0 {
		g.Terms = make(map[int]int64, len(f.Terms))
		for k, v := range f.Terms {
			g.Terms[k] = v
		}
	}
	return g
}

// Add returns f + g.
func (f Form) Add(g Form) Form {
	out := f.clone()
	out.Const += g.Const
	for v, c := range g.Terms {
		out.addTerm(v, c)
	}
	return out
}

// Sub returns f - g.
func (f Form) Sub(g Form) Form {
	out := f.clone()
	out.Const -= g.Const
	for v, c := range g.Terms {
		out.addTerm(v, -c)
	}
	return out
}

// Scale returns k·f.
func (f Form) Scale(k int64) Form {
	if k == 0 {
		return ConstForm(0)
	}
	out := Form{Const: f.Const * k}
	if len(f.Terms) > 0 {
		out.Terms = make(map[int]int64, len(f.Terms))
		for v, c := range f.Terms {
			out.Terms[v] = c * k
		}
	}
	return out
}

func (f *Form) addTerm(v int, c int64) {
	if c == 0 {
		return
	}
	if f.Terms == nil {
		f.Terms = map[int]int64{}
	}
	f.Terms[v] += c
	if f.Terms[v] == 0 {
		delete(f.Terms, v)
	}
}

func (f Form) String() string {
	var parts []string
	var vs []int
	for v := range f.Terms {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs {
		parts = append(parts, fmt.Sprintf("%d*v%d", f.Terms[v], v))
	}
	if f.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", f.Const))
	}
	return strings.Join(parts, " + ")
}

// diff returns a - b as its constant part c and the gcd g of its
// coefficients' absolute values (0 when the difference is a constant),
// without building the difference.
func diff(a, b Form) (c, g int64) {
	for v, x := range a.Terms {
		g = absval.GCD(g, x-b.Terms[v])
	}
	for v, y := range b.Terms {
		if _, ok := a.Terms[v]; !ok {
			g = absval.GCD(g, y)
		}
	}
	return a.Const - b.Const, g
}

// Ref is one memory reference for disambiguation: its address form and
// access size in bytes.
type Ref struct {
	Addr Form
	Size int64
}

// MayAlias answers whether two references can touch overlapping bytes.
func MayAlias(a, b Ref) Answer {
	d, g := diff(a.Addr, b.Addr)
	// Overlap iff -a.Size < d < b.Size has a solution.
	lo, hi := -a.Size+1, b.Size-1 // inclusive range for d
	if g == 0 {
		if d >= lo && d <= hi {
			return Yes // definite overlap of at least one byte
		}
		return No
	}
	// d takes values in a subset of the lattice d + g·Z, so a hit in the
	// range is only "maybe", while no lattice point in range is a hard no.
	if hasLatticePointInRange(d, g, lo, hi) {
		return Maybe
	}
	return No
}

// hasLatticePointInRange reports whether c + g·k ∈ [lo, hi] for some integer
// k (g > 0).
func hasLatticePointInRange(c, g, lo, hi int64) bool {
	if g == 0 {
		return c >= lo && c <= hi
	}
	// smallest value ≥ lo congruent to c mod g
	r := ((c-lo)%g + g) % g
	first := lo + r
	return first <= hi
}

// SameBank answers whether the two references hit the same RAM bank, where
// two byte addresses share a bank iff they are congruent modulo modulus
// (modulus = 8 bytes × controllers × banks for the TRACE interleave; pass
// 8 × controllers to ask "same controller" instead). This is the paper's
// relative disambiguation: only the difference matters, so unknown base
// addresses cancel when both references derive from the same base (§6.4.4).
func SameBank(a, b Ref, modulus int64) Answer {
	d, dg := diff(a.Addr, b.Addr)
	// Same 8-byte granule boundary concern: references within the modulus
	// window conflict if (addrA >> 3) ≡ (addrB >> 3). Work on byte
	// difference: same granule-class iff d ≡ r (mod modulus) with r in
	// (-8, 8) aligned… To stay conservative we test congruence of the byte
	// difference to any value in (-8, 8): |d mod modulus| < 8 counts as a
	// possible same-bank hit.
	if dg == 0 {
		m := ((d % modulus) + modulus) % modulus
		if m < 8 || modulus-m < 8 {
			// Same congruence granule: definitely same bank when the two
			// addresses land in the same 8-byte word of their granule;
			// conservatively Yes only for exact multiples, else Maybe.
			if m == 0 {
				return Yes
			}
			return Maybe
		}
		return No
	}
	g := absval.GCD(dg, modulus)
	// d mod modulus ranges over {d + g·k mod modulus}; a same-bank hit
	// needs d ≡ t (mod modulus) for some t with t mod modulus within (-8, 8)
	// of 0.
	c := ((d % g) + g) % g
	if c < 8 || g-c < 8 {
		// some achievable difference is within a word of a multiple of the
		// modulus: cannot rule out a bank conflict — unless the stride is an
		// exact multiple of the modulus (g == modulus) and so is the
		// constant: always the same bank
		if g == modulus && d%modulus == 0 {
			return Yes
		}
		return Maybe
	}
	return No
}
