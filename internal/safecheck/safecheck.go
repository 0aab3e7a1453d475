// Package safecheck proves runtime safety guards redundant. It runs a
// whole-image value-range abstract interpretation (interval × alignment
// congruence per integer register, iterated in weak topological order,
// widening at loop heads, then descending until no state changes) over the
// same machine-level CFG schedcheck certifies, and classifies every memory
// reference, divide, and indirect jump as proven-safe or unprovable — with
// word/beat/unit and func:line attribution in the simulator's Fault
// vocabulary.
//
// schedcheck answers "does this image respect the §6 resource and
// no-interlock contract"; safecheck answers the next question down: "can
// any execution of this image make an effective address escape RAM, break
// alignment, or divide by zero". A proven site needs no dynamic guard, which
// is what arms the simulator's third (safe) execution tier and what a future
// JIT needs before it can emit guard-free native code.
package safecheck

import (
	"fmt"
	"strings"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
)

// String renders the value in report syntax: "=7", "[0,252]≡0(mod 4)".
func (a Val) String() string {
	if a.M == 0 {
		return fmt.Sprintf("=%d", a.R)
	}
	s := fmt.Sprintf("[%d,%d]", a.Lo, a.Hi)
	if a.M > 1 {
		s += fmt.Sprintf("≡%d(mod %d)", a.R, a.M)
	}
	return s
}

// A Site is one guarded operation — a load/store (bounds + alignment), a
// divide/remainder (zero divisor), or an indirect jump (PC range) — with
// the analysis verdict. Attribution mirrors the simulator's Fault fields so
// a verdict and the trap it prevents read the same way.
type Site struct {
	Word   int       // instruction word
	Beat   int       // issue beat within the word
	Unit   mach.Unit // issuing functional unit
	Kind   ir.OpKind // Load/LoadSpec/Store/Div/Rem or mach.OpJmpR
	Func   string    // containing function ("" if unknown)
	Line   int       // source line (0 if unknown)
	Proven bool      // true: the guard can never fire
	Detail string    // the proven ranges, or why the site is unprovable
}

// Exec reports whether the simulator has a guard-free variant for this kind
// of site. Indirect-jump verdicts are report-only: the PC bounds check is
// one compare on a cold path and stays dynamic in every tier.
func (s *Site) Exec() bool { return s.Kind != mach.OpJmpR }

func (s *Site) String() string {
	verdict := "unproven"
	if s.Proven {
		verdict = "proven"
	}
	at := ""
	if s.Func != "" {
		at = fmt.Sprintf(" (%s:%d)", s.Func, s.Line)
	}
	return fmt.Sprintf("%s[%s] word=%d beat=%d unit=%s%s: %s",
		verdict, mach.OpName(s.Kind), s.Word, s.Beat, s.Unit, at, s.Detail)
}

// A Report is the analysis result for one image: every site, in word order.
type Report struct {
	Sites     []Site
	Words     int
	Exhausted bool // the transfer budget ran out; every site is unproven
	// Transfers counts the word transfers executed (both fixpoint phases and
	// the reporting sweep). It is deterministic — a function of the image and
	// the options alone — so a test can pin it where a wall-clock floor would
	// be noise.
	Transfers int
	img       *isa.Image
}

// Image returns the analyzed image.
func (r *Report) Image() *isa.Image { return r.img }

func (r *Report) add(s Site) { r.Sites = append(r.Sites, s) }

// Proven counts proven sites that have a guard-free execution variant.
func (r *Report) Proven() int {
	n := 0
	for i := range r.Sites {
		if r.Sites[i].Exec() && r.Sites[i].Proven {
			n++
		}
	}
	return n
}

// Total counts sites that have a guard-free execution variant.
func (r *Report) Total() int {
	n := 0
	for i := range r.Sites {
		if r.Sites[i].Exec() {
			n++
		}
	}
	return n
}

// AllProven reports whether every executable site is proven safe.
func (r *Report) AllProven() bool { return r.Proven() == r.Total() }

// Unproven returns the sites the analysis could not discharge.
func (r *Report) Unproven() []Site {
	var out []Site
	for i := range r.Sites {
		if !r.Sites[i].Proven {
			out = append(out, r.Sites[i])
		}
	}
	return out
}

// Summary is a one-line digest for logs and tool output.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "safecheck: %d/%d guarded sites proven safe", r.Proven(), r.Total())
	jr, jrOK := 0, 0
	for i := range r.Sites {
		if !r.Sites[i].Exec() {
			jr++
			if r.Sites[i].Proven {
				jrOK++
			}
		}
	}
	if jr > 0 {
		fmt.Fprintf(&b, ", %d/%d indirect jumps in-image", jrOK, jr)
	}
	if r.Exhausted {
		b.WriteString(" (analysis budget exhausted)")
	}
	return b.String()
}

// Options configures Analyze.
type Options struct {
	// Src attributes sites to func:line (see schedcheck.NewSourceMap).
	Src schedcheck.SourceMap
	// MaxVisits caps the word transfers the fixpoint executes (0 means a
	// generous default, max(50000, 64 × words)); the reporting sweep is not
	// charged. Running out in the ascending phase gives up and reports every
	// site unproven with Report.Exhausted set (a soundness-preserving bail-out
	// for pathological fuzz images); running out in the descending phase
	// merely stops narrowing early, which is still sound.
	MaxVisits int
}

// Analyze runs the abstract interpretation over the whole image and returns
// the per-site verdicts. It never fails: an image it cannot reason about
// simply gets no proven sites.
func Analyze(img *isa.Image, opts Options) *Report {
	a := newAnalyzer(img, opts)
	rep := &Report{Words: len(img.Instrs), img: img}
	a.run(rep)
	rep.Transfers = a.transfers
	return rep
}

func newAnalyzer(img *isa.Image, opts Options) *analyzer {
	budget := opts.MaxVisits
	if budget <= 0 {
		budget = max(defaultBudget, 64*len(img.Instrs))
	}
	return &analyzer{img: img, memLen: img.RequiredMem(), src: opts.Src, budget: budget}
}

// addMemSite classifies one load/store: the effective address interval must
// sit inside RAM and its congruence must pin the access-size alignment.
// eaOf sums the two int32 operands in int64, so the interval here is the
// raw sum — no wrap to model.
func (a *analyzer) addMemSite(rep *Report, w int, s *mach.SlotOp, st *state) {
	o := &s.Op
	size := int64(o.Type.Size())
	if size != 4 && size != 8 {
		rep.add(a.site(w, s, false, fmt.Sprintf("unsupported access size %d", size)))
		return
	}
	if !o.A.IsImm && !o.A.Reg.Valid() {
		// eaOf rejects this operand shape before summing (the checked
		// tier faults); a guard-free variant would compute a different
		// address, so the site can never be proven.
		rep.add(a.site(w, s, false, "address operand has no register"))
		return
	}
	va, vb := a.argVal(st, o.A), a.argVal(st, o.B)
	eaLo, eaHi := va.Lo+vb.Lo, va.Hi+vb.Hi
	m := gcd(va.M, vb.M)
	r := va.R + vb.R
	ea := fmt.Sprintf("ea %s+%s", va, vb)
	inRAM := eaLo >= ir.GlobalBase && eaHi <= a.memLen-size
	aligned := mod(r, size) == 0 && (m == 0 || m%size == 0)
	if inRAM && aligned {
		rep.add(a.site(w, s, true,
			fmt.Sprintf("%s in ram [%d,%d), %d-aligned", ea, int64(ir.GlobalBase), a.memLen, size)))
		return
	}
	var why []string
	if !inRAM {
		why = append(why, fmt.Sprintf("%s may escape ram [%d,%d)", ea, int64(ir.GlobalBase), a.memLen))
	}
	if !aligned {
		why = append(why, fmt.Sprintf("%s not provably %d-aligned", ea, size))
	}
	rep.add(a.site(w, s, false, strings.Join(why, "; ")))
}

// addDivSite classifies one integer divide/remainder: the divisor's
// abstract value must exclude zero.
func (a *analyzer) addDivSite(rep *Report, w int, s *mach.SlotOp, st *state) {
	d := a.argVal(st, s.Op.B)
	if d.ExcludesZero() {
		rep.add(a.site(w, s, true, fmt.Sprintf("divisor %s excludes zero", d)))
	} else {
		rep.add(a.site(w, s, false, fmt.Sprintf("divisor %s may be zero", d)))
	}
}

// addJmpRSite classifies one indirect jump: report-only (the PC guard stays
// dynamic), but the verdict tells a reader whether return addresses can be
// proven in-image.
func (a *analyzer) addJmpRSite(rep *Report, w int, s *mach.SlotOp, st *state) {
	t := a.argVal(st, s.Op.A)
	n := int64(len(a.img.Instrs))
	if t.Lo >= 0 && t.Hi < n {
		rep.add(a.site(w, s, true, fmt.Sprintf("target %s inside image [0,%d)", t, n)))
	} else {
		rep.add(a.site(w, s, false, fmt.Sprintf("target %s may leave image [0,%d)", t, n)))
	}
}
