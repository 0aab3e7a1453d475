package schedcheck_test

// Whole-compiler tests: the checker must accept everything the compiler
// produces (the clean-matrix test) and reject schedules corrupted by
// realistic encoder/scheduler bugs (the mutation tests, which perturb real
// compiled images and assert the corruption is caught with word/beat/unit
// attribution). These live in an external test package because they drive
// internal/core, which will itself import schedcheck.

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// daxpy is testdata/daxpy.mf, compiled for Trace 7 at O2. The image is shared:
// a mutation clones it first.
func daxpy(t *testing.T) *core.Result {
	t.Helper()
	return testmatrix.MustCompile(t, testmatrix.Testdata.Get(t, "daxpy").Src, mach.Trace7(), testmatrix.O2.Opt)
}

// TestCleanMatrix is the soundness half of the acceptance bar: every image
// the compiler emits, across the full optimization × machine-width matrix,
// must verify with zero error findings.
func TestCleanMatrix(t *testing.T) {
	for _, p := range testmatrix.Testdata(t) {
		for _, lv := range testmatrix.Levels {
			for _, mc := range testmatrix.Machines {
				res := testmatrix.MustCompile(t, p.Src, mc.Cfg, lv.Opt)
				rep := schedcheck.Check(res.Image,
					schedcheck.Options{Src: schedcheck.NewSourceMap(res.Image, res.Funcs)})
				if errs := rep.Errors(); len(errs) != 0 {
					t.Errorf("%s %s %s: %d error findings, first: %s",
						p.Key(), lv.Name, mc.Name, len(errs), errs[0].String())
				}
				if rep.Reachable == 0 {
					t.Errorf("%s %s %s: CFG found nothing reachable", p.Key(), lv.Name, mc.Name)
				}
			}
		}
	}
}

// TestCleanIdeal: ideal-machine images skip resource checks but still get
// CFG and dataflow verification.
func TestCleanIdeal(t *testing.T) {
	res := testmatrix.MustCompile(t, testmatrix.Testdata.Get(t, "daxpy").Src, mach.IdealConfig(4), testmatrix.O2.Opt)
	rep := schedcheck.Check(res.Image, schedcheck.Options{})
	if errs := rep.Errors(); len(errs) != 0 {
		t.Fatalf("ideal image: %d error findings, first: %s", len(errs), errs[0].String())
	}
}

// cloneImage deep-copies the decoded instruction stream so a mutation never
// leaks into the next candidate.
func cloneImage(img *isa.Image) *isa.Image {
	out := img.CloneWithConfig(img.Cfg)
	out.Instrs = make([]mach.Instr, len(img.Instrs))
	for i := range img.Instrs {
		out.Instrs[i].Slots = append([]mach.SlotOp(nil), img.Instrs[i].Slots...)
	}
	return out
}

// TestMutationBeatSwap corrupts real schedules by swapping the beats of two
// ops sharing a functional unit (early <-> late), the classic
// pipeline-phase encoder bug, and requires the checker to catch it.
func TestMutationBeatSwap(t *testing.T) {
	res := daxpy(t)
	candidates, caught := 0, 0
	var first *schedcheck.Finding
	for a := range res.Image.Instrs {
		in := &res.Image.Instrs[a]
		for i := range in.Slots {
			for j := range in.Slots {
				if i == j || in.Slots[i].Unit != in.Slots[j].Unit ||
					in.Slots[i].Beat != 0 || in.Slots[j].Beat != 1 {
					continue
				}
				candidates++
				mut := cloneImage(res.Image)
				mut.Instrs[a].Slots[i].Beat, mut.Instrs[a].Slots[j].Beat = 1, 0
				rep := schedcheck.Check(mut, schedcheck.Options{})
				if errs := rep.Errors(); len(errs) > 0 {
					caught++
					if first == nil {
						f := errs[0]
						first = &f
						if f.Word != a {
							t.Errorf("finding attributed to word %d, mutation at word %d", f.Word, a)
						}
						if f.Unit == "" || f.Beat < 0 {
							t.Errorf("beat-swap finding lacks beat/unit attribution: %+v", f)
						}
					}
				}
			}
		}
	}
	if candidates == 0 {
		t.Fatal("no beat-swap candidates in the compiled image")
	}
	if caught == 0 {
		t.Fatalf("none of %d beat swaps caught", candidates)
	}
	t.Logf("beat swap: %d/%d candidates caught, e.g. %s", caught, candidates, first.String())
}

// TestMutationCloneWrite duplicates an op with a destination register onto
// the same unit class in the same word — the retirements collide, and the
// extra operand fetches can oversubscribe the read ports.
func TestMutationCloneWrite(t *testing.T) {
	res := daxpy(t)
	candidates, caught := 0, 0
	var first *schedcheck.Finding
	for a := range res.Image.Instrs {
		in := &res.Image.Instrs[a]
		for i := range in.Slots {
			s := in.Slots[i]
			if s.Unit.Kind != mach.UIALU || !s.Op.Dst.Valid() {
				continue
			}
			// Clone onto the pair's other I ALU in the same beat.
			other := s.Unit
			other.Idx = 1 - other.Idx
			if in.Find(other, s.Beat) != nil {
				continue
			}
			candidates++
			mut := cloneImage(res.Image)
			clone := s
			clone.Unit = other
			mut.Instrs[a].Slots = append(mut.Instrs[a].Slots, clone)
			rep := schedcheck.Check(mut, schedcheck.Options{})
			for _, f := range rep.Errors() {
				if f.Word != a {
					continue
				}
				if f.Check == schedcheck.CheckWriteRace || f.Check == schedcheck.CheckReadPorts ||
					f.Check == schedcheck.CheckMemRefs {
					caught++
					if first == nil {
						g := f
						first = &g
					}
					break
				}
			}
		}
	}
	if candidates == 0 {
		t.Fatal("no clone-write candidates in the compiled image")
	}
	if caught != candidates {
		t.Fatalf("only %d/%d cloned writes caught", caught, candidates)
	}
	t.Logf("clone write: %d/%d caught, e.g. %s", caught, candidates, first.String())
}

// TestMutationRetargetShadow redirects branches a few words off their real
// target, landing execution inside the latency shadow of in-flight writes
// on the destination path; the checker must prove a stale read on at least
// one such path. This is the off-trace variant the simulator cannot see
// without executing the branch.
func TestMutationRetargetShadow(t *testing.T) {
	res := daxpy(t)
	n := len(res.Image.Instrs)
	candidates := 0
	var first *schedcheck.Finding
	for a := range res.Image.Instrs {
		in := &res.Image.Instrs[a]
		for i := range in.Slots {
			s := in.Slots[i]
			if s.Op.Kind != mach.OpJmp && s.Op.Kind != mach.OpBrT {
				continue
			}
			for _, d := range []int{1, 2, 3, -1, -2, -3} {
				nt := s.Op.Target + d
				if nt < 0 || nt >= n || nt == s.Op.Target {
					continue
				}
				candidates++
				mut := cloneImage(res.Image)
				mut.Instrs[a].Slots[i].Op.Target = nt
				rep := schedcheck.Check(mut, schedcheck.Options{})
				for _, f := range rep.Errors() {
					if f.Check == schedcheck.CheckStaleRead {
						g := f
						first = &g
						break
					}
				}
				if first != nil {
					break
				}
			}
			if first != nil {
				break
			}
		}
		if first != nil {
			break
		}
	}
	if candidates == 0 {
		t.Fatal("no branches to retarget")
	}
	if first == nil {
		t.Fatalf("no retargeted branch (of %d candidates) produced a stale-read", candidates)
	}
	if first.Unit == "" || first.Beat < 0 {
		t.Fatalf("shadow finding lacks beat/unit attribution: %+v", first)
	}
	t.Logf("retarget shadow: caught after %d candidates: %s", candidates, first.String())
}

// TestSourceMapAttribution: findings on compiled code resolve to function
// names and source lines through tsched.FuncCode.
func TestSourceMapAttribution(t *testing.T) {
	res := daxpy(t)
	src := schedcheck.NewSourceMap(res.Image, res.Funcs)
	withLine := 0
	for a := range res.Image.Instrs {
		for _, s := range res.Image.Instrs[a].Slots {
			fn, line := src(a, s.Unit, s.Beat)
			if fn == "" {
				t.Fatalf("word %d slot %s has no containing function", a, s.Unit)
			}
			if line > 0 {
				withLine++
			}
		}
	}
	if withLine == 0 {
		t.Fatal("no slot resolved to a source line")
	}
}
