package tsched_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/tsched"
)

// eachScheduledFunc hands visit every scheduled function a compile of src
// allocates registers for — every rung of the trace-length ladder inside
// tsched.CompileParallel and every §8.4 retry of core.CompileIR included.
// visit returns the allocator's own verdict, which steers the two ladders
// exactly as in the real drivers, and a test failure.
func eachScheduledFunc(src string, cfg mach.Config, o opt.Options,
	visit func(*tsched.SFunc) (allocErr, failure error)) error {
	prog, err := lang.Compile(src)
	if err != nil {
		return err
	}
	// full reports whether a bank overflowed on every rung of f's ladder.
	full := func(work *ir.Program, f *ir.Func, prof ir.EdgeWeights, layout map[string]int64) (bool, error) {
		vf, err := tsched.LowerFunc(work, f, f.Name == "main")
		if err != nil {
			return false, err
		}
		for _, maxBlocks := range tsched.RetryLadder(0) {
			sf, err := tsched.Assemble(cfg, vf, prof, layout, maxBlocks)
			var size *tsched.ErrScheduleSize
			if errors.As(err, &size) {
				continue
			}
			if err != nil {
				return false, err
			}
			allocErr, failure := visit(sf)
			if failure != nil || allocErr == nil {
				return false, failure
			}
			var pressure *tsched.ErrPressure
			if !errors.As(allocErr, &pressure) {
				return false, allocErr
			}
		}
		return true, nil
	}
	for {
		work := prog.Clone()
		pctx := pipeline.NewContext()
		passes := append(opt.Passes(o), profile.Pass(false))
		if err := pipeline.Run(context.Background(), work, pctx, passes...); err != nil {
			return err
		}
		layout, _ := ir.LayoutGlobals(work)
		retry := false
		for _, f := range work.Funcs {
			overflow, err := full(work, f, pctx.Profile[f.Name], layout)
			if err != nil {
				return err
			}
			retry = retry || overflow
		}
		switch {
		case !retry:
			return nil
		case o.UnrollFactor > 1:
			o.UnrollFactor /= 2
		case o.Inline:
			o.Inline = false
		default:
			return nil // the matrix's compile-error images
		}
	}
}

// matrixVerdict is what CheckAllocate and DeadCompOps found on one program of
// the matrix, over Trace 7/14/28 × O0/O2. The tests below judge the same
// functions, so the walk (and the oracle, which is most of its cost) runs once
// per program.
type matrixVerdict struct {
	once                        sync.Once
	mismatch, unsound, deadComp []string
	funcs, allocations          int
}

var matrixVerdicts sync.Map // program name -> *matrixVerdict

func judgeProgram(p testmatrix.Program) *matrixVerdict {
	e, _ := matrixVerdicts.LoadOrStore(p.Key(), new(matrixVerdict))
	v := e.(*matrixVerdict)
	v.once.Do(func() {
		for _, c := range testmatrix.Machines {
			for _, lv := range testmatrix.MatrixLevels {
				at := c.Name + "/" + lv.Name + ": "
				err := eachScheduledFunc(p.Src, c.Cfg, lv.Opt, func(sf *tsched.SFunc) (error, error) {
					allocErr, mismatch, unsound := tsched.CheckAllocate(sf, c.Cfg)
					for _, d := range tsched.DeadCompOps(sf, c.Cfg) {
						v.deadComp = append(v.deadComp, at+d)
					}
					v.funcs++
					if allocErr == nil {
						v.allocations++
					}
					if mismatch != nil {
						v.mismatch = append(v.mismatch, at+mismatch.Error())
					}
					if unsound != nil {
						v.unsound = append(v.unsound, at+unsound.Error())
					}
					return allocErr, nil
				})
				if err != nil {
					v.mismatch = append(v.mismatch, at+err.Error())
					v.unsound = append(v.unsound, at+err.Error())
				}
			}
		}
	})
	return v
}

// TestAllocateMatchesReference holds the allocator to the map-based one it
// replaced (regalloc_ref_test.go) on every function of the golden matrix:
// equal liveness sets, equal neighbour sets, the same physical register for
// every virtual one, and the same *ErrPressure when a bank is full.
func TestAllocateMatchesReference(t *testing.T) {
	for _, p := range testmatrix.Programs(t, testmatrix.Matrix...) {
		t.Run(p.Key(), func(t *testing.T) {
			t.Parallel()
			v := judgeProgram(p)
			for _, m := range v.mismatch {
				t.Error(m)
			}
			if v.allocations == 0 {
				t.Errorf("no function was allocated (%d reached the allocator)", v.funcs)
			}
		})
	}
}

// TestCompensationOpsAreRead: on every function of the golden matrix, each
// op of a split's compensation block is a load, a divide, a store or another
// op with an effect of its own, or something reads its result — a later op of
// the block, or the code the block jumps to (splitCompOps leaves out the pure
// ops nothing reads).
func TestCompensationOpsAreRead(t *testing.T) {
	for _, p := range testmatrix.Programs(t, testmatrix.Matrix...) {
		t.Run(p.Key(), func(t *testing.T) {
			t.Parallel()
			for _, d := range judgeProgram(p).deadComp {
				t.Error(d)
			}
		})
	}
}

// pressureSrc keeps 2k float values live at once: k loaded before a loop-free
// sum and k more products of it.
func pressureSrc(k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "var a [%d]float\nfunc main() int {\n", k+8)
	fmt.Fprintf(&sb, "\tfor (var i int = 0; i < %d; i = i + 1) { a[i] = float(i %% 7) + 0.5 }\n", k+8)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "\tvar t%d float = a[%d]\n", i, i)
	}
	sb.WriteString("\tvar s float = t0")
	for i := 1; i < k; i++ {
		fmt.Fprintf(&sb, " + t%d", i)
	}
	sb.WriteString("\n\tvar r float = t0*s")
	for i := 1; i < k; i++ {
		fmt.Fprintf(&sb, " + t%d*s", i)
	}
	sb.WriteString("\n\treturn int(r) & 65535\n}\n")
	return sb.String()
}

// TestAllocatePressureParity shrinks a bank until a program that compiles on
// the full machine overflows it (the store file cannot: the scheduler bounds
// its own footprint there), and requires the allocator and the oracle to name
// the same bank in the same *ErrPressure on every rung of both retry ladders:
// the §8.4 ladder keys on which error comes back first.
func TestAllocatePressureParity(t *testing.T) {
	src := pressureSrc(16)
	shrunk := []struct {
		name   string
		shrink func(*mach.Config)
	}{
		{"F", func(c *mach.Config) { c.FRegsPerBank = 12 }},
		{"I", func(c *mach.Config) { c.IRegsPerBank = 16 }},
		{"B", func(c *mach.Config) { c.BranchBank = 1 }},
	}
	for _, base := range testmatrix.Machines {
		for _, s := range shrunk {
			cfg := base.Cfg
			s.shrink(&cfg)
			overflows := 0
			err := eachScheduledFunc(src, cfg, opt.Default(), func(sf *tsched.SFunc) (error, error) {
				allocErr, mismatch, _ := tsched.CheckAllocate(sf, cfg)
				var ep *tsched.ErrPressure
				if errors.As(allocErr, &ep) {
					overflows++
				}
				return allocErr, mismatch
			})
			if err != nil {
				t.Errorf("%s with a shrunken %s bank: %v", base.Name, s.name, err)
			}
			if overflows == 0 {
				t.Errorf("%s with a shrunken %s bank: no bank overflowed, the test exercises nothing", base.Name, s.name)
			}
		}
	}
}

// TestAllocationSound checks the allocator's contract directly, with no
// oracle: on the golden matrix, and on TestParallelCompileDeterminism's
// programs at full optimization, no definition shares a physical register
// with anything live, or reachable while its write is in flight, in the same
// bank.
func TestAllocationSound(t *testing.T) {
	for _, p := range testmatrix.Programs(t, testmatrix.Matrix...) {
		t.Run(p.Key(), func(t *testing.T) {
			t.Parallel()
			for _, m := range judgeProgram(p).unsound {
				t.Error(m)
			}
		})
	}
	// "j/" sets the kernels' leg apart from the matrix's.
	for _, w := range testmatrix.Programs(t, testmatrix.Kernels, testmatrix.MixedApp) {
		t.Run("j/"+w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := mach.Trace28()
			err := eachScheduledFunc(w.Src, cfg, opt.Default(), func(sf *tsched.SFunc) (error, error) {
				return tsched.CheckAllocationSound(sf, cfg)
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}
