package tsched_test

// External package: these tests drive the whole pipeline through core, which
// imports tsched — they verify that the compensation code the stitcher emits
// actually executes correctly when the off-trace paths are taken at runtime.

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// compensationPrograms take their off-trace edges at runtime: the break
// fires at i=2, the diamond's cold arm runs for negative elements, and the
// three-exit loop leaves through the first break — so restore moves and
// re-executed compensation ops are on the executed path, not just emitted.
var compensationPrograms = map[string]string{
	"split-live-break": `
var p [16]int = {1, 2, 901}
func main() int {
	var s int = 0
	var t int = 1
	for (var i int = 0; i < 16; i = i + 1) {
		s = s + p[i] * 3
		t = t ^ (s + i)
		if (p[i] > 900) { break }
	}
	print_i(t & 255)
	return (s * 5 + t) & 65535
}
`,
	"join-rejoin": `
var q [8]int = {5, -3, 7, 2, -9, 4, 1, 0}
func main() int {
	var acc int = 0
	for (var i int = 0; i < 8; i = i + 1) {
		var v int = q[i]
		if (v < 0) { v = 0 - v * 3 }
		acc = acc + v * (i + 1)
	}
	return acc & 65535
}
`,
	"every-exit-compensated": `
var p [8]int = {10, 20, 30, 40, 50, 60, 70, 80}
func main() int {
	var s int = 0
	var t int = 7
	for (var i int = 0; i < 8; i = i + 1) {
		s = s + p[i]
		t = t * 3 + i
		if (s > 90) { break }
		t = t - p[i] / 2
		if (t > 800) { break }
		s = s ^ (t & 15)
		if ((s + t) > 950) { break }
	}
	print_i(s & 255)
	return (s * 9 + t) & 65535
}
`,
}

// TestCompensationPathsExecuteCorrectly compiles each program at every
// machine width and optimization level and requires the VLIW run to match
// the IR interpreter exactly — with compensation ops present in the build,
// so agreement proves the compensation code itself, not its absence.
func TestCompensationPathsExecuteCorrectly(t *testing.T) {
	for name, src := range compensationPrograms {
		for _, m := range testmatrix.Machines {
			for _, lv := range testmatrix.MatrixLevels {
				res, err := testmatrix.Compile(src, m.Cfg, lv.Opt)
				if err != nil {
					t.Errorf("%s %s: %v", name, m.Name, err)
					continue
				}
				wantV, wantOut, err := core.Interpret(res)
				if err != nil {
					t.Fatalf("%s: interp: %v", name, err)
				}
				gotV, gotOut, err := vliw.New(res.Image).Run()
				if err != nil {
					t.Errorf("%s %s/%s: machine fault: %v", name, m.Name, lv.Name, err)
					continue
				}
				if gotV != wantV || gotOut != wantOut {
					t.Errorf("%s %s/%s: got exit %d out %q, want %d %q",
						name, m.Name, lv.Name, gotV, gotOut, wantV, wantOut)
				}
			}
		}
		// at full width the build must actually contain compensation code
		res := testmatrix.MustCompile(t, src, mach.Trace28(), testmatrix.O0.Opt)
		comp := 0
		for _, fc := range res.Funcs {
			comp += fc.CompOps
		}
		if comp == 0 {
			t.Errorf("%s: no compensation ops in the build — test exercises nothing", name)
		}
	}
}
