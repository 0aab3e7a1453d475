package tsched

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/alias"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/profile"
)

func lower(t *testing.T, src, fn string) (*ir.Program, *VFunc) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	vf, err := LowerFunc(prog, f, fn == "main")
	if err != nil {
		t.Fatal(err)
	}
	return prog, vf
}

const loopSrc = `
var a [64]float
func main() int {
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + a[i] }
	return int(s)
}`

func TestLowerShapes(t *testing.T) {
	_, vf := lower(t, loopSrc, "main")
	// block 0 is the prologue, compacted like any block, and jumps to block 1
	if vf.Blocks[0].NoCompact {
		t.Error("prologue is NoCompact")
	}
	if tm := vf.Blocks[0].Term(); tm == nil || tm.Kind != mach.OpJmp || tm.T0 != 1 {
		t.Error("prologue does not jump to the first IR block")
	}
	// a NoCompact block is its transfer alone (here main's halt)
	for _, b := range vf.Blocks {
		if b.NoCompact && (len(b.Ops) != 1 || b.Ops[0].Kind != mach.OpHalt) {
			t.Errorf("b%d: NoCompact block holds %d ops, want the halt alone", b.ID, len(b.Ops))
		}
	}
	// main ends in OpHalt somewhere
	foundHalt := false
	foundBrT := false
	for _, b := range vf.Blocks {
		for i := range b.Ops {
			switch b.Ops[i].Kind {
			case mach.OpHalt:
				foundHalt = true
			case mach.OpBrT:
				foundBrT = true
				// branch conditions live in the branch bank
				if vf.Class(b.Ops[i].A.Reg) != ClassB {
					t.Error("BrT condition not in branch-bank class")
				}
			}
		}
	}
	if !foundHalt {
		t.Error("main has no halt")
	}
	if !foundBrT {
		t.Error("loop produced no conditional branch")
	}
}

func TestLowerStoreUsesStoreFile(t *testing.T) {
	_, vf := lower(t, `
var g [4]int
func main() int {
	g[1] = 42
	return g[1]
}`, "main")
	var movsf, store bool
	for _, b := range vf.Blocks {
		for i := range b.Ops {
			o := &b.Ops[i]
			if o.Kind == mach.OpMovSF {
				movsf = true
				if vf.Class(o.Dst) != ClassSF {
					t.Error("movsf dest not in store-file class")
				}
			}
			if o.Kind == ir.Store {
				store = true
				if vf.Class(o.C.Reg) != ClassSF {
					t.Error("store data not from the store file")
				}
			}
		}
	}
	if !movsf || !store {
		t.Error("store lowering did not route data through the store file")
	}
}

func TestCallSpillsAroundCalls(t *testing.T) {
	prog, err := lang.Compile(`
func f(x int) int { return x + 1 }
func main() int {
	var keep int = 10
	var r int = f(5)
	return keep + r
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	before := f.FrameSize
	insertCallSpills(f)
	if f.FrameSize <= before {
		t.Errorf("no spill slots allocated: frame %d -> %d", before, f.FrameSize)
	}
	// keep must be stored before the call and reloaded after
	var stores, loads int
	for _, b := range f.Blocks {
		for i := range b.Ops {
			switch b.Ops[i].Kind {
			case ir.Store:
				stores++
			case ir.Load:
				loads++
			}
		}
	}
	if stores == 0 || loads == 0 {
		t.Errorf("spill code missing: %d stores, %d loads", stores, loads)
	}
}

func TestSelectTracesCoversAllBlocks(t *testing.T) {
	prog, vf := lower(t, loopSrc, "main")
	prof := profile.Static(prog)["main"]
	traces := SelectTraces(vf, prof, 0)
	seen := map[int]bool{}
	for _, tr := range traces {
		if len(tr.Blocks) == 0 {
			t.Fatal("empty trace")
		}
		for i, b := range tr.Blocks {
			if seen[b] {
				t.Fatalf("block %d in two traces", b)
			}
			seen[b] = true
			// consecutive trace blocks must be CFG successors
			if i > 0 {
				prev := vf.Blocks[tr.Blocks[i-1]]
				ok := false
				for _, s := range prev.Succs() {
					if s == b {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("trace %v: %d does not flow to %d", tr.Blocks, tr.Blocks[i-1], b)
				}
			}
		}
	}
	for _, b := range vf.Blocks {
		if !seen[b.ID] {
			t.Errorf("block %d not in any trace", b.ID)
		}
	}
}

func TestSelectTracesMaxBlocks(t *testing.T) {
	prog, vf := lower(t, loopSrc, "main")
	prof := profile.Static(prog)["main"]
	for _, tr := range SelectTraces(vf, prof, 2) {
		if len(tr.Blocks) > 2 {
			t.Errorf("trace %v exceeds maxBlocks=2", tr.Blocks)
		}
	}
}

func TestLinearizeInvertsBranch(t *testing.T) {
	// A trace following the TAKEN side of a branch must invert the compare.
	_, vf := lower(t, `
func main() int {
	var s int = 0
	for (var i int = 0; i < 100; i = i + 1) {
		if (i % 2 == 0) { s = s + 1 } else { s = s + 2 }
	}
	return s
}`, "main")
	// build a trace that follows a conditional's T0 edge
	for _, b := range vf.Blocks {
		tm := b.Term()
		if tm == nil || tm.Kind != mach.OpBrT {
			continue
		}
		tr := Trace{Blocks: []int{b.ID, tm.T0}}
		if vf.Blocks[tm.T0].NoCompact {
			continue
		}
		g, err := linearize(vf, tr)
		if err != nil {
			t.Fatalf("linearize: %v", err)
		}
		// find the split: its taken target must now be the OLD fallthrough
		for _, s := range g.ops {
			if s.isSplit && s.vop.T0 == tm.T0 {
				t.Error("branch not inverted: taken edge still follows the trace")
			}
		}
		return
	}
	t.Skip("no suitable branch found")
}

func TestGlobalConsts(t *testing.T) {
	_, vf := lower(t, loopSrc, "main")
	layout := map[string]int64{"a": 0x2000}
	// some register must resolve to the global's absolute address
	found := false
	for _, c := range globalConsts(vf, layout) {
		if c == 0x2000 {
			found = true
		}
	}
	if !found {
		t.Error("global base address not derived")
	}
}

// TestFormDerivation walks a small op sequence the way buildDAG does: an
// unrolled a[i], a[i+1] pattern where i is live-in and the shift amount a
// function-level constant.
func TestFormDerivation(t *testing.T) {
	const i, sh, off, ea, base, v = 1, 2, 3, 4, 5, 6
	ops := []VOp{
		{Kind: ir.ConstI, Type: ir.I32, Dst: base, A: VSymArg("a")},
		{Kind: ir.Shl, Type: ir.I32, Dst: off, A: VRegArg(i), B: VRegArg(sh)},
		{Kind: ir.Add, Type: ir.I32, Dst: ea, A: VRegArg(base), B: VRegArg(off)},
		{Kind: ir.Load, Type: ir.F64, Dst: v, A: VRegArg(ea), B: VImmArg(0)},
		{Kind: ir.Add, Type: ir.I32, Dst: i, A: VRegArg(i), B: VImmArg(1)}, // i = i + 1
		{Kind: ir.Shl, Type: ir.I32, Dst: off, A: VRegArg(i), B: VRegArg(sh)},
		{Kind: ir.Add, Type: ir.I32, Dst: ea, A: VRegArg(base), B: VRegArg(off)},
		{Kind: ir.Load, Type: ir.F64, Dst: v, A: VRegArg(ea), B: VImmArg(0)},
	}
	refs := trackLoads(newFormTracker(map[string]int64{"a": 0x2000}, map[VReg]int64{sh: 3}), ops)
	if len(refs) != 2 {
		t.Fatalf("collected %d refs", len(refs))
	}
	if d := refs[1].Addr.Sub(refs[0].Addr); !d.IsConst() || d.Const != 8 {
		t.Fatalf("a[i+1]-a[i] = %s, want 8", d)
	}
	if got := alias.MayAlias(refs[0], refs[1]); got != alias.No {
		t.Errorf("unrolled refs alias = %s, want no", got)
	}
	// known global base: the bank is decidable for an 8-bank machine (mod 64)
	if got := alias.SameBank(refs[0], refs[1], 64); got != alias.No {
		t.Errorf("bank conflict = %s, want no", got)
	}
}

// TestFormOpaque checks the forms formTracker gives values it cannot derive:
// a nonlinear result and the address of a global with no layout entry.
func TestFormOpaque(t *testing.T) {
	const x, y, g, v = 1, 2, 3, 4
	ops := []VOp{
		{Kind: ir.Mul, Type: ir.I32, Dst: y, A: VRegArg(x), B: VRegArg(x)}, // nonlinear
		{Kind: ir.Load, Type: ir.I32, Dst: v, A: VRegArg(y), B: VImmArg(0)},
		{Kind: ir.Load, Type: ir.I32, Dst: v, A: VRegArg(y), B: VImmArg(0)},
		{Kind: ir.ConstI, Type: ir.I32, Dst: g, A: VSymArg("g1")}, // unlocated
		{Kind: ir.Load, Type: ir.I32, Dst: v, A: VRegArg(g), B: VImmArg(0)},
		{Kind: ir.Load, Type: ir.I32, Dst: v, A: VRegArg(g), B: VImmArg(8)},
	}
	refs := trackLoads(newFormTracker(nil, map[VReg]int64{}), ops)
	if len(refs) != 4 {
		t.Fatalf("collected %d refs", len(refs))
	}
	// the same opaque value is still comparable with itself
	if got := alias.MayAlias(refs[0], refs[1]); got != alias.Yes {
		t.Errorf("same opaque ref twice = %s, want yes", got)
	}
	// an unlocated global's base is unknown, but offsets from it still compare
	if got := alias.MayAlias(refs[2], refs[3]); got != alias.No {
		t.Errorf("g1[0] vs g1[2] = %s, want no", got)
	}
}

// trackLoads walks ops in order the way buildDAG does and returns the
// reference of each load.
func trackLoads(tr *formTracker, ops []VOp) []alias.Ref {
	var refs []alias.Ref
	for k := range ops {
		if o := &ops[k]; o.Kind == ir.Load {
			refs = append(refs, tr.refOf(o))
		}
		tr.note(&ops[k])
	}
	return refs
}

func TestCompileProducesEncodableCode(t *testing.T) {
	for _, pairs := range []int{1, 2, 4} {
		prog, err := lang.Compile(loopSrc)
		if err != nil {
			t.Fatal(err)
		}
		prof := profile.Static(prog)
		codes, err := CompileParallel(context.Background(), prog, mach.NewConfig(pairs), prof, CompileOptions{})
		if err != nil {
			t.Fatalf("pairs=%d: %v", pairs, err)
		}
		if len(codes) != 1 || len(codes[0].Instrs) == 0 {
			t.Fatalf("pairs=%d: no code", pairs)
		}
	}
}

func TestErrPressureMessage(t *testing.T) {
	e := &ErrPressure{Func: "f", Class: ClassF, Board: 2}
	if !strings.Contains(e.Error(), "F registers on board 2") {
		t.Errorf("message: %s", e.Error())
	}
}

func TestCollapseAddChains(t *testing.T) {
	vf := &VFunc{precolor: map[VReg]mach.PReg{}}
	vf.classes = []Class{ClassNone}
	vf.types = []ir.Type{ir.Void}
	i0 := vf.NewReg(ClassI, ir.I32)
	b := vf.AddBlock()
	mk := func(dst, src VReg, imm int32) VOp {
		return VOp{Kind: ir.Add, Type: ir.I32, Dst: dst, A: VRegArg(src), B: VImmArg(imm)}
	}
	i1 := vf.NewReg(ClassI, ir.I32)
	i1m := vf.NewReg(ClassI, ir.I32)
	i2 := vf.NewReg(ClassI, ir.I32)
	b.Ops = []VOp{
		mk(i1, i0, 1),
		{Kind: ir.Mov, Type: ir.I32, Dst: i1m, A: VRegArg(i1)},
		mk(i2, i1m, 1),
		{Kind: mach.OpJmp, T0: 0},
	}
	g, err := linearize(vf, Trace{Blocks: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	g.nameValues(vf.ComputeLiveness(), nil, true)
	// the second add must now read i0 directly with immediate 2
	var second *VOp
	for _, s := range g.ops {
		if s.vop.Kind == ir.Add && s.vop.B.Imm == 2 {
			second = &s.vop
		}
	}
	if second == nil {
		t.Fatal("chain not collapsed")
	}
	if second.A.Reg != i0 {
		t.Errorf("collapsed add reads t%d, want t%d", second.A.Reg, i0)
	}
}

func TestUnitClassRouting(t *testing.T) {
	vf := &VFunc{precolor: map[VReg]mach.PReg{}}
	vf.classes = []Class{ClassNone}
	vf.types = []ir.Type{ir.Void}
	fr := vf.NewReg(ClassF, ir.F64)
	fi := vf.NewReg(ClassF, ir.I32) // integer staged in an F bank
	iv := vf.NewReg(ClassI, ir.I32)

	cases := []struct {
		op   VOp
		want uclass
	}{
		{VOp{Kind: ir.Add, Type: ir.I32}, UIALUClass},
		{VOp{Kind: ir.FMul, Type: ir.F64}, UFMClass},
		{VOp{Kind: ir.FAdd, Type: ir.F64}, UFAClass},
		{VOp{Kind: ir.ItoF, Type: ir.F64, A: VRegArg(fi)}, UFAClass},
		{VOp{Kind: ir.Mov, Type: ir.F64, A: VRegArg(fr)}, UFEitherClass},
		// an I32-typed value in an F bank still needs an F-side unit
		{VOp{Kind: ir.Mov, Type: ir.I32, A: VRegArg(fi)}, UFEitherClass},
		{VOp{Kind: ir.Mov, Type: ir.I32, A: VRegArg(iv)}, UIALUClass},
		{VOp{Kind: mach.OpBrT}, UBRClass},
	}
	for _, c := range cases {
		op := c.op
		if got := unitClass(vf, &op); got != c.want {
			t.Errorf("unitClass(%s) = %v, want %v", op.String(), got, c.want)
		}
	}
}

// TestFailedCopySearchLeaksNoRegister pins insertCopy's bookkeeping: a search
// that finds no slot gives its copy register back — NumRegs, and with it
// every table sized from it, stays where it was, and nothing is homed or
// cached — and the next search that does find one gets that same number.
func TestFailedCopySearchLeaksNoRegister(t *testing.T) {
	_, vf := lower(t, loopSrc, "main")
	var home homes
	s := newScheduler(mach.Trace28(), vf, &home)
	r := vf.NewReg(ClassI, ir.I32)
	home.set(r, 0)
	before := vf.NumRegs()

	// no beat early enough to complete by beat 0
	if cp, ok := s.insertCopy(r, 1, 0); ok {
		t.Fatalf("copy t%d placed with no beat to run in", cp)
	}
	// every ALU slot of the source board taken across the whole window
	for beat := 0; beat < 2*80; beat++ {
		for alu := uint8(0); alu < 2; alu++ {
			s.res.row(beat)[unitSlot(mach.Unit{Kind: mach.UIALU, Pair: 0, Idx: alu})] = 1
		}
	}
	for try := 0; try < 3; try++ { // the second and third are answered from the memo
		if cp, ok := s.insertCopy(r, 1, 100+try%2); ok {
			t.Fatalf("copy t%d placed on a full board", cp)
		}
	}
	if n := vf.NumRegs(); n != before {
		t.Errorf("failed copy searches left NumRegs at %d, was %d", n, before)
	}
	if _, homed := home.get(VReg(before)); homed {
		t.Errorf("failed copy searches left t%d homed", before)
	}
	if cp := s.reg(r).copies[1]; cp != VNone {
		t.Errorf("failed copy searches cached t%d", cp)
	}

	// past the taken slots the search succeeds, with the register given back
	cp, ok := s.insertCopy(r, 1, 2*80+4)
	if !ok || cp != VReg(before) || vf.NumRegs() != before+1 {
		t.Fatalf("copy = t%d, %t with %d registers; want t%d with %d", cp, ok, vf.NumRegs(), before, before+1)
	}
	if h, _ := home.get(cp); h != 1 || s.reg(r).copies[1] != cp || len(s.placed) != 1 {
		t.Errorf("copy t%d: home %d, cached %d, %d ops placed", cp, h, s.reg(r).copies[1], len(s.placed))
	}
}

// TestRetryLadderTriesEachCapOnce pins the trace-length ladder: descending,
// and no cap twice (a repeated rung schedules and allocates a function again
// at a cap that has already failed).
func TestRetryLadderTriesEachCapOnce(t *testing.T) {
	for _, tc := range []struct {
		cap  int
		want []int
	}{
		{0, []int{0, 6, 2, 1}},
		{1, []int{1}},
		{2, []int{2, 1}},
		{3, []int{3, 2, 1}},
		{6, []int{6, 2, 1}},
		{7, []int{7, 2, 1}},
	} {
		if got := retryLadder(tc.cap); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("retryLadder(%d) = %v, want %v", tc.cap, got, tc.want)
		}
	}
}
