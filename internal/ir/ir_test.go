package ir

import (
	"strings"
	"testing"
)

// buildCountdown builds:
//
//	func main() int { s := 0; for i := 10; i > 0; i-- { s += i }; print_i(s); return s }
func buildCountdown(t *testing.T) *Program {
	f := NewFunc("main", I32)
	b := NewBuilder(f)
	entry := f.Entry()
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	s0 := b.ConstI(0)
	i0 := b.ConstI(10)
	// loop-carried values in fixed registers (no SSA: re-assign same regs)
	s := f.NewReg(I32)
	i := f.NewReg(I32)
	b.Emit(Op{Kind: Mov, Type: I32, Dst: s, Args: []Reg{s0}})
	b.Emit(Op{Kind: Mov, Type: I32, Dst: i, Args: []Reg{i0}})
	b.Br(head)

	b.SetBlock(head)
	zero := b.ConstI(0)
	c := b.Bin(CmpGT, I32, i, zero)
	b.CondBr(c, body, exit)

	b.SetBlock(body)
	b.Emit(Op{Kind: Add, Type: I32, Dst: s, Args: []Reg{s, i}})
	one := b.ConstI(1)
	b.Emit(Op{Kind: Sub, Type: I32, Dst: i, Args: []Reg{i, one}})
	b.Br(head)

	b.SetBlock(exit)
	b.Call("print_i", Void, s)
	b.Ret(s)

	p := &Program{Funcs: []*Func{f}}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

func TestInterpCountdown(t *testing.T) {
	p := buildCountdown(t)
	in := &Interp{Prog: p}
	v, out, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v != 55 {
		t.Errorf("exit = %d, want 55", v)
	}
	if out != "55\n" {
		t.Errorf("out = %q, want %q", out, "55\n")
	}
}

func TestInterpProfile(t *testing.T) {
	p := buildCountdown(t)
	prof := Profile{}
	in := &Interp{Prog: p, Profile: prof}
	if _, _, err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	m := prof["main"]
	if m[[2]int{1, 2}] != 10 { // head -> body taken 10 times
		t.Errorf("head->body = %v, want 10", m[[2]int{1, 2}])
	}
	if m[[2]int{1, 3}] != 1 { // head -> exit once
		t.Errorf("head->exit = %v, want 1", m[[2]int{1, 3}])
	}
	if w := prof.BlockWeight(p.Func("main"), 2); w != 10 {
		t.Errorf("BlockWeight(body) = %v, want 10", w)
	}
}

func TestValidateCatchesBadIR(t *testing.T) {
	f := NewFunc("main", I32)
	b := NewBuilder(f)
	v := b.ConstI(1)
	b.Ret(v)
	p := &Program{Funcs: []*Func{f}}
	if err := p.Validate(); err != nil {
		t.Fatalf("good program rejected: %v", err)
	}

	// terminator in the middle
	f2 := NewFunc("main", I32)
	b2 := NewBuilder(f2)
	v2 := b2.ConstI(1)
	b2.Ret(v2)
	b2.Emit(Op{Kind: Nop})
	if err := (&Program{Funcs: []*Func{f2}}).Validate(); err == nil {
		t.Error("mid-block terminator not rejected")
	}

	// type mismatch
	f3 := NewFunc("main", I32)
	b3 := NewBuilder(f3)
	x := b3.ConstF(1.5)
	r := f3.NewReg(I32)
	f3.Entry().Ops = append(f3.Entry().Ops, Op{Kind: Add, Type: I32, Dst: r, Args: []Reg{x, x}})
	b3.Ret(r)
	if err := (&Program{Funcs: []*Func{f3}}).Validate(); err == nil {
		t.Error("f64 operand to add not rejected")
	}

	// branch target out of range
	f4 := NewFunc("main", I32)
	f4.Entry().Ops = append(f4.Entry().Ops, Op{Kind: Br, T0: 99})
	if err := f4.Validate(); err == nil {
		t.Error("out-of-range branch not rejected")
	}
}

func TestDominatorsAndLoops(t *testing.T) {
	p := buildCountdown(t)
	f := p.Func("main")
	idom := f.Idom()
	// entry(0) dominates all; head(1) dominates body(2) and exit(3)
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 1 {
		t.Errorf("idom = %v", idom)
	}
	if !Dominates(idom, 0, 3) || !Dominates(idom, 1, 2) || Dominates(idom, 2, 3) {
		t.Error("Dominates answers wrong")
	}
	loops := f.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Head != 1 || !l.Body[1] || !l.Body[2] || l.Body[3] {
		t.Errorf("loop = head %d body %v", l.Head, l.Body)
	}
	exits := l.Exits(p.Func("main"))
	if len(exits) != 1 || exits[0] != [2]int{1, 3} {
		t.Errorf("exits = %v", exits)
	}
}

func TestLiveness(t *testing.T) {
	p := buildCountdown(t)
	f := p.Func("main")
	lv := f.ComputeLiveness()
	// s and i (the two Mov destinations in entry) are live into head
	var s, i Reg
	for _, op := range f.Entry().Ops {
		if op.Kind == Mov {
			if s == None {
				s = op.Dst
			} else {
				i = op.Dst
			}
		}
	}
	if !lv.In[1].Has(s) || !lv.In[1].Has(i) {
		t.Errorf("s,i not live into loop head: in=%v", lv.In[1])
	}
	// i is dead out of the exit block; s is dead after ret
	if lv.Out[3].Has(s) || lv.Out[3].Has(i) {
		t.Error("values live out of exit block")
	}
}

func TestRegSet(t *testing.T) {
	s := NewRegSet(200)
	if s.Has(5) {
		t.Error("empty set has 5")
	}
	if !s.Add(5) || s.Add(5) {
		t.Error("Add change reporting wrong")
	}
	if !s.Has(5) || s.Has(6) {
		t.Error("membership wrong")
	}
	s.Add(130)
	if s.Count() != 2 {
		t.Errorf("count = %d, want 2", s.Count())
	}
	s.Remove(5)
	if s.Has(5) || s.Count() != 1 {
		t.Error("remove failed")
	}
	t2 := NewRegSet(200)
	t2.Add(7)
	if !t2.UnionWith(s) || !t2.Has(130) {
		t.Error("union failed")
	}
	if t2.UnionWith(s) {
		t.Error("idempotent union reported change")
	}
	if s.Add(None) || s.Has(None) {
		t.Error("None must never join a set")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := NewFunc("main", I32)
	b := NewBuilder(f)
	dead := b.NewBlock()
	tail := b.NewBlock()
	b.SetBlock(f.Entry())
	b.Br(tail)
	b.SetBlock(dead)
	b.Br(tail)
	b.SetBlock(tail)
	v := b.ConstI(7)
	b.Ret(v)
	if n := f.RemoveUnreachable(); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("validate after removal: %v", err)
	}
	in := &Interp{Prog: &Program{Funcs: []*Func{f}}}
	if v, _, err := in.Run(); err != nil || v != 7 {
		t.Fatalf("run = %d, %v", v, err)
	}
}

func TestSpeculativeLoadFunnyNumber(t *testing.T) {
	f := NewFunc("main", I32)
	b := NewBuilder(f)
	addr := b.ConstI(0) // null: below GlobalBase
	r := f.NewReg(I32)
	b.Emit(Op{Kind: LoadSpec, Type: I32, Dst: r, Args: []Reg{addr}})
	b.Ret(r)
	in := &Interp{Prog: &Program{Funcs: []*Func{f}}}
	v, _, err := in.Run()
	if err != nil {
		t.Fatalf("speculative load trapped: %v", err)
	}
	if int64(v) != FunnyI32 {
		t.Errorf("got %d, want funny number %d", v, FunnyI32)
	}

	// a plain Load at the same address must fault
	f2 := NewFunc("main", I32)
	b2 := NewBuilder(f2)
	addr2 := b2.ConstI(0)
	r2 := f2.NewReg(I32)
	b2.Emit(Op{Kind: Load, Type: I32, Dst: r2, Args: []Reg{addr2}})
	b2.Ret(r2)
	in2 := &Interp{Prog: &Program{Funcs: []*Func{f2}}}
	if _, _, err := in2.Run(); err == nil {
		t.Error("plain load of null did not bus-error")
	} else if !strings.Contains(err.Error(), "bus error") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestGlobalsAndMemory(t *testing.T) {
	g := &Global{Name: "a", Elem: F64, Count: 4, InitF: []float64{1, 2, 3, 4}}
	f := NewFunc("main", I32)
	b := NewBuilder(f)
	base := b.GAddr("a")
	x := b.Load(F64, base, 8)  // a[1] == 2
	y := b.Load(F64, base, 24) // a[3] == 4
	s := b.Bin(FMul, F64, x, y)
	b.Store(F64, base, 0, s) // a[0] = 8
	z := b.Load(F64, base, 0)
	b.Call("print_f", Void, z)
	r := b.ConstI(0)
	b.Ret(r)
	p := &Program{Funcs: []*Func{f}, Globals: []*Global{g}}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	in := &Interp{Prog: p}
	_, out, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out != "8\n" {
		t.Errorf("out = %q, want 8", out)
	}
}

func TestCallsAndFrames(t *testing.T) {
	// func add3(a int, b int, c int) int { return a+b+c } with a frame slot
	callee := NewFunc("add3", I32)
	a := callee.NewReg(I32)
	bb := callee.NewReg(I32)
	c := callee.NewReg(I32)
	callee.Params = []Param{{a, I32}, {bb, I32}, {c, I32}}
	callee.FrameSize = 16
	cb := NewBuilder(callee)
	slot := cb.FrAddr(8)
	cb.Store(I32, slot, 0, a)
	t1 := cb.Bin(Add, I32, bb, c)
	back := cb.Load(I32, slot, 0)
	t2 := cb.Bin(Add, I32, t1, back)
	cb.Ret(t2)

	f := NewFunc("main", I32)
	b := NewBuilder(f)
	x := b.ConstI(10)
	y := b.ConstI(20)
	z := b.ConstI(30)
	r := b.Call("add3", I32, x, y, z)
	b.Ret(r)
	p := &Program{Funcs: []*Func{f, callee}}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	in := &Interp{Prog: p}
	v, _, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v != 60 {
		t.Errorf("got %d, want 60", v)
	}
}

func TestStepLimit(t *testing.T) {
	f := NewFunc("main", I32)
	b := NewBuilder(f)
	b.Br(f.Entry()) // infinite loop
	in := &Interp{Prog: &Program{Funcs: []*Func{f}}, StepLimit: 1000}
	if _, _, err := in.Run(); err == nil {
		t.Error("infinite loop not caught by step limit")
	}
}

func TestOpString(t *testing.T) {
	f := NewFunc("g", Void)
	b := NewBuilder(f)
	x := b.ConstI(42)
	y := b.Load(I32, x, 4)
	b.Store(I32, x, 8, y)
	b.Ret(None)
	s := f.String()
	for _, want := range []string{"consti", "[v1+4]", "store", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
}

func TestRPOAndPreds(t *testing.T) {
	p := buildCountdown(t)
	f := p.Func("main")
	rpo := f.RPO()
	if rpo[0] != 0 {
		t.Errorf("rpo starts at %d", rpo[0])
	}
	pos := map[int]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	if pos[0] > pos[1] || pos[1] > pos[3] {
		t.Errorf("rpo order wrong: %v", rpo)
	}
	preds := f.Preds()
	if len(preds[1]) != 2 { // entry and body
		t.Errorf("head preds = %v", preds[1])
	}
}

// TestInterpCallDepthLimit: a zero-frame recursive function never moves sp,
// so the sp-based stack-overflow check can't fire; without the depth guard
// the interpreter would recurse the host stack to death.
func TestInterpCallDepthLimit(t *testing.T) {
	p := &Program{}
	f := NewFunc("spin", I32)
	b := NewBuilder(f)
	b.Ret(b.Call("spin", I32))
	m := NewFunc("main", I32)
	bm := NewBuilder(m)
	bm.Ret(bm.Call("spin", I32))
	p.Funcs = []*Func{m, f}

	in := &Interp{Prog: p, MaxDepth: 500}
	_, _, err := in.Run()
	if err == nil {
		t.Fatal("unbounded zero-frame recursion did not error")
	}
	if !strings.Contains(err.Error(), "call depth limit") {
		t.Errorf("wrong diagnostic: %v", err)
	}
}
