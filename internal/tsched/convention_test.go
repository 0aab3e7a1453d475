package tsched

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// convFunc returns fib's lowered function — for its convention registers —
// with its blocks replaced by ops: block i holds ops[i], and a block holding
// a call, syscall, jmpr or halt is NoCompact.
func convFunc(t *testing.T, ops ...[]VOp) *VFunc {
	t.Helper()
	_, vf := lower(t, fibSrc, "fib")
	vf.Blocks = nil
	for _, o := range ops {
		b := vf.AddBlock()
		b.Ops = o
		switch o[0].Kind {
		case mach.OpCall, mach.OpSyscall, mach.OpJmpR, mach.OpHalt:
			b.NoCompact = true
		}
	}
	return vf
}

func jmpTo(b int) VOp { return VOp{Kind: mach.OpJmp, T0: b} }

func movI(dst, src VReg) VOp { return VOp{Kind: ir.Mov, Type: ir.I32, Dst: dst, A: VRegArg(src)} }

// TestLivenessSeesConventionReads: block liveness counts what the transfers
// read of the convention — a call its arguments and the stack pointer, a
// return the return values and the link register, a syscall its first
// arguments, halt the integer return value — and what a call writes (the
// link register) is dead above it.
func TestLivenessSeesConventionReads(t *testing.T) {
	_, probe := lower(t, fibSrc, "fib")
	x := VReg(probe.NumRegs())
	vf := convFunc(t,
		[]VOp{movI(probe.ArgI[0], x), jmpTo(1)},
		[]VOp{{Kind: mach.OpCall, Dst: probe.LR, Sym: "f"}, jmpTo(2)},
		[]VOp{movI(probe.RVI, x), jmpTo(3)},
		[]VOp{{Kind: mach.OpJmpR, A: VRegArg(probe.LR)}},
		[]VOp{{Kind: mach.OpSyscall, Sym: "print_i"}, jmpTo(5)},
		[]VOp{{Kind: mach.OpHalt}},
	)
	if vf.NewReg(ClassI, ir.I32) != x {
		t.Fatal("x is not the next register")
	}
	lv := vf.ComputeLiveness()
	for _, c := range []struct {
		block int
		reg   VReg
		live  bool
		what  string
	}{
		{1, vf.ArgI[0], true, "the call reads its first argument"},
		{1, vf.ArgI[mach.MaxArgs-1], true, "the call reads every argument register"},
		{1, vf.ArgF[0], true, "the call reads the float arguments"},
		{1, vf.SP, true, "the call reads the stack pointer"},
		{1, vf.LR, false, "the call writes the link register"},
		{0, vf.ArgI[0], false, "the argument move writes it"},
		{0, x, true, "the argument move reads x"},
		{3, vf.RVI, true, "the return reads the integer return value"},
		{3, vf.RVF, true, "the return reads the float return value"},
		{3, vf.LR, true, "the return reads the link register"},
		{2, vf.LR, true, "the link register stays live down to the return"},
		{2, vf.RVI, false, "the return-value move writes it"},
		{4, vf.ArgI[0], true, "the syscall reads its integer argument"},
		{4, vf.ArgF[0], true, "the syscall reads its float argument"},
		{5, vf.RVI, true, "halt reads the integer return value"},
	} {
		if got := lv.In[c.block].Has(ir.Reg(c.reg)); got != c.live {
			t.Errorf("t%d live into b%d = %v, want %v: %s", c.reg, c.block, got, c.live, c.what)
		}
	}
}

// hasEdge reports a dependence from op i to op j that keeps j out of i's
// instruction or any earlier one.
func hasEdge(g *traceGraph, i, j int) bool {
	for _, e := range g.ops[i].succs {
		if e.to == j && e.instrDelta >= 1 {
			return true
		}
	}
	return false
}

// TestConventionWritesStayBelowSplitsThatReadThem: in a trace ending in a
// return, a write to a convention register may rise above a split only if
// the split's off-trace target does not read it. The target here calls: it
// reads the stack pointer (the release stays below) and, after the call,
// the return value (so does the return-value move), but writes the link
// register before anything reads it (the reload may rise). And the
// return-value move does not share a word with the op computing its source.
func TestConventionWritesStayBelowSplitsThatReadThem(t *testing.T) {
	_, probe := lower(t, fibSrc, "fib")
	x, bb, y := VReg(probe.NumRegs()), VReg(probe.NumRegs()+1), VReg(probe.NumRegs()+2)
	vf := convFunc(t,
		[]VOp{jmpTo(1)},
		[]VOp{{Kind: ir.CmpLT, Type: ir.I32, Dst: bb, A: VRegArg(x), B: VImmArg(2)},
			{Kind: mach.OpBrT, A: VRegArg(bb), T0: 3, T1: 2}},
		[]VOp{{Kind: ir.Add, Type: ir.I32, Dst: y, A: VRegArg(x), B: VImmArg(1)},
			movI(probe.RVI, y),
			{Kind: ir.Load, Type: ir.I32, Dst: probe.LR, A: VRegArg(probe.SP), B: VImmArg(16)},
			{Kind: ir.Add, Type: ir.I32, Dst: probe.SP, A: VRegArg(probe.SP), B: VImmArg(24)},
			jmpTo(4)},
		[]VOp{{Kind: mach.OpCall, Dst: probe.LR, Sym: "f"}, jmpTo(5)},
		[]VOp{{Kind: mach.OpJmpR, A: VRegArg(probe.LR)}},
		[]VOp{movI(x, probe.RVI), jmpTo(2)},
	)
	vf.NewReg(ClassI, ir.I32)
	vf.NewReg(ClassB, ir.I32)
	vf.NewReg(ClassI, ir.I32)
	cfg := mach.Trace28()
	lv := vf.ComputeLiveness()
	g, err := linearize(vf, Trace{Blocks: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g.nameValues(lv, nil, false)
	g.buildDAG(cfg, nil, nil, lv)
	split, load, release, rv, sum := -1, -1, -1, -1, -1
	for i, s := range g.ops {
		switch {
		case s.isSplit:
			split = i
		case s.vop.Kind == ir.Add && s.vop.Dst != vf.SP:
			sum = i
		case s.vop.Dst == vf.LR:
			load = i
		case s.vop.Dst == vf.SP:
			release = i
		case s.vop.Dst == vf.RVI:
			rv = i
		}
	}
	if split < 0 || load < 0 || release < 0 || rv < 0 || sum < 0 {
		t.Fatalf("trace lost an op: split %d, reload %d, release %d, return value %d, its source %d", split, load, release, rv, sum)
	}
	if hasEdge(g, split, load) {
		t.Error("the link reload is held below a split whose target writes the link register first")
	}
	if !hasEdge(g, split, release) {
		t.Error("the stack release may rise above a split whose target reads the stack pointer")
	}
	if !hasEdge(g, split, rv) {
		t.Error("the return-value move may rise above a split whose target reads the return value")
	}
	if !hasEdge(g, sum, rv) {
		t.Error("the return-value move may share a word with the op computing its source")
	}
}

// TestRenameKeepsHeadDefsLiveOffTrace: a parameter moved out of its
// argument register ahead of the trace's first exit keeps its register (no
// restore move re-establishes it where an edge leaving the trace reads it);
// a value computed from it that the exit reads too is renamed and restored,
// as any other.
func TestRenameKeepsHeadDefsLiveOffTrace(t *testing.T) {
	_, probe := lower(t, fibSrc, "fib")
	p, q, bb, r := VReg(probe.NumRegs()), VReg(probe.NumRegs()+1), VReg(probe.NumRegs()+2), VReg(probe.NumRegs()+3)
	vf := convFunc(t,
		[]VOp{jmpTo(1)},
		[]VOp{movI(p, probe.ArgI[0]),
			{Kind: ir.Add, Type: ir.I32, Dst: q, A: VRegArg(p), B: VImmArg(1)},
			{Kind: ir.CmpLT, Type: ir.I32, Dst: bb, A: VRegArg(q), B: VImmArg(2)},
			{Kind: mach.OpBrT, A: VRegArg(bb), T0: 3, T1: 2}},
		[]VOp{movI(probe.RVI, q), jmpTo(4)},
		[]VOp{{Kind: ir.Add, Type: ir.I32, Dst: r, A: VRegArg(p), B: VRegArg(q)}, movI(probe.RVI, r), jmpTo(4)},
		[]VOp{{Kind: mach.OpJmpR, A: VRegArg(probe.LR)}},
	)
	vf.NewReg(ClassI, ir.I32)
	vf.NewReg(ClassI, ir.I32)
	vf.NewReg(ClassB, ir.I32)
	vf.NewReg(ClassI, ir.I32)
	lv := vf.ComputeLiveness()
	g, err := linearize(vf, Trace{Blocks: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g.nameValues(lv, nil, false)
	if o := g.ops[0]; o.vop.Dst != p || !o.keepsName {
		t.Errorf("p, read off the trace, was renamed to t%d", o.vop.Dst)
	}
	if o := g.ops[1]; o.vop.Dst == q || o.keepsName {
		t.Error("q, computed at the head, kept its name")
	}
	for _, s := range g.ops {
		if s.isSplit {
			if m := restoreMovs(vf, lv, s.exit, s.target); s.target != 3 || len(m) != 1 || m[0].Dst != q {
				t.Errorf("the split restores %v, want q alone", m)
			}
		}
	}
}

// TestExitRestoresReadThroughMoves: in a one-block trace t = fadd a, a;
// x = mov t; jmp, the exit restores x from t's name, so it need not wait for
// the move, and the move stays. Behind a side entrance it does not: a source
// written above the join is not written on the joining path.
func TestExitRestoresReadThroughMoves(t *testing.T) {
	_, probe := lower(t, fibSrc, "fib")
	a, tv, x := VReg(probe.NumRegs()), VReg(probe.NumRegs()+1), VReg(probe.NumRegs()+2)
	fadd := VOp{Kind: ir.FAdd, Type: ir.F64, Dst: tv, A: VRegArg(a), B: VRegArg(a)}
	mov := VOp{Kind: ir.Mov, Type: ir.F64, Dst: x, A: VRegArg(tv)}
	vf := convFunc(t,
		[]VOp{jmpTo(1)},
		[]VOp{fadd, mov, jmpTo(2)},
		[]VOp{{Kind: ir.Mov, Type: ir.F64, Dst: probe.RVF, A: VRegArg(x)}, jmpTo(3)},
		[]VOp{{Kind: mach.OpJmpR, A: VRegArg(probe.LR)}},
		// b4 = b1 split at the move, with a second way into its lower half
		[]VOp{fadd, jmpTo(5)},
		[]VOp{mov, jmpTo(2)},
		[]VOp{fadd, jmpTo(5)},
	)
	for range 3 {
		vf.NewReg(ClassF, ir.F64)
	}
	lv := vf.ComputeLiveness()
	restoreOf := func(blocks ...int) (src VReg, g *traceGraph) {
		t.Helper()
		g, err := linearize(vf, Trace{Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		g.nameValues(lv, nil, false)
		for _, s := range g.ops {
			if s.isRestore && s.vop.Dst == x {
				return s.vop.A.Reg, g
			}
		}
		t.Fatalf("trace %v restores no x: %v", blocks, g.ops)
		return VNone, nil
	}
	src, g := restoreOf(1)
	if src != g.ops[0].vop.Dst {
		t.Errorf("the exit restores x from t%d, want the fadd's t%d", src, g.ops[0].vop.Dst)
	}
	if m := g.ops[1].vop; m.Kind != ir.Mov || m.A.Reg != g.ops[0].vop.Dst {
		t.Errorf("the move left the trace: op 1 is %v", m)
	}
	if src, g := restoreOf(4, 5); src != g.ops[1].vop.Dst {
		t.Errorf("behind the join the exit restores x from t%d, want the move's t%d", src, g.ops[1].vop.Dst)
	}
}

// TestSideEntranceStopsReadingThrough: nameValues reads through a register
// the trace wrote — an operand forwarded through a move, an add chain
// collapsed to its live-in, an exit restored from a move's source — but not
// through one written above a side entrance below which the read is: the
// joining path writes only the current names.
func TestSideEntranceStopsReadingThrough(t *testing.T) {
	_, probe := lower(t, fibSrc, "fib")
	a, x, y := VReg(probe.NumRegs()), VReg(probe.NumRegs()+1), VReg(probe.NumRegs()+2)
	addOne := func(dst, src VReg) VOp {
		return VOp{Kind: ir.Add, Type: ir.I32, Dst: dst, A: VRegArg(src), B: VImmArg(1)}
	}
	cases := []struct {
		name         string
		above, below VOp // x is written above, y below where the entrance is
		spread       bool
		exit         bool // check the exit's restore of y, not y's operand
	}{
		{"forwarding", movI(x, a), addOne(y, x), false, false},
		{"add chain", addOne(x, a), addOne(y, x), true, false},
		{"exit read-through", addOne(x, a), movI(y, x), false, true},
	}
	for _, c := range cases {
		for _, joined := range []bool{false, true} {
			blocks := [][]VOp{{jmpTo(1)}, {c.above, jmpTo(2)}, {c.below, jmpTo(3)},
				{movI(probe.RVI, y), jmpTo(4)}, {{Kind: mach.OpJmpR, A: VRegArg(probe.LR)}}}
			if joined {
				blocks = append(blocks, []VOp{jmpTo(2)})
			}
			vf := convFunc(t, blocks...)
			for range 3 {
				vf.NewReg(ClassI, ir.I32)
			}
			g, err := linearize(vf, Trace{Blocks: []int{1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			g.nameValues(vf.ComputeLiveness(), nil, c.spread)
			xName, yName := g.ops[0].vop.Dst, g.ops[1].vop.Dst
			got, through, stopped := g.ops[1].vop.A.Reg, a, xName
			if c.exit {
				got, through, stopped = VNone, xName, yName
				for _, s := range g.ops {
					if s.isRestore && s.vop.Dst == y {
						got = s.vop.A.Reg
					}
				}
			}
			if want := map[bool]VReg{false: through, true: stopped}[joined]; got != want {
				t.Errorf("%s, entrance below x %v: reads t%d, want t%d", c.name, joined, got, want)
			}
		}
	}
}

// TestRewrittenRegisterDropsItsCopies: a trace writes a precolored register
// again (the prologue's stack allocation) after a cross-board copy of its
// old value was made; later readers on that board must not be handed the
// stale copy.
func TestRewrittenRegisterDropsItsCopies(t *testing.T) {
	_, vf := lower(t, fibSrc, "fib")
	var home homes
	home.set(vf.SP, 0)
	s := newScheduler(mach.Trace28(), vf, &home)
	old, ok := s.insertCopy(vf.SP, 1, 4)
	if !ok {
		t.Fatal("no slot for a copy of the stack pointer")
	}
	alloc := &schedOp{vop: VOp{Kind: ir.Add, Type: ir.I32, Dst: vf.SP, A: VRegArg(vf.SP), B: VImmArg(-24)}, instr: -1}
	if !s.placeOn(alloc, unitChoice{mach.Unit{Kind: mach.UIALU, Pair: 0}, 0}, 3, 0, false) {
		t.Fatal("the stack allocation found no slot")
	}
	if cp := s.reg(vf.SP).copies[1]; cp != VNone {
		t.Fatalf("board 1 still reads t%d (a copy of the old stack pointer) after the allocation", cp)
	}
	cp, ok := s.insertCopy(vf.SP, 1, 20)
	if !ok || cp == old {
		t.Fatalf("copy after the allocation = t%d, %v; want a fresh one", cp, ok)
	}
	if e := s.reg(cp); e.avail < s.reg(vf.SP).avail+opLatency(&s.cfg, &VOp{Kind: ir.Mov, Type: ir.I32}) {
		t.Errorf("the new copy completes at beat %d, before the allocation lands at %d", e.avail, s.reg(vf.SP).avail)
	}
}

// TestTransferEndsItsTrace: a trace whose last block jumps to a transfer
// ends in the transfer itself. Every write of the trace lands by the word
// after it (the drain rule of restore moves), what halt reads has landed as
// it issues, and the transfer never shares an instruction with a split,
// whose priority it would ignore.
func TestTransferEndsItsTrace(t *testing.T) {
	_, probe := lower(t, fibSrc, "fib")
	x, bb, y, z := VReg(probe.NumRegs()), VReg(probe.NumRegs()+1), VReg(probe.NumRegs()+2), VReg(probe.NumRegs()+3)
	vf := convFunc(t,
		[]VOp{jmpTo(1)},
		[]VOp{{Kind: ir.CmpLT, Type: ir.I32, Dst: bb, A: VRegArg(x), B: VImmArg(2)},
			{Kind: mach.OpBrT, A: VRegArg(bb), T0: 3, T1: 2}},
		[]VOp{{Kind: ir.Load, Type: ir.I32, Dst: z, A: VRegArg(probe.SP), B: VImmArg(8)},
			{Kind: ir.Add, Type: ir.I32, Dst: y, A: VRegArg(x), B: VImmArg(1)},
			movI(probe.RVI, y), jmpTo(4)},
		[]VOp{movI(probe.RVI, x), jmpTo(4)},
		[]VOp{{Kind: mach.OpHalt}},
	)
	for range 4 {
		vf.NewReg(ClassI, ir.I32)
	}
	cfg := mach.Trace28()
	lv := vf.ComputeLiveness()
	g, err := linearize(vf, Trace{Blocks: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g.nameValues(lv, nil, false)
	g.buildDAG(cfg, nil, nil, lv)
	final := g.ops[g.finalIdx]
	if final.vop.Kind != mach.OpHalt || final.target != 4 {
		t.Fatalf("the trace ends in %s leaving to b%d; want the halt of b4", mach.OpName(final.vop.Kind), final.target)
	}
	edge := func(i int) (beats int, instrs int) {
		beats, instrs = -1, -1
		for _, e := range g.ops[i].succs {
			if e.to == g.finalIdx {
				beats, instrs = max(beats, e.minBeats), max(instrs, e.instrDelta)
			}
		}
		return beats, instrs
	}
	for i, s := range g.ops {
		beats, instrs := edge(i)
		switch {
		case s.isSplit:
			if instrs < 1 {
				t.Error("the halt may share the split's instruction")
			}
		case s.vop.Kind == ir.Load:
			if want := cfg.LatLoad - 2; beats < want {
				t.Errorf("the load holds the halt %d beats, want %d: it would land after the word behind it", beats, want)
			}
		case s.vop.Dst == vf.RVI:
			if want := opLatency(&cfg, &s.vop); beats < want {
				t.Errorf("the return-value move holds the halt %d beats, want %d: halt reads it as it issues", beats, want)
			}
		}
	}
}

// TestUnfoldDrainsTheFlightOfAnotherTrace stitches blocks by hand: a call
// ending a trace that a write from another trace is still in flight at
// moves into a serialized block of its own, padded for that write, behind a
// jump in its slot, and the continuation follows it there; a call nothing
// enters in flight stays where it is.
func TestUnfoldDrainsTheFlightOfAnotherTrace(t *testing.T) {
	_, vf := lower(t, fibSrc, "fib")
	br, alu := mach.Unit{Kind: mach.UBR}, mach.Unit{Kind: mach.UIALU}
	word := func(ss ...SSlot) SInstr { return SInstr{Slots: ss} }
	call := SSlot{Unit: br, Op: VOp{Kind: mach.OpCall, Dst: vf.LR, Sym: "f"}}
	halt := func() SInstr { return word(SSlot{Unit: br, Op: VOp{Kind: mach.OpHalt}}) }
	sf := &SFunc{VF: vf, Entry: 0, Blocks: []*SBlock{
		// a late-beat load (7 beats) leaves with the jump 6 beats out
		{Instrs: []SInstr{word(SSlot{Unit: alu, Beat: 1, Op: VOp{Kind: ir.Load, Type: ir.I32, Dst: vf.RVI, A: VRegArg(vf.SP)}},
			SSlot{Unit: br, Op: VOp{Kind: mach.OpJmp}, TargetBlock: 1})}},
		{Instrs: []SInstr{word(), word(call)}}, // the load is 4 beats out at its call
		{Instrs: []SInstr{halt()}},             // that call's continuation
		{Instrs: []SInstr{word(), word(call)}}, // nothing in flight enters
		{Instrs: []SInstr{halt()}},
	}}
	for i, b := range sf.Blocks {
		b.ID = i
	}
	sf.Blocks[1].Falls, sf.Blocks[3].Falls = sf.Blocks[2], sf.Blocks[4]
	st := &stitcher{cfg: mach.Trace28(), vf: vf, sf: sf}
	st.padSerial()
	if len(sf.Blocks) != 6 {
		t.Fatalf("%d blocks after padSerial, want one serialized block more than 5", len(sf.Blocks))
	}
	sb := sf.Blocks[5]
	if jump := sf.Blocks[1].Instrs[1].Slots[0]; jump.Op.Kind != mach.OpJmp || jump.TargetBlock != 5 {
		t.Errorf("the call in flight's way left %s behind, not a jump to its serialized block", mach.OpName(jump.Op.Kind))
	}
	if !sb.Serial || len(sb.Instrs) != 2 || len(sb.Instrs[0].Slots) != 0 || sb.Instrs[1].Slots[0].Op.Kind != mach.OpCall {
		t.Errorf("the serialized block is %+v; want one empty word (2 beats of flight), then the call", sb.Instrs)
	}
	if sf.Blocks[1].Falls != nil || sb.Falls != sf.Blocks[2] {
		t.Error("the continuation did not follow the call into its serialized block")
	}
	if sf.Blocks[3].Instrs[1].Slots[0].Op.Kind != mach.OpCall || sf.Blocks[3].Falls != sf.Blocks[4] {
		t.Error("the call nothing in flight enters left its trace")
	}
	if got := sf.Layout(); len(got) != 6 || got[4] != 5 || got[5] != 2 {
		t.Errorf("layout %v does not put the continuation right behind the serialized call", got)
	}
	if sf.PadInstrs != 1 || sf.SerialInstrs != 2 {
		t.Errorf("PadInstrs %d, SerialInstrs %d; want 1 and 2", sf.PadInstrs, sf.SerialInstrs)
	}
}

// TestCallLoopFallsIntoAJump: traces whose continuations chain back to
// themselves — a call whose continuation heads the trace making it, and two
// traces each continuing the other — cannot all lie behind their
// transfers; resolve breaks each cycle with a jump the call falls into.
func TestCallLoopFallsIntoAJump(t *testing.T) {
	_, vf := lower(t, fibSrc, "fib")
	call := SInstr{Slots: []SSlot{{Unit: mach.Unit{Kind: mach.UBR}, Op: VOp{Kind: mach.OpCall, Dst: vf.LR, Sym: "f"}}}}
	sf := &SFunc{VF: vf, Entry: 0}
	st := &stitcher{cfg: mach.Trace28(), vf: vf, sf: sf, fallsTo: map[*SBlock]int{},
		entrances: map[int]entrance{}}
	for i := range 4 {
		b := st.newBlock()
		b.Instrs = []SInstr{call}
		st.entrances[10+i] = entrance{block: b.ID}
	}
	// block 0 is the entry and continues nothing; block 1 continues itself;
	// blocks 2 and 3 continue each other
	st.fallsTo[sf.Blocks[1]] = 10 + 1
	st.fallsTo[sf.Blocks[2]] = 10 + 3
	st.fallsTo[sf.Blocks[3]] = 10 + 2
	if err := st.resolve(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, id := range sf.Layout() {
		seen[id]++
	}
	if len(sf.Blocks) != 6 || len(seen) != 6 {
		t.Fatalf("%d blocks, %d laid out; want two jumps added and every block laid out", len(sf.Blocks), len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("block %d laid out %d times", id, n)
		}
	}
	for _, b := range sf.Blocks[4:] {
		s := b.Instrs[0].Slots[0]
		if s.Op.Kind != mach.OpJmp || b.Falls != nil {
			t.Errorf("block %d breaks a cycle with %s, want a jump", b.ID, mach.OpName(s.Op.Kind))
		}
	}
	if j := sf.Blocks[1].Falls; j == nil || j.ID < 4 || j.Instrs[0].Slots[0].TargetBlock != 1 {
		t.Error("the call continuing its own trace does not fall into a jump back to it")
	}
}
