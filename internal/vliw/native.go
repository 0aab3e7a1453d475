package vliw

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file is the native tier: a per-image translator that compiles the
// safe-tier plan one step further than plan.go's pre-decoder. Where the safe
// tier still walks planOps and switches on planOp.kind for every executed
// slot, the translator runs once per (image, certificate) and fuses each
// beat's slot list into a sequence of Go closures — one superinstruction
// per beat — with everything static baked in at translation time:
//
//   - operand access is resolved per slot: immediates become captured
//     constants, register reads become direct masked indexing into the
//     context's banks (no Arg re-decode, no readArg branch chain), and the
//     write-pipeline push is fused into the op closure itself;
//   - the per-slot kind switch disappears — each closure IS its operation;
//   - unconditional counters (Ops, FloatOps, MemRefs, Loads, Stores,
//     SpecLoads, Branches, Syscalls) are summed over the whole word at
//     translation time and applied in one shot, with a precomputed rollback
//     on the (cold) fault paths so a mid-beat trap leaves exactly the
//     counters the checked interpreter would have;
//   - at sites the SafetyCertificate's bitmask covers, the emitted closure
//     carries no bounds/alignment/divide guard at all; unproven sites keep
//     exactly the safe tier's guard semantics, fault messages included.
//
// Everything dynamic is not this tier's but the machine's, shared with the
// interpreter (Machine.step): the write pipeline (the retire ring, so
// snapshots and RunMany interleaving are tier-independent), the TLB/bank-stall
// prescan, the icache model, interrupts, DMA. The equivalence bar is exit,
// output, and every Stats counter bit-identical to checked/fast/safe, and the
// tracefuzz oracle holds the translator to it.
// Post-certification image corruption is contained the same way as the safe
// tier: the Go runtime's own bounds/divide checks backstop the deleted
// guards and the run loops convert the panic into the matching Fault
// (safeTierFault).

// nativeOp is one translated slot operation: the closure returns the trap
// (as an error) a guarded site raises, nil otherwise.
type nativeOp func(m *Machine, c *Context) error

// nChain folds a beat's closure list into one straight-line closure,
// replacing the step loop's per-slot iteration with direct calls through
// captured pairs.
func nChain(ops []nativeOp) nativeOp {
	switch len(ops) {
	case 0:
		return nil
	case 1:
		return ops[0]
	case 2:
		f0, f1 := ops[0], ops[1]
		return func(m *Machine, c *Context) error {
			if err := f0(m, c); err != nil {
				return err
			}
			return f1(m, c)
		}
	case 3:
		f0, f1, f2 := ops[0], ops[1], ops[2]
		return func(m *Machine, c *Context) error {
			if err := f0(m, c); err != nil {
				return err
			}
			if err := f1(m, c); err != nil {
				return err
			}
			return f2(m, c)
		}
	case 4:
		f0, f1, f2, f3 := ops[0], ops[1], ops[2], ops[3]
		return func(m *Machine, c *Context) error {
			if err := f0(m, c); err != nil {
				return err
			}
			if err := f1(m, c); err != nil {
				return err
			}
			if err := f2(m, c); err != nil {
				return err
			}
			return f3(m, c)
		}
	default:
		half := len(ops) / 2
		a, b := nChain(ops[:half]), nChain(ops[half:])
		return func(m *Machine, c *Context) error {
			if err := a(m, c); err != nil {
				return err
			}
			return b(m, c)
		}
	}
}

// statsBulk is the unconditional counter delta for a run of slots, summed
// at translation time and applied in one shot at execution. Fault closures
// carry the suffix of the word that no longer executes and subtract it back
// out, so trapping runs report the same counters as the checked
// interpreter's op-at-a-time increments. The counts are 16-bit: a word
// issues at most two beats of the machine's units, and the narrow form keeps
// what the native step reads of a planWord inside one cache line.
type statsBulk struct {
	ops       uint16
	floatOps  uint16
	memRefs   uint16
	loads     uint16
	stores    uint16
	specLoads uint16
	branches  uint16
	syscalls  uint16
}

func (b *statsBulk) apply(s *Stats) {
	s.Ops += int64(b.ops)
	s.FloatOps += int64(b.floatOps)
	s.MemRefs += int64(b.memRefs)
	s.Loads += int64(b.loads)
	s.Stores += int64(b.stores)
	s.SpecLoads += int64(b.specLoads)
	s.Branches += int64(b.branches)
	s.Syscalls += int64(b.syscalls)
}

func (b *statsBulk) unapply(s *Stats) {
	s.Ops -= int64(b.ops)
	s.FloatOps -= int64(b.floatOps)
	s.MemRefs -= int64(b.memRefs)
	s.Loads -= int64(b.loads)
	s.Stores -= int64(b.stores)
	s.SpecLoads -= int64(b.specLoads)
	s.Branches -= int64(b.branches)
	s.Syscalls -= int64(b.syscalls)
}

func (b *statsBulk) add(o *statsBulk) {
	b.ops += o.ops
	b.floatOps += o.floatOps
	b.memRefs += o.memRefs
	b.loads += o.loads
	b.stores += o.stores
	b.specLoads += o.specLoads
	b.branches += o.branches
	b.syscalls += o.syscalls
}

// opBulk returns a slot's unconditional counter contribution — the
// counters the checked interpreter increments before any guard can fire,
// so they stay counted even when the slot itself faults.
func opBulk(s *planOp) statsBulk {
	b := statsBulk{ops: 1}
	if s.unitKind == mach.UBR {
		// Branch-unit dispatch keys on the op's own kind (execBranch).
		switch s.op.Kind {
		case mach.OpBrT, mach.OpJmp, mach.OpCall, mach.OpJmpR:
			b.branches = 1
		case mach.OpSyscall:
			b.syscalls = 1
		}
		return b
	}
	if v := mach.ValueOf(s.op.Kind); v != nil && v.Flop {
		b.floatOps = 1
	}
	switch s.kind {
	case ir.Load, opSafeLoadI32, opSafeLoadF64:
		b.memRefs, b.loads = 1, 1
	case ir.LoadSpec, opSafeSpecI32, opSafeSpecF64:
		b.memRefs, b.loads, b.specLoads = 1, 1, 1
	case ir.Store, opSafeStoreI32, opSafeStoreF64:
		b.memRefs, b.stores = 1, 1
	}
	return b
}

// iregArg reports whether a names an integer-bank register and returns its
// pre-masked board/index — the dominant operand shape, which the builders
// below specialize so the closure reads the bank directly with no call.
func iregArg(a mach.Arg) (bd, ix int, ok bool) {
	if a.IsImm || !a.Reg.Valid() || a.Reg.Bank != mach.BankI {
		return 0, 0, false
	}
	return int(a.Reg.Board) & 3, int(a.Reg.Idx) & 63, true
}

// fregArg is iregArg for the float bank.
func fregArg(a mach.Arg) (bd, ix int, ok bool) {
	if a.IsImm || !a.Reg.Valid() || a.Reg.Bank != mach.BankF {
		return 0, 0, false
	}
	return int(a.Reg.Board) & 3, int(a.Reg.Idx) & 31, true
}

// nReadU compiles Context.readArg for one operand: immediates and invalid
// registers fold to constants, register reads become direct bank indexing.
// The index masks (matching each bank's power-of-two geometry) sit inside
// the closure body so the compiler's prove pass deletes the bounds checks.
func nReadU(a mach.Arg) func(*Context) uint64 {
	if a.IsImm {
		v := uint64(uint32(a.Imm))
		return func(*Context) uint64 { return v }
	}
	if !a.Reg.Valid() {
		return func(*Context) uint64 { return 0 }
	}
	bd, ix := int(a.Reg.Board), int(a.Reg.Idx)
	switch a.Reg.Bank {
	case mach.BankI:
		return func(c *Context) uint64 { return uint64(c.iregs[bd&3][ix&63]) }
	case mach.BankF:
		return func(c *Context) uint64 { return c.fregs[bd&3][ix&31] }
	case mach.BankSF:
		return func(c *Context) uint64 { return c.sf[bd&3][ix&15] }
	default: // BankB
		return func(c *Context) uint64 {
			if c.bb[bd&3][ix&7] {
				return 1
			}
			return 0
		}
	}
}

// nReadI compiles Context.readI.
func nReadI(a mach.Arg) func(*Context) int32 {
	if a.IsImm {
		v := a.Imm
		return func(*Context) int32 { return v }
	}
	if !a.Reg.Valid() {
		return func(*Context) int32 { return 0 }
	}
	if bd, ix, ok := iregArg(a); ok {
		return func(c *Context) int32 { return int32(c.iregs[bd][ix]) }
	}
	u := nReadU(a)
	return func(c *Context) int32 { return int32(uint32(u(c))) }
}

// nEA compiles the effective-address sum int64(readI(A)) + int64(readI(B))
// — the form the opSafe* variants and the prescan's eaOf use — with the
// dominant register+immediate shape fused into a single closure.
func nEA(o *mach.Op) func(*Context) int64 {
	if bd, ix, ok := iregArg(o.A); ok && o.B.IsImm {
		off := int64(o.B.Imm)
		return func(c *Context) int64 { return int64(int32(c.iregs[bd][ix])) + off }
	}
	ga, gb := nReadI(o.A), nReadI(o.B)
	return func(c *Context) int64 { return int64(ga(c)) + int64(gb(c)) }
}

// nEAExec is nEA with eaOf's invalid-base quirk preserved: a memory op
// whose base operand names no register computes ea=0 at execution (eaOf
// returns ok=false and the exec path ignores the flag), landing on the
// guard's bus-error/funny-number path exactly as the interpreter does.
func nEAExec(o *mach.Op) func(*Context) int64 {
	if !o.A.IsImm && !o.A.Reg.Valid() {
		return func(*Context) int64 { return 0 }
	}
	return nEA(o)
}

// nFault raises a guarded-site fault from a translated closure: the
// not-yet-executed suffix of the word's bulk counters is rolled back and
// the unit attribution the interpreter would have set via curUnit is
// restored, so the Fault renders byte-identically to the other tiers.
func (m *Machine) nFault(c *Context, rb *statsBulk, unit string, code TrapCode, format string, args ...any) error {
	rb.unapply(&m.Stats)
	m.curUnit = unit
	return m.fault(c, code, format, args...)
}

// nFastShape emits fully fused closures — operand reads, the operation,
// and the ring push all inline, no operator callback — for the op kinds
// and operand shapes that dominate compacted inner loops: integer
// add/sub/compare on reg⊕imm and reg⊕reg, and float add/sub/mul on
// freg⊕freg. Returns nil when the generic builders should be used.
func nFastShape(o *mach.Op, kind ir.OpKind, dst mach.PReg, lat int64) nativeOp {
	if !dst.Valid() {
		return nil
	}
	if abd, aix, ok := fregArg(o.A); ok {
		bbd, bix, ok := fregArg(o.B)
		if !ok {
			return nil
		}
		switch kind {
		case ir.FAdd:
			return func(m *Machine, c *Context) error {
				v := math.Float64frombits(c.fregs[abd][aix]) + math.Float64frombits(c.fregs[bbd][bix])
				c.push(c.beat+lat, dst, math.Float64bits(v))
				return nil
			}
		case ir.FSub:
			return func(m *Machine, c *Context) error {
				v := math.Float64frombits(c.fregs[abd][aix]) - math.Float64frombits(c.fregs[bbd][bix])
				c.push(c.beat+lat, dst, math.Float64bits(v))
				return nil
			}
		case ir.FMul:
			return func(m *Machine, c *Context) error {
				v := math.Float64frombits(c.fregs[abd][aix]) * math.Float64frombits(c.fregs[bbd][bix])
				c.push(c.beat+lat, dst, math.Float64bits(v))
				return nil
			}
		}
		return nil
	}
	abd, aix, ok := iregArg(o.A)
	if !ok {
		return nil
	}
	if o.B.IsImm {
		bv := o.B.Imm
		switch kind {
		case ir.Add:
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, mach.IBits(int32(c.iregs[abd][aix])+bv))
				return nil
			}
		case ir.Sub:
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, mach.IBits(int32(c.iregs[abd][aix])-bv))
				return nil
			}
		case ir.CmpLT:
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, mach.BoolBits(int32(c.iregs[abd][aix]) < bv))
				return nil
			}
		case ir.CmpGE:
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, mach.BoolBits(int32(c.iregs[abd][aix]) >= bv))
				return nil
			}
		}
		return nil
	}
	if bbd, bix, ok := iregArg(o.B); ok {
		switch kind {
		case ir.Add:
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, mach.IBits(int32(c.iregs[abd][aix])+int32(c.iregs[bbd][bix])))
				return nil
			}
		case ir.Sub:
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, mach.IBits(int32(c.iregs[abd][aix])-int32(c.iregs[bbd][bix])))
				return nil
			}
		case ir.CmpLT:
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, mach.BoolBits(int32(c.iregs[abd][aix]) < int32(c.iregs[bbd][bix])))
				return nil
			}
		}
	}
	return nil
}

// nPure builds the closure for an opcode of the shared value table: operand
// bits in, v.Fn, result bits straight into the retire ring. The write-pipeline
// append is fused into the closure (no enqueue call), and the dominant
// operand shapes — reg⊕imm and reg⊕reg on the integer bank, reg⊕reg on the
// float bank, and a lone register for the unary ops — read their bank
// directly instead of through an nReadU closure.
func nPure(o *mach.Op, dst mach.PReg, lat int64, v *mach.Value) nativeOp {
	f := v.Fn
	if !dst.Valid() {
		// Still evaluated: a proven Div/Rem's divide panic is the backstop.
		ga, gb := nReadU(o.A), nReadU(o.B)
		return func(m *Machine, c *Context) error {
			_ = f(ga(c), gb(c))
			return nil
		}
	}
	if v.FloatIn {
		if abd, aix, ok := fregArg(o.A); ok {
			if v.Unary {
				return func(m *Machine, c *Context) error {
					c.push(c.beat+lat, dst, f(c.fregs[abd][aix], 0))
					return nil
				}
			}
			if bbd, bix, ok := fregArg(o.B); ok {
				return func(m *Machine, c *Context) error {
					c.push(c.beat+lat, dst, f(c.fregs[abd][aix], c.fregs[bbd][bix]))
					return nil
				}
			}
		}
	} else if abd, aix, ok := iregArg(o.A); ok {
		if v.Unary {
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, f(uint64(c.iregs[abd][aix]), 0))
				return nil
			}
		}
		if o.B.IsImm {
			bv := mach.IBits(o.B.Imm)
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, f(uint64(c.iregs[abd][aix]), bv))
				return nil
			}
		}
		if bbd, bix, ok := iregArg(o.B); ok {
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, f(uint64(c.iregs[abd][aix]), uint64(c.iregs[bbd][bix])))
				return nil
			}
		}
	}
	ga, gb := nReadU(o.A), nReadU(o.B)
	return func(m *Machine, c *Context) error {
		c.push(c.beat+lat, dst, f(ga(c), gb(c)))
		return nil
	}
}

// nConst builds a push-constant closure. ConstI/ConstF are frequent enough
// in compacted traces that the nMov1 callback indirection shows up in
// profiles; the constant is baked into the closure instead.
func nConst(dst mach.PReg, lat int64, v uint64) nativeOp {
	if !dst.Valid() {
		return func(m *Machine, c *Context) error { return nil }
	}
	return func(m *Machine, c *Context) error {
		c.push(c.beat+lat, dst, v)
		return nil
	}
}

// nMovReg builds a register-to-register move with the source read inlined
// when the source bank is statically I or F; other shapes (immediates went
// to nConst, odd banks are rare) fall back to nMov1.
func nMovReg(o *mach.Op, dst mach.PReg, lat int64) nativeOp {
	if dst.Valid() {
		if bd, ix, ok := iregArg(o.A); ok {
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, uint64(c.iregs[bd][ix]))
				return nil
			}
		}
		if bd, ix, ok := fregArg(o.A); ok {
			return func(m *Machine, c *Context) error {
				c.push(c.beat+lat, dst, c.fregs[bd][ix])
				return nil
			}
		}
	}
	return nMov1(dst, lat, nReadU(o.A))
}

// nMov1 builds a unary move/convert closure writing a precomputed uint64.
func nMov1(dst mach.PReg, lat int64, g func(*Context) uint64) nativeOp {
	if !dst.Valid() {
		return func(m *Machine, c *Context) error {
			_ = g(c)
			return nil
		}
	}
	return func(m *Machine, c *Context) error {
		c.push(c.beat+lat, dst, g(c))
		return nil
	}
}

// compileBranch translates one branch-unit slot (mirrors execBranch).
func compileBranch(o *mach.Op, unitName string, rb statsBulk) nativeOp {
	switch o.Kind {
	case mach.OpBrT:
		cond := nReadU(o.A)
		t, prio := o.Target, o.Prio
		if t < 0 {
			return func(m *Machine, c *Context) error { return nil }
		}
		return func(m *Machine, c *Context) error {
			if cond(c) != 0 {
				m.takeBranch(prio, t)
			}
			return nil
		}
	case mach.OpJmp:
		t, prio := o.Target, o.Prio
		if t < 0 {
			return func(m *Machine, c *Context) error { return nil }
		}
		return func(m *Machine, c *Context) error {
			m.takeBranch(prio, t)
			return nil
		}
	case mach.OpCall:
		t, prio := o.Target, o.Prio
		lr := mach.RegLR
		return func(m *Machine, c *Context) error {
			c.push(c.beat+1, lr, uint64(uint32(c.pc+1)))
			if t >= 0 {
				m.takeBranch(prio, t)
			}
			return nil
		}
	case mach.OpJmpR:
		ga := nReadU(o.A)
		prio := o.Prio
		return func(m *Machine, c *Context) error {
			if t := int(int32(uint32(ga(c)))); t >= 0 {
				m.takeBranch(prio, t)
			}
			return nil
		}
	case mach.OpHalt:
		bd, ix := int(mach.RegRVI.Board), int(mach.RegRVI.Idx)
		return func(m *Machine, c *Context) error {
			m.brHalt = true
			m.brExit = int32(c.iregs[bd&3][ix&63])
			return nil
		}
	case mach.OpSyscall:
		switch o.Sym {
		case "print_i":
			return func(m *Machine, c *Context) error {
				fmt.Fprintf(&c.out, "%d\n", int32(c.iregs[0][mach.ArgIBase]))
				return nil
			}
		case "print_f":
			return func(m *Machine, c *Context) error {
				fmt.Fprintf(&c.out, "%g\n", math.Float64frombits(c.fregs[0][mach.ArgFBase]))
				return nil
			}
		default:
			sym := o.Sym
			return func(m *Machine, c *Context) error {
				return m.nFault(c, &rb, unitName, TrapSyscall, "unknown syscall %q", sym)
			}
		}
	}
	name := mach.OpName(o.Kind)
	return func(m *Machine, c *Context) error {
		return m.nFault(c, &rb, unitName, TrapBadOp, "%s on branch unit", name)
	}
}

// compileLoad translates a guarded (unproven-site) load, preserving
// execLoad's semantics exactly: counter order, the speculative
// funny-number path, and the alignment-before-bounds fault precedence.
func compileLoad(o *mach.Op, lat int64, unitName string, rb statsBulk, g bankGeom) nativeOp {
	ea := nEAExec(o)
	dst := o.Dst
	size := o.Type.Size()
	spec := o.Kind == ir.LoadSpec
	isI32 := o.Type == ir.I32
	funny := mach.SpecPoison(o.Type)
	return func(m *Machine, c *Context) error {
		a := ea(c)
		if a < ir.GlobalBase || a+size > int64(len(c.mem)) || a%size != 0 {
			if spec {
				m.Stats.SpecFaults++
				if dst.Valid() {
					c.push(c.beat+lat, dst, funny)
				}
				return nil
			}
			if a%size != 0 {
				return m.nFault(c, &rb, unitName, TrapUnaligned, "unaligned %d-byte load %#x", size, a)
			}
			return m.nFault(c, &rb, unitName, TrapMemBounds, "bus error: load %#x", a)
		}
		c.bankBusy[g.id(a)] = c.beat + g.busy
		var v uint64
		if isI32 {
			v = uint64(binary.LittleEndian.Uint32(c.mem[a:]))
		} else {
			v = binary.LittleEndian.Uint64(c.mem[a:])
		}
		if dst.Valid() {
			c.push(c.beat+lat, dst, v)
		}
		return nil
	}
}

// compileStore translates a guarded store (mirrors execStore: bounds
// before alignment).
func compileStore(o *mach.Op, unitName string, rb statsBulk, g bankGeom) nativeOp {
	ea := nEAExec(o)
	gc := nReadU(o.C)
	size := o.Type.Size()
	isI32 := o.Type == ir.I32
	return func(m *Machine, c *Context) error {
		a := ea(c)
		if a < ir.GlobalBase || a+size > int64(len(c.mem)) {
			return m.nFault(c, &rb, unitName, TrapMemBounds, "bus error: store %#x", a)
		}
		if a%size != 0 {
			return m.nFault(c, &rb, unitName, TrapUnaligned, "unaligned %d-byte store %#x", size, a)
		}
		c.bankBusy[g.id(a)] = c.beat + g.busy
		v := gc(c)
		if isI32 {
			v = uint64(uint32(v))
			binary.LittleEndian.PutUint32(c.mem[a:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(c.mem[a:], v)
		}
		if m.WatchStore != nil {
			m.WatchStore(a, v)
		}
		return nil
	}
}

// compileSafeLoad translates a proven load: no guard at all. A
// post-certification mutation that drives the address wild hits the Go
// runtime's slice bounds check; the run loops convert the panic to the
// matching Fault (safeTierFault), same as the safe tier.
func compileSafeLoad(o *mach.Op, lat int64, f64 bool, g bankGeom) nativeOp {
	ea := nEA(o)
	dst := o.Dst
	if !dst.Valid() {
		// The read must still happen: its bounds panic is the backstop.
		if f64 {
			return func(m *Machine, c *Context) error {
				a := ea(c)
				c.bankBusy[g.id(a)] = c.beat + g.busy
				_ = binary.LittleEndian.Uint64(c.mem[a:])
				return nil
			}
		}
		return func(m *Machine, c *Context) error {
			a := ea(c)
			c.bankBusy[g.id(a)] = c.beat + g.busy
			_ = binary.LittleEndian.Uint32(c.mem[a:])
			return nil
		}
	}
	if f64 {
		return func(m *Machine, c *Context) error {
			a := ea(c)
			c.bankBusy[g.id(a)] = c.beat + g.busy
			v := binary.LittleEndian.Uint64(c.mem[a:])
			c.push(c.beat+lat, dst, v)
			return nil
		}
	}
	return func(m *Machine, c *Context) error {
		a := ea(c)
		c.bankBusy[g.id(a)] = c.beat + g.busy
		v := uint64(binary.LittleEndian.Uint32(c.mem[a:]))
		c.push(c.beat+lat, dst, v)
		return nil
	}
}

// compileSafeStore translates a proven store: no guard at all.
func compileSafeStore(o *mach.Op, f64 bool, g bankGeom) nativeOp {
	ea := nEA(o)
	gc := nReadU(o.C)
	if f64 {
		return func(m *Machine, c *Context) error {
			a := ea(c)
			c.bankBusy[g.id(a)] = c.beat + g.busy
			v := gc(c)
			binary.LittleEndian.PutUint64(c.mem[a:], v)
			if m.WatchStore != nil {
				m.WatchStore(a, v)
			}
			return nil
		}
	}
	return func(m *Machine, c *Context) error {
		a := ea(c)
		c.bankBusy[g.id(a)] = c.beat + g.busy
		v := uint64(uint32(gc(c)))
		binary.LittleEndian.PutUint32(c.mem[a:], uint32(v))
		if m.WatchStore != nil {
			m.WatchStore(a, v)
		}
		return nil
	}
}

// compileExec translates one non-branch slot (mirrors execOp case for
// case; the dispatch key is the plan kind, so proven sites translate to
// their guard-free variants).
func compileExec(o *mach.Op, kind ir.OpKind, lat int64, unitName string, rb statsBulk, g bankGeom) nativeOp {
	dst := o.Dst
	if f := nFastShape(o, o.Kind, dst, lat); f != nil {
		return f
	}
	switch kind {
	case ir.Nop:
		return nil
	case opPure, opPureFlop:
		return nPure(o, dst, lat, mach.ValueOf(o.Kind))
	case ir.Div, ir.Rem:
		ga, gb := nReadU(o.A), nReadU(o.B)
		f, msg := mach.ValueOf(kind).Fn, divZeroMsg(kind)
		return func(m *Machine, c *Context) error {
			d := gb(c)
			if mach.DivTraps(d) {
				return m.nFault(c, &rb, unitName, TrapDivZero, "%s", msg)
			}
			if dst.Valid() {
				c.push(c.beat+lat, dst, f(ga(c), d))
			}
			return nil
		}
	case ir.ConstI:
		if o.A.IsImm {
			return nConst(dst, lat, mach.IBits(o.A.Imm))
		}
		ga := nReadI(o.A)
		return nMov1(dst, lat, func(c *Context) uint64 { return mach.IBits(ga(c)) })
	case ir.ConstF:
		return nConst(dst, lat, mach.FBits(o.FImm))
	case ir.Mov, mach.OpMovSF:
		return nMovReg(o, dst, lat)
	case ir.Select:
		ga, gb, gcv := nReadU(o.A), nReadU(o.B), nReadU(o.C)
		return nMov1(dst, lat, func(c *Context) uint64 {
			if ga(c) != 0 {
				return gb(c)
			}
			return gcv(c)
		})
	case ir.Load, ir.LoadSpec:
		return compileLoad(o, lat, unitName, rb, g)
	case ir.Store:
		return compileStore(o, unitName, rb, g)
	case opSafeLoadI32, opSafeSpecI32:
		return compileSafeLoad(o, lat, false, g)
	case opSafeLoadF64, opSafeSpecF64:
		return compileSafeLoad(o, lat, true, g)
	case opSafeStoreI32:
		return compileSafeStore(o, false, g)
	case opSafeStoreF64:
		return compileSafeStore(o, true, g)
	}
	name := mach.OpName(o.Kind)
	return func(m *Machine, c *Context) error {
		return m.nFault(c, &rb, unitName, TrapBadOp, "cannot execute %s", name)
	}
}

// translate fills a safe-tier plan's words with their closure-threaded
// form, in place: the plan's dispatch kinds already name the guard-free
// variant at every site the certificate proves, so the translation needs
// neither the image nor the certificate again. Contexts armed on the safe
// tier keep interpreting the same plan's planOps.
func translate(p *plan) {
	for a := range p.words {
		pw := &p.words[a]
		// Per-beat bulks and the whole-word bulk applied at word start.
		var bulks [2][]statsBulk
		var beatTotal [2]statsBulk
		for b := 0; b < 2; b++ {
			bulks[b] = make([]statsBulk, len(p.slots[a].beats[b]))
			for i := range p.slots[a].beats[b] {
				bulks[b][i] = opBulk(&p.slots[a].beats[b][i])
				beatTotal[b].add(&bulks[b][i])
			}
			pw.bulk.add(&beatTotal[b])
		}
		for b := 0; b < 2; b++ {
			slots := p.slots[a].beats[b]
			// Fault rollback: each slot captures the bulk sum of everything
			// in the word that no longer executes after it traps — the rest
			// of its own beat, plus (for beat 0) all of beat 1, since the
			// word's whole bulk was applied up front. The slot's own
			// pre-guard counters stay, matching the interpreter.
			ops := make([]nativeOp, 0, len(slots))
			suffix := make([]statsBulk, len(slots))
			var acc statsBulk
			if b == 0 {
				acc = beatTotal[1]
			}
			for i := len(slots) - 1; i >= 0; i-- {
				suffix[i] = acc
				acc.add(&bulks[b][i])
			}
			for i := range slots {
				s := &slots[i]
				var f nativeOp
				if s.unitKind == mach.UBR {
					f = compileBranch(s.op, s.unitName, suffix[i])
				} else {
					f = compileExec(s.op, s.kind, s.lat, s.unitName, suffix[i], p.geom)
				}
				if f != nil {
					ops = append(ops, f)
				}
			}
			pw.native[b] = nChain(ops)
		}
	}
	p.translated = true
}

// UseNativeCertificate arms the native tier — the fourth execution tier —
// for every resident context running the certified image: the safe tier's
// graded guard deletion, with the per-slot interpreter replaced by the
// image's closure-threaded translation. Unproven sites keep exactly the
// safe tier's guards; exit, output, and every Stats counter are
// bit-identical to the checked, fast, and safe tiers. The translated plan
// is cached on the machine and reused when the same certificate is
// re-armed after a Reset, exactly like the safe plan it extends.
func (m *Machine) UseNativeCertificate(c SafetyCertificate) error {
	return m.armCertified(c, TierNative, "native-tier")
}
