package vliw

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// execBranch handles branch-unit ops: a test that wants control publishes
// its target through takeBranch, OpHalt its exit value.
func (m *Machine) execBranch(o *mach.Op) error {
	c := m.cur
	target := -1
	switch o.Kind {
	case mach.OpBrT:
		m.Stats.Branches++
		if c.readArg(o.A) != 0 {
			target = o.Target
		}
	case mach.OpJmp:
		m.Stats.Branches++
		target = o.Target
	case mach.OpCall:
		m.Stats.Branches++
		// link register receives the return address
		c.enqueue(mach.RegLR, uint64(uint32(c.pc+1)), 1)
		target = o.Target
	case mach.OpJmpR:
		m.Stats.Branches++
		target = int(int32(uint32(c.readArg(o.A))))
	case mach.OpHalt:
		m.brHalt = true
		m.brExit = int32(c.iregs[mach.RegRVI.Board][mach.RegRVI.Idx])
	case mach.OpSyscall:
		m.Stats.Syscalls++
		switch o.Sym {
		case "print_i":
			fmt.Fprintf(&c.out, "%d\n", int32(c.iregs[0][mach.ArgIBase]))
		case "print_f":
			fmt.Fprintf(&c.out, "%g\n", math.Float64frombits(c.fregs[0][mach.ArgFBase]))
		default:
			return m.fault(c, TrapSyscall, "unknown syscall %q", o.Sym)
		}
	default:
		return m.fault(c, TrapBadOp, "%s on branch unit", mach.OpName(o.Kind))
	}
	if target >= 0 {
		m.takeBranch(o.Prio, target)
	}
	return nil
}

// divZeroMsg is the TrapDivZero text for a Div or Rem.
func divZeroMsg(k ir.OpKind) string {
	if k == ir.Rem {
		return "integer remainder by zero"
	}
	return "integer divide by zero"
}

// execOp executes one ALU/F/memory operation, enqueuing its register write
// at issue+lat. The latency and — for the pure opcodes — the value function
// are precomputed by the plan (plan.go), so the timing model and the
// semantics table are consulted once per image, not once per executed op.
// The dispatch key is the plan's kind, not the op's: see planOp.
func (m *Machine) execOp(p *planOp) error {
	o, lat := p.op, p.lat
	c := m.cur
	switch p.kind {
	case ir.Nop:
	case opPure:
		// Also a Div/Rem whose zero-divisor guard a SafetyCertificate
		// discharged: if the image was mutated after certification, the Go
		// runtime's own divide check is the backstop (see safeTierFault).
		c.enqueue(o.Dst, p.fn(c.readArg(o.A), c.readArg(o.B)), lat)
	case opPureFlop:
		m.Stats.FloatOps++
		c.enqueue(o.Dst, p.fn(c.readArg(o.A), c.readArg(o.B)), lat)
	case ir.Div, ir.Rem:
		d := c.readArg(o.B)
		if mach.DivTraps(d) {
			return m.fault(c, TrapDivZero, "%s", divZeroMsg(o.Kind))
		}
		c.enqueue(o.Dst, p.fn(c.readArg(o.A), d), lat)
	case ir.ConstI:
		c.enqueue(o.Dst, mach.IBits(c.readI(o.A)), lat)
	case ir.ConstF:
		c.enqueue(o.Dst, mach.FBits(o.FImm), lat)
	case ir.Mov, mach.OpMovSF:
		c.enqueue(o.Dst, c.readArg(o.A), lat)
	case ir.Select:
		// condition from the branch bank (A); B = then, C = else
		if c.readArg(o.A) != 0 {
			c.enqueue(o.Dst, c.readArg(o.B), lat)
		} else {
			c.enqueue(o.Dst, c.readArg(o.C), lat)
		}
	case ir.Load, ir.LoadSpec:
		return m.execLoad(o, lat)
	case ir.Store:
		return m.execStore(o)

	// Guard-free variants, reachable only through a safe-tier plan
	// (buildSafePlan) armed by UseSafeCertificate. Each mirrors its checked
	// twin exactly — counters, bank touch, store watch, write enqueue — with
	// the bounds/alignment guards deleted: the certificate proves they can
	// never fire. If the image was mutated after certification, the Go
	// runtime's own slice-bounds check is the backstop; the safe run loops
	// convert that panic back into the matching Fault (see safeTierFault).
	case opSafeLoadI32:
		m.Stats.MemRefs++
		m.Stats.Loads++
		ea := int64(c.readI(o.A)) + int64(c.readI(o.B))
		c.touchBank(ea)
		c.enqueue(o.Dst, uint64(binary.LittleEndian.Uint32(c.mem[ea:])), lat)
	case opSafeLoadF64:
		m.Stats.MemRefs++
		m.Stats.Loads++
		ea := int64(c.readI(o.A)) + int64(c.readI(o.B))
		c.touchBank(ea)
		c.enqueue(o.Dst, binary.LittleEndian.Uint64(c.mem[ea:]), lat)
	case opSafeSpecI32:
		m.Stats.MemRefs++
		m.Stats.Loads++
		m.Stats.SpecLoads++
		ea := int64(c.readI(o.A)) + int64(c.readI(o.B))
		c.touchBank(ea)
		c.enqueue(o.Dst, uint64(binary.LittleEndian.Uint32(c.mem[ea:])), lat)
	case opSafeSpecF64:
		m.Stats.MemRefs++
		m.Stats.Loads++
		m.Stats.SpecLoads++
		ea := int64(c.readI(o.A)) + int64(c.readI(o.B))
		c.touchBank(ea)
		c.enqueue(o.Dst, binary.LittleEndian.Uint64(c.mem[ea:]), lat)
	case opSafeStoreI32:
		m.Stats.MemRefs++
		m.Stats.Stores++
		ea := int64(c.readI(o.A)) + int64(c.readI(o.B))
		c.touchBank(ea)
		v := uint64(uint32(c.readArg(o.C)))
		binary.LittleEndian.PutUint32(c.mem[ea:], uint32(v))
		if m.WatchStore != nil {
			m.WatchStore(ea, v)
		}
	case opSafeStoreF64:
		m.Stats.MemRefs++
		m.Stats.Stores++
		ea := int64(c.readI(o.A)) + int64(c.readI(o.B))
		c.touchBank(ea)
		v := c.readArg(o.C)
		binary.LittleEndian.PutUint64(c.mem[ea:], v)
		if m.WatchStore != nil {
			m.WatchStore(ea, v)
		}

	default:
		return m.fault(c, TrapBadOp, "cannot execute %s", mach.OpName(o.Kind))
	}
	return nil
}

func (m *Machine) execLoad(o *mach.Op, lat int64) error {
	c := m.cur
	m.Stats.MemRefs++
	m.Stats.Loads++
	ea, _ := c.eaOf(o)
	size := o.Type.Size()
	if o.Kind == ir.LoadSpec {
		m.Stats.SpecLoads++
	}
	if ea < ir.GlobalBase || ea+size > int64(len(c.mem)) || ea%size != 0 {
		if o.Kind == ir.LoadSpec {
			// §7: no valid translation — execution continues; the target
			// register is loaded with a "funny number" to help catch bugs
			m.Stats.SpecFaults++
			c.enqueue(o.Dst, mach.SpecPoison(o.Type), lat)
			return nil
		}
		if ea%size != 0 {
			return m.fault(c, TrapUnaligned, "unaligned %d-byte load %#x", size, ea)
		}
		return m.fault(c, TrapMemBounds, "bus error: load %#x", ea)
	}
	c.touchBank(ea)
	var v uint64
	if o.Type == ir.I32 {
		v = uint64(binary.LittleEndian.Uint32(c.mem[ea:]))
	} else {
		v = binary.LittleEndian.Uint64(c.mem[ea:])
	}
	c.enqueue(o.Dst, v, lat)
	return nil
}

func (m *Machine) execStore(o *mach.Op) error {
	c := m.cur
	m.Stats.MemRefs++
	m.Stats.Stores++
	ea, _ := c.eaOf(o)
	size := o.Type.Size()
	if ea < ir.GlobalBase || ea+size > int64(len(c.mem)) {
		return m.fault(c, TrapMemBounds, "bus error: store %#x", ea)
	}
	if ea%size != 0 {
		return m.fault(c, TrapUnaligned, "unaligned %d-byte store %#x", size, ea)
	}
	c.touchBank(ea)
	v := c.readArg(o.C) // data comes from the store file (§6.2)
	if o.Type == ir.I32 {
		v = uint64(uint32(v))
		binary.LittleEndian.PutUint32(c.mem[ea:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(c.mem[ea:], v)
	}
	if m.WatchStore != nil {
		m.WatchStore(ea, v)
	}
	return nil
}

// touchBank marks the reference's RAM bank busy for BankBusyBeats on the
// context's timeline.
func (c *Context) touchBank(ea int64) {
	g := &c.plan.geom
	c.bankBusy[g.id(ea)] = c.beat + g.busy
}

// The §6 per-beat resource check (ALU slot uniqueness, register-file port
// limits, bus counts, one reference per I board) depends only on the
// instruction word, so it is precomputed per word by the plan pre-decoder
// (staticBeatViolation in plan.go); the checked interpreter consults the
// stored verdict each beat and the certified fast path skips it.
