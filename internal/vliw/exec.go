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
		m.brExit = int32(c.readReg(mach.RegRVI))
	case mach.OpSyscall:
		m.Stats.Syscalls++
		switch o.Sym {
		case "print_i":
			c.printI()
		case "print_f":
			c.printF()
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
	// (buildSafePlan) armed by UseSafeCertificate: the same counters and the
	// same access with the verdict on the address deleted — the certificate
	// proves it can never be bad. If the image was mutated after certification,
	// the Go runtime's own slice-bounds check is the backstop; the safe run
	// loops convert that panic back into the matching Fault (see
	// safeTierFault).
	case opSafeLoadI32:
		m.countLoad(o)
		c.enqueue(o.Dst, c.load(c.eaOf(o), 4), lat)
	case opSafeLoadF64:
		m.countLoad(o)
		c.enqueue(o.Dst, c.load(c.eaOf(o), 8), lat)
	case opSafeStoreI32:
		m.countStore()
		m.store(c, c.eaOf(o), 4, c.readArg(o.C))
	case opSafeStoreF64:
		m.countStore()
		m.store(c, c.eaOf(o), 8, c.readArg(o.C))

	default:
		return m.fault(c, TrapBadOp, "cannot execute %s", mach.OpName(o.Kind))
	}
	return nil
}

func (m *Machine) execLoad(o *mach.Op, lat int64) error {
	c := m.cur
	m.countLoad(o)
	ea, size := c.eaOf(o), o.Type.Size()
	switch {
	case !c.badRef(ea, size):
		c.enqueue(o.Dst, c.load(ea, size), lat)
	case o.Kind == ir.LoadSpec:
		// §7: no valid translation — execution continues; the target
		// register is loaded with a "funny number" to help catch bugs
		m.Stats.SpecFaults++
		c.enqueue(o.Dst, mach.SpecPoison(o.Type), lat)
	default:
		return m.refFault(c, "load", ea, size)
	}
	return nil
}

func (m *Machine) execStore(o *mach.Op) error {
	c := m.cur
	m.countStore()
	ea, size := c.eaOf(o), o.Type.Size()
	if c.badRef(ea, size) {
		return m.refFault(c, "store", ea, size)
	}
	m.store(c, ea, size, c.readArg(o.C)) // data comes from the store file (§6.2)
	return nil
}

// The memory pipeline's parts, each written once for the interpreter above
// and the native tier's micro-ops (native.go): the counters a reference bumps
// before anything can stop it, the verdict on its address, and the typed
// access itself.

func (m *Machine) countLoad(o *mach.Op) {
	m.Stats.MemRefs++
	m.Stats.Loads++
	if o.Kind == ir.LoadSpec {
		m.Stats.SpecLoads++
	}
}

func (m *Machine) countStore() {
	m.Stats.MemRefs++
	m.Stats.Stores++
}

// badRef reports whether a size-byte reference at ea leaves mapped memory or
// is not aligned to its size (4 or 8: a mask, not a division, on every
// guarded reference).
func (c *Context) badRef(ea, size int64) bool {
	return ea < ir.GlobalBase || ea+size > int64(len(c.mem)) || ea&(size-1) != 0
}

// refFault is the fault a non-speculative reference badRef refused raises. The
// load pipeline reports a misaligned address before an unmapped one, the
// store pipeline the other way round.
func (m *Machine) refFault(c *Context, what string, ea, size int64) error {
	mapped := ea >= ir.GlobalBase && ea+size <= int64(len(c.mem))
	if ea&(size-1) != 0 && (mapped || what == "load") {
		return m.fault(c, TrapUnaligned, "unaligned %d-byte %s %#x", size, what, ea)
	}
	return m.fault(c, TrapMemBounds, "bus error: %s %#x", what, ea)
}

// load reads the 4- or 8-byte value at ea as register bits and marks its RAM
// bank busy.
func (c *Context) load(ea, size int64) uint64 {
	c.touchBank(ea)
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(c.mem[ea:]))
	}
	return binary.LittleEndian.Uint64(c.mem[ea:])
}

// store writes the low size bytes of v at ea, marks the bank busy and shows
// WatchStore what was written.
func (m *Machine) store(c *Context, ea, size int64, v uint64) {
	c.touchBank(ea)
	if size == 4 {
		v = uint64(uint32(v))
		binary.LittleEndian.PutUint32(c.mem[ea:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(c.mem[ea:], v)
	}
	if m.WatchStore != nil {
		m.WatchStore(ea, v)
	}
}

// printI and printF are the two output syscalls: the first argument register
// of the bank, one line.
func (c *Context) printI() {
	fmt.Fprintf(&c.out, "%d\n", int32(c.readReg(mach.PReg{Bank: mach.BankI, Idx: uint8(mach.ArgIBase)})))
}

func (c *Context) printF() {
	fmt.Fprintf(&c.out, "%g\n", math.Float64frombits(c.readReg(mach.PReg{Bank: mach.BankF, Idx: uint8(mach.ArgFBase)})))
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
