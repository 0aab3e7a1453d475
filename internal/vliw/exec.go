package vliw

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// This file says what an operation does. exec is the one function with a case
// for every kind of record a plan can hold (uop; translate builds them): the
// interpreter runs every slot through it, and a region every record but the
// shapes runRegion's switch inlines because compacted loops are made of them —
// the ten fastShapes, which no plan holds, and the moves, constants, proven
// references and direct branches, whose cases here are the interpreter's. What
// a slot counts is not here: that is opBulk, for every tier.

// exec runs record u of slot s in context c: operands read as the registers
// stand, the result stored at u.d, a taken test published through takeBranch,
// OpHalt's exit value through brHalt. It returns the trap a guarded site
// raises, attributed to the slot's unit.
func (m *Machine) exec(c *Context, s *planOp, u *uop) error {
	vals := &c.vals
	x, y := vals[u.a&valMask]+u.k1, vals[u.b&valMask]+uint64(uint32(u.k2)) // the operands, for the kinds that have two
	switch u.kind {
	case uNop:
	case uValue:
		// Also a Div/Rem whose zero-divisor guard a SafetyCertificate
		// discharged: if the image was mutated after certification, the Go
		// runtime's own divide check is the backstop (see safeTierFault).
		vals[u.d&valMask] = s.fn(x, y)
	case uDiv:
		if mach.DivTraps(y) {
			msg := "integer divide by zero"
			if s.op.Kind == ir.Rem {
				msg = "integer remainder by zero"
			}
			return m.fault(c, s.unitName, TrapDivZero, "%s", msg)
		}
		vals[u.d&valMask] = s.fn(x, y)
	case uMov:
		vals[u.d&valMask] = x
	case uConst:
		vals[u.d&valMask] = u.k1
	case uConstI:
		vals[u.d&valMask] = uint64(uint32(x))
	case uSelect:
		if c.readArg(s.op.A) != 0 {
			vals[u.d&valMask] = x
		} else {
			vals[u.d&valMask] = y
		}
	case uLoad:
		ea, size := u.ea(c), s.op.Type.Size()
		switch {
		case !c.badRef(ea, size):
			vals[u.d&valMask] = c.load(ea, size)
		case s.op.Kind == ir.LoadSpec:
			// §7: no valid translation — execution continues; the target
			// register is loaded with a "funny number" to help catch bugs
			m.Stats.SpecFaults++
			vals[u.d&valMask] = mach.SpecPoison(s.op.Type)
		default:
			return m.refFault(c, s.unitName, "load", ea, size)
		}
	case uStore:
		ea, size := u.ea(c), s.op.Type.Size()
		if c.badRef(ea, size) {
			return m.refFault(c, s.unitName, "store", ea, size)
		}
		m.store(c, ea, size, vals[u.d&valMask]+uint64(uint32(u.k2)))

	// The guard-free references, reachable only through a certified plan
	// (buildSafePlan): the same access with the verdict on the address
	// deleted — the certificate proves it can never be bad, and the Go
	// runtime's slice-bounds check backstops a post-certification mutation.
	case uLoad4:
		vals[u.d&valMask] = c.load(u.ea(c), 4)
	case uLoad8:
		vals[u.d&valMask] = c.load(u.ea(c), 8)
	case uStore4:
		m.store(c, u.ea(c), 4, vals[u.d&valMask]+uint64(uint32(u.k2)))
	case uStore8:
		m.store(c, u.ea(c), 8, vals[u.d&valMask]+uint64(uint32(u.k2)))

	case uCanon:
		vals[u.d&valMask] = canonical(mach.Bank(u.a), vals[u.d&valMask])
	case uBrT:
		if vals[u.a&valMask]+uint64(uint32(u.k1)) != 0 {
			m.takeBranch(u.prio(), int(uint32(u.k2)))
		}
	case uJmp:
		m.takeBranch(u.prio(), int(uint32(u.k2)))
	case uCall:
		vals[u.d&valMask] = uint64(uint32(u.k1)) // the link register receives the return address
		if t := int(int32(u.k2)); t >= 0 {
			m.takeBranch(u.prio(), t)
		}
	case uJmpR:
		if t := int(int32(uint32(vals[u.a&valMask]) + uint32(u.k1))); t >= 0 {
			m.takeBranch(u.prio(), t)
		}
	case uHalt:
		m.brHalt = true
		m.brExit = int32(c.readReg(mach.RegRVI))
	case uSyscall:
		switch s.op.Sym {
		case "print_i":
			c.printI()
		case "print_f":
			c.printF()
		default:
			return m.fault(c, s.unitName, TrapSyscall, "unknown syscall %q", s.op.Sym)
		}
	case uBadOp:
		if s.unit.Kind == mach.UBR {
			return m.fault(c, s.unitName, TrapBadOp, "%s on branch unit", mach.OpName(s.op.Kind))
		}
		return m.fault(c, s.unitName, TrapBadOp, "cannot execute %s", mach.OpName(s.op.Kind))
	default:
		return m.fault(c, s.unitName, TrapBadOp, "micro-op kind %d has no semantics", u.kind)
	}
	return nil
}

// The memory pipeline's parts, each written once: the verdict on a guarded
// reference's address, and the typed access itself.

// badRef reports whether a size-byte reference at ea leaves mapped memory or
// is not aligned to its size (4 or 8: a mask, not a division, on every
// guarded reference).
func (c *Context) badRef(ea, size int64) bool {
	return ea < ir.GlobalBase || ea+size > int64(len(c.mem)) || ea&(size-1) != 0
}

// refFault is the fault a non-speculative reference badRef refused raises. The
// load pipeline reports a misaligned address before an unmapped one, the
// store pipeline the other way round.
func (m *Machine) refFault(c *Context, unit, what string, ea, size int64) error {
	mapped := ea >= ir.GlobalBase && ea+size <= int64(len(c.mem))
	if ea&(size-1) != 0 && (mapped || what == "load") {
		return m.fault(c, unit, TrapUnaligned, "unaligned %d-byte %s %#x", size, what, ea)
	}
	return m.fault(c, unit, TrapMemBounds, "bus error: %s %#x", what, ea)
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

// store writes the low size bytes of v at ea and marks the bank busy.
func (m *Machine) store(c *Context, ea, size int64, v uint64) {
	c.touchBank(ea)
	if size == 4 {
		binary.LittleEndian.PutUint32(c.mem[ea:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(c.mem[ea:], v)
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
