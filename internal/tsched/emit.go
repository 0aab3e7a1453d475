package tsched

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// FuncCode is a compiled function: wide instructions with physical
// registers. Branch targets are function-local instruction indices; calls
// and global addresses remain symbolic until the linker runs.
type FuncCode struct {
	Name   string
	Instrs []mach.Instr

	// Lines[i][j] is the source line of Instrs[i].Slots[j] (0 = unknown),
	// carried from the IR so post-link diagnostics (vliw traps, schedcheck
	// findings) can name the source position of an op in a wide word.
	Lines [][]int32

	// Stats for the code-size and compensation experiments.
	Ops          int // real (non-nop) operations
	CompOps      int
	CopyOps      int
	SpecLoads    int
	PadInstrs    int // empty instructions serialized blocks start with (padSerial)
	SerialInstrs int // instructions of serialized blocks, pads included: the calling convention's words
}

// Emit lays out the scheduled blocks (entry first) and rewrites virtual
// registers to their allocated physical registers (alloc is Allocate's
// result, indexed by VReg).
func Emit(sf *SFunc, alloc []mach.PReg) (*FuncCode, error) {
	orderIDs := sf.Layout()
	base := map[int]int{}
	total := 0
	for _, id := range orderIDs {
		base[id] = total
		total += len(sf.Blocks[id].Instrs)
	}

	fc := &FuncCode{Name: sf.Name, Instrs: make([]mach.Instr, total),
		Lines:   make([][]int32, total),
		CompOps: sf.CompOps, CopyOps: sf.CopyOps, SpecLoads: sf.SpecLoads,
		PadInstrs: sf.PadInstrs, SerialInstrs: sf.SerialInstrs}

	regOf := func(r VReg) (mach.PReg, error) {
		if r == VNone {
			return mach.PReg{}, nil
		}
		if int(r) >= len(alloc) || !alloc[r].Valid() {
			return mach.PReg{}, fmt.Errorf("%s: t%d has no physical register", sf.Name, r)
		}
		return alloc[r], nil
	}
	argOf := func(a VArg) (mach.Arg, error) {
		if a.IsImm {
			return mach.Arg{IsImm: true, Imm: a.Imm, Sym: a.Sym}, nil
		}
		if a.Reg == VNone {
			return mach.Arg{}, nil
		}
		p, err := regOf(a.Reg)
		return mach.Arg{Reg: p}, err
	}

	for _, id := range orderIDs {
		b := sf.Blocks[id]
		for i := range b.Instrs {
			src := &b.Instrs[i]
			dst := &fc.Instrs[base[id]+i]
			for si := range src.Slots {
				s := &src.Slots[si]
				var op mach.Op
				op.Kind = s.Op.Kind
				op.Type = s.Op.Type
				op.FImm = s.Op.ImmF
				op.Spec = s.Op.Spec
				op.Prio = s.Prio
				op.Sym = s.Op.Sym
				var err error
				if op.Dst, err = regOf(s.Op.Dst); err != nil {
					return nil, err
				}
				if op.A, err = argOf(s.Op.A); err != nil {
					return nil, err
				}
				if op.B, err = argOf(s.Op.B); err != nil {
					return nil, err
				}
				if op.C, err = argOf(s.Op.C); err != nil {
					return nil, err
				}
				switch s.Op.Kind {
				case mach.OpJmp, mach.OpBrT:
					op.Target = base[s.TargetBlock] + s.TargetOff
				case mach.OpCall:
					op.Sym = s.Op.Sym // resolved by the linker
				}
				dst.Slots = append(dst.Slots, mach.SlotOp{Unit: s.Unit, Beat: s.Beat, Op: op})
				fc.Lines[base[id]+i] = append(fc.Lines[base[id]+i], int32(s.Op.Line))
				if s.Op.Kind != ir.Nop {
					fc.Ops++
				}
			}
		}
	}
	return fc, nil
}

// CompileFunc runs the whole backend on one lowered function.
func CompileFunc(cfg mach.Config, vf *VFunc, prof ir.EdgeWeights, layout map[string]int64, maxTraceBlocks int) (*FuncCode, error) {
	sf, err := Assemble(cfg, vf, prof, layout, maxTraceBlocks)
	if err != nil {
		return nil, err
	}
	alloc, err := Allocate(sf, cfg)
	if err != nil {
		return nil, err
	}
	return Emit(sf, alloc)
}
