// Package isa implements the TRACE instruction set encoding: the Figure-3
// fixed-width instruction word (8 x 32-bit words per I-F pair, early/late
// beats, a shared immediate word per beat), the §6.5.1 variable-length main
// memory representation (blocks of four instructions preceded by four mask
// words that elide no-op fields), and the linker that lays out functions and
// globals into an executable image.
//
// Word layout per pair p (words 8p..8p+7):
//
//	w0  I-ALU0 early    w4  I-ALU0 late
//	w1  shared imm/branch word (early)
//	w5  shared imm word (late)
//	w2  I-ALU1 early    w6  I-ALU1 late
//	w3  F adder (FA)    w7  F multiplier (FM)
//
// ALU/F operation word:
//
//	[31:25] opcode+1 (0 = no-op, so zero-filled cache words are no-ops)
//	[24:19] dest register (store data SF register for stores)
//	[18:16] dest_bank: 0 none, 1..4 I bank of board 0..3, 5 paired F,
//	        6 paired SF, 7 paired branch bank. SELECT reuses this field as
//	        its branch-bank condition selector (its dest is always local).
//	[15:10] src1 register
//	[9:8]   src2 mode: 0 none, 1 register, 2 inline 6-bit immediate,
//	        3 32-bit immediate from the beat's shared word
//	[7:2]   src2 register / signed 6-bit immediate
//	[1]     64-bit flag (element size for loads/stores/moves/selects)
//	[0]     src1 valid
//
// Early shared word w1: a 32-bit immediate when any early op uses src2
// mode 3 (or the high half of an F constant); otherwise, if nonzero, the
// pair's branch word:
//
//	[31:29] branch-bank test bit   [28:26] priority
//	[25:22] kind: 1 brt, 2 jmp, 3 call, 4 jmpr, 5 halt, 6 syscall
//	[21:0]  signed displacement (instructions), jmpr register, or service
//
// The compiler guarantees a branch and an early long immediate never share
// a pair (§6.1: the 32-bit immediate field is "flexibly shared between
// ALU0, ALU1, and a 32-bit PC adder").
package isa

import (
	"fmt"
	"math"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// WordsPerPair is the number of 32-bit words per I-F pair per instruction.
const WordsPerPair = 8

// EncodeError reports an instruction that does not fit the format.
type EncodeError struct{ Msg string }

func (e *EncodeError) Error() string { return "isa: " + e.Msg }

func errf(format string, args ...any) error {
	return &EncodeError{fmt.Sprintf(format, args...)}
}

const (
	brNone    = 0
	brBrT     = 1
	brJmp     = 2
	brCall    = 3
	brJmpR    = 4
	brHalt    = 5
	brSyscall = 6
)

// Syscall service numbers.
const (
	SysPrintI = 0
	SysPrintF = 1
)

// Encode packs one wide instruction into 8×pairs words.
func Encode(in *mach.Instr, cfg mach.Config) ([]uint32, error) {
	words := make([]uint32, WordsPerPair*cfg.Pairs)
	type immUse struct {
		used bool
		val  uint32
	}
	imm := make([]immUse, 2*cfg.Pairs) // (pair, beat)
	branch := make([]bool, cfg.Pairs)

	setImm := func(pair int, beat int, v uint32) error {
		k := 2*pair + beat
		if imm[k].used && imm[k].val != v {
			return errf("two long immediates on pair %d beat %d", pair, beat)
		}
		imm[k] = immUse{true, v}
		return nil
	}

	for si := range in.Slots {
		s := &in.Slots[si]
		p := int(s.Unit.Pair)
		if p >= cfg.Pairs {
			return nil, errf("slot on pair %d of a %d-pair machine", p, cfg.Pairs)
		}
		switch s.Unit.Kind {
		case mach.UBR:
			if branch[p] {
				return nil, errf("two branch ops on pair %d", p)
			}
			branch[p] = true
			w, err := encodeBranch(&s.Op)
			if err != nil {
				return nil, err
			}
			words[WordsPerPair*p+1] = w
		case mach.UIALU, mach.UFA, mach.UFM:
			// All register reads address the executing pair's own banks on
			// the executing side; the operand fields carry neither board
			// nor bank, so a mismatch would silently read the wrong
			// location. Reject it here.
			wantBank := mach.BankI
			if s.Unit.Kind == mach.UFA || s.Unit.Kind == mach.UFM {
				wantBank = mach.BankF
			}
			for ai, a := range []mach.Arg{s.Op.A, s.Op.B, s.Op.C} {
				if a.IsImm || !a.Reg.Valid() {
					continue
				}
				if int(a.Reg.Board) != p {
					return nil, errf("%s on pair %d reads non-local register %s",
						mach.OpName(s.Op.Kind), p, a.Reg)
				}
				// A (select cond) is a branch-bank read; C of a store is the
				// store file: both encoded outside the source fields.
				if (s.Op.Kind == ir.Select && ai == 0) || (s.Op.Kind == ir.Store && ai == 2) {
					continue
				}
				if a.Reg.Bank != wantBank {
					return nil, errf("%s on %s reads %s: wrong side",
						mach.OpName(s.Op.Kind), s.Unit, a.Reg)
				}
			}
			// Destination reachability: dest_bank can route to any I bank,
			// but F (except tagged-bus moves and loads), SF, and branch-bank
			// writes are pair-local.
			if d := s.Op.Dst; d.Valid() && int(d.Board) != p {
				reachable := d.Bank == mach.BankI ||
					(d.Bank == mach.BankF && s.Op.Kind == ir.Mov)
				if !reachable {
					return nil, errf("%s on pair %d writes unreachable %s",
						mach.OpName(s.Op.Kind), p, d)
				}
			}
			var wi int
			switch s.Unit.Kind {
			case mach.UIALU:
				wi = WordsPerPair*p + int(s.Beat)*4 + int(s.Unit.Idx)*2
			case mach.UFA:
				wi = WordsPerPair*p + 3
			case mach.UFM:
				wi = WordsPerPair*p + 7
			}
			if words[wi] != 0 {
				return nil, errf("unit %s slot already used", s.Unit)
			}
			if s.Op.Kind == ir.ConstF {
				bits := math.Float64bits(s.Op.FImm)
				if err := setImm(p, 0, uint32(bits>>32)); err != nil {
					return nil, err
				}
				if err := setImm(p, 1, uint32(bits)); err != nil {
					return nil, err
				}
				w, err := encodeALU(&s.Op, 0)
				if err != nil {
					return nil, err
				}
				words[wi] = w
				continue
			}
			w, err := encodeALU(&s.Op, int(s.Beat))
			if err != nil {
				return nil, err
			}
			if needsImm32(&s.Op) {
				if err := setImm(p, int(s.Beat), uint32(longImm(&s.Op))); err != nil {
					return nil, err
				}
			}
			words[wi] = w
		default:
			return nil, errf("slot with no unit")
		}
	}
	for p := 0; p < cfg.Pairs; p++ {
		if branch[p] && imm[2*p].used {
			return nil, errf("pair %d has both a branch and an early long immediate", p)
		}
		if imm[2*p].used {
			words[WordsPerPair*p+1] = imm[2*p].val
		}
		if imm[2*p+1].used {
			words[WordsPerPair*p+5] = imm[2*p+1].val
		}
	}
	return words, nil
}

// needsImm32 reports whether the op's src2 is a long immediate.
func needsImm32(o *mach.Op) bool {
	a := src2Of(o)
	return a.IsImm && (a.Sym != "" || a.Imm < -32 || a.Imm > 31)
}

func longImm(o *mach.Op) int32 { return src2Of(o).Imm }

// src2Of returns the operand encoded in the src2 field: B for most ops, A
// for ConstI (a "move immediate"), C for SELECT's else-value.
func src2Of(o *mach.Op) mach.Arg {
	switch o.Kind {
	case ir.ConstI:
		return o.A
	case ir.Select:
		return o.C
	}
	return o.B
}

// destBankOf computes the dest_bank field and destination index.
func destBankOf(o *mach.Op) (bank uint32, idx uint32, err error) {
	if o.Kind == ir.Store {
		// stores have no destination; the dest field carries the store
		// file register supplying the data (C operand)
		return 6, uint32(o.C.Reg.Idx), nil
	}
	if o.Kind == ir.Select {
		// dest_bank field holds the branch-bank condition selector
		return uint32(o.A.Reg.Idx), uint32(o.Dst.Idx), nil
	}
	if !o.Dst.Valid() {
		return 0, 0, nil
	}
	switch o.Dst.Bank {
	case mach.BankI:
		return 1 + uint32(o.Dst.Board), uint32(o.Dst.Idx), nil
	case mach.BankF:
		return 5, uint32(o.Dst.Idx), nil
	case mach.BankSF:
		return 6, uint32(o.Dst.Idx), nil
	case mach.BankB:
		return 7, uint32(o.Dst.Idx), nil
	}
	return 0, 0, errf("bad destination %s", o.Dst)
}

// encodeALU packs an ALU/F operation word.
func encodeALU(o *mach.Op, beat int) (uint32, error) {
	if int(o.Kind)+1 >= 128 {
		return 0, errf("opcode %d out of range", o.Kind)
	}
	w := uint32(o.Kind+1) << 25
	bank, didx, err := destBankOf(o)
	if err != nil {
		return 0, err
	}
	if didx >= 64 {
		return 0, errf("dest index %d out of range", didx)
	}
	w |= didx << 19
	w |= bank << 16

	// src1
	var src1 mach.Arg
	switch o.Kind {
	case ir.ConstI, ir.ConstF:
		// no src1
	case ir.Select:
		src1 = o.B // then-value
	default:
		src1 = o.A
	}
	if !src1.IsImm && src1.Reg.Valid() {
		if src1.Reg.Idx >= 64 {
			return 0, errf("src1 index out of range")
		}
		w |= uint32(src1.Reg.Idx) << 10
		w |= 1 // src1 valid
	} else if src1.IsImm {
		return 0, errf("%s: src1 cannot be an immediate", mach.OpName(o.Kind))
	}

	// src2
	s2 := src2Of(o)
	switch {
	case !s2.IsImm && s2.Reg.Valid():
		w |= 1 << 8
		w |= uint32(s2.Reg.Idx) << 2
	case s2.IsImm && !needsImm32(o):
		w |= 2 << 8
		w |= uint32(uint8(int8(s2.Imm))&0x3f) << 2
	case s2.IsImm:
		w |= 3 << 8
	}
	// MOV to a remote F bank rides a tagged bus (§6.3); the destination
	// board travels in the otherwise-unused src2 payload. (Loads already
	// deliver over tagged buses, but their src2 field carries the offset,
	// so the scheduler keeps F-destined loads pair-local.)
	if o.Kind == ir.Mov && o.Dst.Valid() && o.Dst.Bank == mach.BankF {
		w |= uint32(o.Dst.Board) << 2
	}

	if o.Type == ir.F64 {
		w |= 1 << 1
	}
	return w, nil
}

// branchDisp range-checks a branch target against the 22-bit displacement
// field. The decoder sign-extends bit 21, so post-link absolute addresses
// must fit in 21 bits — beyond that the encoding would silently wrap to a
// different (possibly negative) address.
func branchDisp(o *mach.Op) (uint32, error) {
	if o.Target < 0 || o.Target >= 1<<21 {
		return 0, errf("branch target %d outside the 22-bit displacement field", o.Target)
	}
	return uint32(o.Target) & 0x3fffff, nil
}

// encodeBranch packs the pair's branch word.
func encodeBranch(o *mach.Op) (uint32, error) {
	var kind, bb, disp uint32
	var err error
	bb = 7
	switch o.Kind {
	case mach.OpBrT:
		kind = brBrT
		if o.A.Reg.Bank != mach.BankB {
			return 0, errf("brt condition not in a branch bank")
		}
		bb = uint32(o.A.Reg.Idx)
		if disp, err = branchDisp(o); err != nil {
			return 0, err
		}
	case mach.OpJmp:
		kind = brJmp
		if disp, err = branchDisp(o); err != nil {
			return 0, err
		}
	case mach.OpCall:
		kind = brCall
		if disp, err = branchDisp(o); err != nil {
			return 0, err
		}
	case mach.OpJmpR:
		kind = brJmpR
		disp = uint32(o.A.Reg.Idx)
	case mach.OpHalt:
		kind = brHalt
	case mach.OpSyscall:
		kind = brSyscall
		switch o.Sym {
		case "print_i":
			disp = SysPrintI
		case "print_f":
			disp = SysPrintF
		default:
			return 0, errf("unknown syscall %q", o.Sym)
		}
	default:
		return 0, errf("%s is not a branch-unit op", mach.OpName(o.Kind))
	}
	if o.Prio >= 8 {
		return 0, errf("branch priority %d out of range", o.Prio)
	}
	return bb<<29 | uint32(o.Prio)<<26 | kind<<22 | disp, nil
}

// Decode unpacks one instruction from 8×pairs words. Branch displacements
// come back in Target; relocations are already resolved, so Sym fields are
// empty except for syscalls (resolved back from the service number).
func Decode(words []uint32, cfg mach.Config) (*mach.Instr, error) {
	if len(words) != WordsPerPair*cfg.Pairs {
		return nil, errf("decode: %d words for %d pairs", len(words), cfg.Pairs)
	}
	in := &mach.Instr{}
	for p := 0; p < cfg.Pairs; p++ {
		base := WordsPerPair * p
		earlyImmUsed := false
		// first pass: ALU/F words
		type alu struct {
			wi   int
			unit mach.Unit
			beat uint8
		}
		alus := []alu{
			{base + 0, mach.Unit{Kind: mach.UIALU, Pair: uint8(p), Idx: 0}, 0},
			{base + 2, mach.Unit{Kind: mach.UIALU, Pair: uint8(p), Idx: 1}, 0},
			{base + 4, mach.Unit{Kind: mach.UIALU, Pair: uint8(p), Idx: 0}, 1},
			{base + 6, mach.Unit{Kind: mach.UIALU, Pair: uint8(p), Idx: 1}, 1},
			{base + 3, mach.Unit{Kind: mach.UFA, Pair: uint8(p)}, 0},
			{base + 7, mach.Unit{Kind: mach.UFM, Pair: uint8(p)}, 0},
		}
		for _, a := range alus {
			w := words[a.wi]
			if w == 0 {
				continue
			}
			fside := a.unit.Kind == mach.UFA || a.unit.Kind == mach.UFM
			op, usesEarlyImm, err := decodeALU(w, uint8(p), a.beat, fside, words[base+1], words[base+5])
			if err != nil {
				return nil, err
			}
			if usesEarlyImm {
				earlyImmUsed = true
			}
			in.Slots = append(in.Slots, mach.SlotOp{Unit: a.unit, Beat: a.beat, Op: *op})
		}
		// second pass: branch word, unless the early word is claimed as data
		if w := words[base+1]; w != 0 && !earlyImmUsed {
			op, err := decodeBranch(w, uint8(p))
			if err != nil {
				return nil, err
			}
			in.Slots = append(in.Slots, mach.SlotOp{
				Unit: mach.Unit{Kind: mach.UBR, Pair: uint8(p)}, Beat: 0, Op: *op})
		}
	}
	return in, nil
}

func decodeALU(w uint32, pair, beat uint8, fside bool, earlyImm, lateImm uint32) (*mach.Op, bool, error) {
	o := &mach.Op{Kind: ir.OpKind(w>>25) - 1}
	usesEarly := false
	if w&(1<<1) != 0 {
		o.Type = ir.F64
	} else {
		o.Type = typeOfKind(o.Kind)
	}
	didx := uint8(w >> 19 & 0x3f)
	bank := w >> 16 & 7

	// The word position fixes which side's banks the source fields address:
	// F-unit words read the F bank, I-unit words the I bank — regardless of
	// element type (an I32 staged in an F register for conversion is still
	// an F-bank read).
	srcBank := mach.BankI
	if fside {
		srcBank = mach.BankF
	}

	// src1
	if w&1 != 0 {
		r := uint8(w >> 10 & 0x3f)
		src1 := mach.Arg{Reg: mach.PReg{Bank: srcBank, Board: pair, Idx: r}}
		if o.Kind == ir.Select {
			o.B = src1
		} else {
			o.A = src1
		}
	}
	// src2
	var s2 mach.Arg
	switch w >> 8 & 3 {
	case 1:
		s2 = mach.Arg{Reg: mach.PReg{Bank: srcBank, Board: pair, Idx: uint8(w >> 2 & 0x3f)}}
	case 2:
		v := int32(int8(uint8(w>>2&0x3f)<<2)) >> 2 // sign-extend 6 bits
		s2 = mach.Arg{IsImm: true, Imm: v}
	case 3:
		if o.Kind == ir.ConstF {
			break
		}
		if beat == 0 {
			s2 = mach.Arg{IsImm: true, Imm: int32(earlyImm)}
			usesEarly = true
		} else {
			s2 = mach.Arg{IsImm: true, Imm: int32(lateImm)}
		}
	}
	switch o.Kind {
	case ir.ConstI:
		o.A = s2
	case ir.Select:
		o.C = s2
	default:
		o.B = s2
	}

	if o.Kind == ir.ConstF {
		o.FImm = math.Float64frombits(uint64(earlyImm)<<32 | uint64(lateImm))
		o.Dst = mach.PReg{Bank: mach.BankF, Board: pair, Idx: didx}
		usesEarly = true
		return o, usesEarly, nil
	}
	switch o.Kind {
	case ir.Store:
		o.C = mach.Arg{Reg: mach.PReg{Bank: mach.BankSF, Board: pair, Idx: didx}}
	case ir.Select:
		o.A = mach.Arg{Reg: mach.PReg{Bank: mach.BankB, Board: pair, Idx: uint8(bank)}}
		o.Dst = mach.PReg{Bank: srcBank, Board: pair, Idx: didx}
	default:
		switch bank {
		case 0:
			// no destination
		case 1, 2, 3, 4:
			o.Dst = mach.PReg{Bank: mach.BankI, Board: uint8(bank - 1), Idx: didx}
		case 5:
			fb := pair
			if o.Kind == ir.Mov {
				fb = uint8(w >> 2 & 3) // tagged-bus destination board
			}
			o.Dst = mach.PReg{Bank: mach.BankF, Board: fb, Idx: didx}
		case 6:
			o.Dst = mach.PReg{Bank: mach.BankSF, Board: pair, Idx: didx}
		case 7:
			o.Dst = mach.PReg{Bank: mach.BankB, Board: pair, Idx: didx}
		}
	}
	if o.Kind == ir.LoadSpec {
		o.Spec = true
	}
	return o, usesEarly, nil
}

// typeOfKind gives the default element type when the size64 bit is clear:
// f64 for a float constant and for every F-unit opcode but the conversion
// to integer.
func typeOfKind(k ir.OpKind) ir.Type {
	if k == ir.ConstF || mach.FUnit(k) != mach.UnitNone && k != ir.FtoI {
		return ir.F64
	}
	return ir.I32
}

func decodeBranch(w uint32, pair uint8) (*mach.Op, error) {
	kind := w >> 22 & 0xf
	bb := uint8(w >> 29 & 7)
	prio := int(w >> 26 & 7)
	disp := int(int32(w<<10) >> 10) // sign-extend 22 bits
	o := &mach.Op{Prio: prio}
	switch kind {
	case brBrT:
		o.Kind = mach.OpBrT
		o.A = mach.Arg{Reg: mach.PReg{Bank: mach.BankB, Board: pair, Idx: bb}}
		o.Target = disp
	case brJmp:
		o.Kind = mach.OpJmp
		o.Target = disp
	case brCall:
		o.Kind = mach.OpCall
		o.Target = disp
		o.Dst = mach.RegLR
	case brJmpR:
		o.Kind = mach.OpJmpR
		o.A = mach.Arg{Reg: mach.PReg{Bank: mach.BankI, Board: pair, Idx: uint8(disp & 0x3f)}}
	case brHalt:
		o.Kind = mach.OpHalt
	case brSyscall:
		o.Kind = mach.OpSyscall
		switch disp {
		case SysPrintI:
			o.Sym = "print_i"
		case SysPrintF:
			o.Sym = "print_f"
		default:
			return nil, errf("unknown syscall number %d", disp)
		}
	default:
		return nil, errf("bad branch kind %d", kind)
	}
	return o, nil
}
