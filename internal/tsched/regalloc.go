package tsched

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/multiflow-repro/trace/internal/mach"
)

// Allocate maps every virtual register of the scheduled function onto a
// physical register in its home bank, by graph coloring over
// instruction-level liveness; the result is indexed by VReg, and a register
// the function never names stays invalid. The calling convention's registers
// are reserved out of the pools, so precolored virtuals never collide with
// allocated ones. An ErrPressure return means a bank ran out of registers;
// the driver retries with gentler optimization settings.
func Allocate(sf *SFunc, cfg mach.Config) ([]mach.PReg, error) {
	a := newAllocator(sf, cfg)
	a.liveness()
	a.interference()
	return a.color()
}

// ErrPressure reports a register bank that ran out of colors.
type ErrPressure struct {
	Func  string
	Class Class
	Board uint8
}

func (e *ErrPressure) Error() string {
	return fmt.Sprintf("%s: out of %s registers on board %d", e.Func, e.Class, e.Board)
}

// allocator owns the storage of one allocation. The registers the function
// names — destinations, operands and the convention registers its calls and
// returns consume — are numbered densely, and every set over them is a row of
// words uint64s in one flat slab: liveness before and after each instruction,
// and the interference graph as an adjacency matrix.
type allocator struct {
	sf  *SFunc
	cfg mach.Config

	regs  []VReg  // dense index -> register
	index []int32 // register -> dense index; -1 for one the function never names
	order []int32 // operands in the order the allocation walk first meets them
	words int

	// Block b owns rows base[b] .. base[b]+len(Instrs): one per instruction
	// and one past the end, which control never reaches and stays empty.
	base   []int
	instrs []instrRegs
	named  []int32 // the lists instrRegs cuts up

	before, after []uint64 // live entering / following each row's instruction
	adj           []uint64 // row r: the registers r interferes with
	bank          []uint8  // per register: its (class, home board)
	bankMask      []uint64 // row k: the registers of bank k
	window        []windowKey
}

// instrRegs locates one instruction's registers in allocator.named: the
// destinations at [dsts, uses), the explicit operands at [uses, implicit),
// the convention registers it consumes (implicitUses) at [implicit, end).
type instrRegs struct{ dsts, uses, implicit, end int32 }

// windowKey is one visit of conflictWindow.
type windowKey struct{ block, off, rem int }

// maxBoards bounds a home board (mach.Config.Pairs is at most 4).
const maxBoards = 4

func newAllocator(sf *SFunc, cfg mach.Config) *allocator {
	vf := sf.VF
	a := &allocator{sf: sf, cfg: cfg, index: make([]int32, vf.NumRegs()), base: make([]int, len(sf.Blocks))}
	for i := range a.index {
		a.index[i] = -1
	}
	rows := 0
	for _, b := range sf.Blocks {
		a.base[b.ID] = rows
		rows += len(b.Instrs) + 1
	}
	a.instrs = make([]instrRegs, rows)

	// Number the registers and list each instruction's. The walk is the one
	// the coloring order is defined by — blocks in order, instructions last
	// to first, per slot the destination then the operands — so order comes
	// out of the same pass; registers met only as implicit uses are numbered
	// but take no place in it (they are precolored).
	number := func(r VReg) int32 {
		if a.index[r] < 0 {
			a.index[r] = int32(len(a.regs))
			a.regs = append(a.regs, r)
		}
		return a.index[r]
	}
	touched := make([]bool, vf.NumRegs())
	touch := func(r VReg) {
		if i := number(r); !touched[r] {
			touched[r] = true
			a.order = append(a.order, i)
		}
	}
	implicit := make([]VReg, 0, 2*mach.MaxArgs+1)
	for _, b := range sf.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			ir := &a.instrs[a.base[b.ID]+i]
			for si := range in.Slots {
				op := &in.Slots[si].Op
				if op.Dst != VNone {
					touch(op.Dst)
				}
				for _, u := range op.Uses() {
					touch(u)
				}
			}
			ir.dsts = int32(len(a.named))
			for si := range in.Slots {
				if d := in.Slots[si].Op.Dst; d != VNone {
					a.named = append(a.named, a.index[d])
				}
			}
			ir.uses = int32(len(a.named))
			for si := range in.Slots {
				for _, u := range in.Slots[si].Op.Uses() {
					a.named = append(a.named, a.index[u])
				}
			}
			ir.implicit = int32(len(a.named))
			for si := range in.Slots {
				for _, u := range implicitUses(vf, &in.Slots[si].Op, implicit) {
					a.named = append(a.named, number(u))
				}
			}
			ir.end = int32(len(a.named))
		}
	}

	n := len(a.regs)
	a.words = (n + 63) / 64
	a.before = make([]uint64, rows*a.words)
	a.after = make([]uint64, rows*a.words)
	a.adj = make([]uint64, n*a.words)
	a.bank = make([]uint8, n)
	a.bankMask = make([]uint64, (int(ClassB)+1)*maxBoards*a.words)
	for i, r := range a.regs {
		// A register nothing homed reads as board 0, like its pool and its
		// physical register below.
		k := uint8(vf.Class(r))*maxBoards + a.home(r)
		a.bank[i] = k
		a.row(a.bankMask, int(k))[i>>6] |= 1 << (i & 63)
	}
	return a
}

// home is the board of r's bank: 0 for a register nothing homed.
func (a *allocator) home(r VReg) uint8 {
	h, _ := a.sf.home.get(r)
	return h
}

func (a *allocator) row(slab []uint64, i int) []uint64 {
	return slab[i*a.words : (i+1)*a.words : (i+1)*a.words]
}

// implicitUses appends the convention registers an op consumes beyond its
// explicit operands: returns read the return-value registers, calls read the
// argument registers and SP, syscalls read the first arguments, halt reads
// the integer return register.
func implicitUses(vf *VFunc, o *VOp, u []VReg) []VReg {
	switch o.Kind {
	case mach.OpCall:
		return append(append(append(u, vf.ArgI...), vf.ArgF...), vf.SP)
	case mach.OpJmpR:
		return append(u, vf.RVI, vf.RVF)
	case mach.OpHalt:
		return append(u, vf.RVI)
	case mach.OpSyscall:
		return append(u, vf.ArgI[0], vf.ArgF[0])
	}
	return u
}

// liveness computes instruction-level liveness in place. Branch slots make
// their target instruction's live-in flow into the branch's own instruction.
// The sweep runs against the flow — blocks and instructions last to first —
// and only ever adds to a row, so it climbs from the empty sets to the least
// fixed point whatever the order; the order only decides how many sweeps.
func (a *allocator) liveness() {
	cur := make([]uint64, a.words)
	for changed := true; changed; {
		changed = false
		for bi := len(a.sf.Blocks) - 1; bi >= 0; bi-- {
			b := a.sf.Blocks[bi]
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				r := a.base[b.ID] + i
				out := a.row(a.after, r)
				// fallthrough
				union(out, a.row(a.before, r+1))
				// branch targets
				for si := range b.Instrs[i].Slots {
					s := &b.Instrs[i].Slots[si]
					switch s.Op.Kind {
					case mach.OpJmp, mach.OpBrT:
						if s.TargetOff <= len(a.sf.Blocks[s.TargetBlock].Instrs) {
							union(out, a.row(a.before, a.base[s.TargetBlock]+s.TargetOff))
						}
					}
				}
				// in = (out - defs) ∪ uses ∪ implicit
				copy(cur, out)
				ir := a.instrs[r]
				for _, d := range a.named[ir.dsts:ir.uses] {
					cur[d>>6] &^= 1 << (d & 63)
				}
				for _, u := range a.named[ir.uses:ir.end] {
					cur[u>>6] |= 1 << (u & 63)
				}
				in := a.row(a.before, r)
				for w := range cur {
					if cur[w] != in[w] {
						copy(in, cur)
						changed = true
						break
					}
				}
			}
		}
	}
}

func union(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

// interference builds the graph, per (class, board).
func (a *allocator) interference() {
	for _, b := range a.sf.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			r := a.base[b.ID] + i
			ir := a.instrs[r]
			for si := range b.Instrs[i].Slots {
				s := &b.Instrs[i].Slots[si]
				if s.Op.Dst == VNone {
					continue
				}
				d := a.index[s.Op.Dst]
				// def interferes with everything live after this instr, with
				// other defs in the same instruction, and — a write can land
				// mid-instruction (e.g. a 1-beat op issued in the early beat
				// writes before the late beat's reads) — with every register
				// read anywhere in the same instruction.
				a.addSet(d, a.row(a.after, r))
				for _, o := range a.named[ir.dsts:ir.implicit] {
					a.addEdge(d, o)
				}
				// In-flight extension: the write lands flight instructions
				// later; everything executed until then — along any path
				// control takes — must not share the register.
				flight := (opLatency(&a.cfg, &s.Op) + 1 + int(s.Beat)) / 2
				if flight > 0 {
					a.window = a.window[:0]
					a.conflictWindow(d, b, i, flight)
				}
			}
		}
	}
}

func (a *allocator) addEdge(x, y int32) {
	if x == y || a.bank[x] != a.bank[y] {
		return
	}
	a.adj[int(x)*a.words+int(y>>6)] |= 1 << (y & 63)
	a.adj[int(y)*a.words+int(x>>6)] |= 1 << (x & 63)
}

// addSet makes d interfere with every register of its own bank in set.
func (a *allocator) addSet(d int32, set []uint64) {
	row, mask := a.row(a.adj, int(d)), a.row(a.bankMask, int(a.bank[d]))
	dw, dbit := int(d>>6), uint64(1)<<(d&63)
	for w := range row {
		fresh := set[w] & mask[w] &^ row[w]
		if w == dw {
			fresh &^= dbit
		}
		row[w] |= fresh
		for ; fresh != 0; fresh &= fresh - 1 {
			a.adj[(w<<6+bits.TrailingZeros64(fresh))*a.words+dw] |= dbit
		}
	}
}

// conflictWindow makes def d interfere with everything live at or
// defined/read in instructions [off, off+rem] of block b — the window
// during which d's pipeline write is still in flight. The §6.2 rule:
// "the target register of any pipelined operation is in use from the
// beat in which the operation is initiated until the beat in which it
// is defined to be written" — and control may branch meanwhile, so the
// walk follows branch targets with the remaining flight time. a.window
// holds the visits made for d so far.
func (a *allocator) conflictWindow(d int32, b *SBlock, off, rem int) {
	if rem < 0 {
		return
	}
	k := windowKey{b.ID, off, rem}
	for _, seen := range a.window {
		if seen == k {
			return
		}
	}
	a.window = append(a.window, k)
	if off <= len(b.Instrs) {
		a.addSet(d, a.row(a.before, a.base[b.ID]+off))
	}
	for i := off; i <= off+rem && i < len(b.Instrs); i++ {
		ir := a.instrs[a.base[b.ID]+i]
		for _, o := range a.named[ir.dsts:ir.implicit] {
			a.addEdge(d, o)
		}
		for si := range b.Instrs[i].Slots {
			s := &b.Instrs[i].Slots[si]
			switch s.Op.Kind {
			case mach.OpJmp, mach.OpBrT:
				a.conflictWindow(d, a.sf.Blocks[s.TargetBlock], s.TargetOff, off+rem-i-1)
			}
		}
	}
}

// color assigns the physical registers: high-degree nodes first for better
// packing, ties in first-touch order, each taking the lowest register of its
// pool no neighbour holds.
func (a *allocator) color() ([]mach.PReg, error) {
	vf, cfg := a.sf.VF, a.cfg
	alloc := make([]mach.PReg, vf.NumRegs())
	for r, p := range vf.precolor {
		alloc[r] = p
	}
	degree := make([]int32, len(a.regs))
	for i := range degree {
		for _, w := range a.row(a.adj, i) {
			degree[i] += int32(bits.OnesCount64(w))
		}
	}
	sort.SliceStable(a.order, func(x, y int) bool { return degree[a.order[x]] > degree[a.order[y]] })

	// pools: board 0's I and F banks hold the calling convention's registers
	pool := func(n int, reserved ...uint8) []uint8 {
		out := make([]uint8, 0, n)
	next:
		for i := 0; i < n; i++ {
			for _, x := range reserved {
				if x == uint8(i) {
					continue next
				}
			}
			out = append(out, uint8(i))
		}
		return out
	}
	reservedI0 := []uint8{mach.RegSP.Idx, mach.RegLR.Idx, mach.RegRVI.Idx}
	reservedF0 := []uint8{mach.RegRVF.Idx}
	for i := 0; i < mach.MaxArgs; i++ {
		reservedI0 = append(reservedI0, uint8(mach.ArgIBase+i))
		reservedF0 = append(reservedF0, uint8(mach.ArgFBase+i))
	}
	type bankPool struct {
		bank        mach.Bank
		board0, any []uint8
	}
	allI, allF := pool(cfg.IRegsPerBank), pool(cfg.FRegsPerBank)
	allSF, allB := pool(cfg.StoreFile), pool(cfg.BranchBank)
	pools := [...]bankPool{
		ClassI:  {mach.BankI, pool(cfg.IRegsPerBank, reservedI0...), allI},
		ClassF:  {mach.BankF, pool(cfg.FRegsPerBank, reservedF0...), allF},
		ClassSF: {mach.BankSF, allSF, allSF},
		ClassB:  {mach.BankB, allB, allB},
	}

	for _, i := range a.order {
		r := a.regs[i]
		cls := vf.Class(r)
		if alloc[r].Valid() || cls == ClassNone {
			continue
		}
		var taken [256]bool
		for w, nbs := range a.row(a.adj, int(i)) {
			for ; nbs != 0; nbs &= nbs - 1 {
				if p := alloc[a.regs[w<<6+bits.TrailingZeros64(nbs)]]; p.Valid() {
					taken[p.Idx] = true
				}
			}
		}
		board := a.home(r)
		free := pools[cls].any
		if board == 0 {
			free = pools[cls].board0
		}
		chosen := -1
		for _, idx := range free {
			if !taken[idx] {
				chosen = int(idx)
				break
			}
		}
		if chosen < 0 {
			return nil, &ErrPressure{Func: a.sf.Name, Class: cls, Board: board}
		}
		alloc[r] = mach.PReg{Bank: pools[cls].bank, Board: board, Idx: uint8(chosen)}
	}
	return alloc, nil
}
