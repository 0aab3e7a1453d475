package tsched

import (
	"errors"
	"fmt"
	"sort"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/mach"
)

// The register allocator as it stood while liveness was a map of cloned
// ir.RegSets and the interference graph a map of maps: refLiveness and
// refAllocate are that code verbatim (own copies of its helpers included), kept
// as the oracle the production allocator is compared against, set for set and
// register for register. regalloc_matrix_test.go drives it over the programs
// of the golden matrix; it lives in the external test package because the
// program sources (internal/xp, internal/fuzz) import this package.

// refLive is instruction-level liveness: After[b][i] = registers live
// following Instrs[i] of block b; Before[b][i] = live entering it (Before has
// len(Instrs)+1 entries).
type refLive struct {
	After  map[int][]ir.RegSet
	Before map[int][]ir.RegSet
}

// refAlloc is everything the allocator decided for one function.
type refAlloc struct {
	lv        *refLive
	neighbors map[VReg]map[VReg]bool // nil: the graph is not exposed
	alloc     map[VReg]mach.PReg
}

// refHome is the oracle's sf.Home[r], a map then: 0 for a register nothing
// homed.
func refHome(sf *SFunc, r VReg) uint8 {
	h, _ := sf.home.get(r)
	return h
}

func refAllocate(sf *SFunc, cfg mach.Config) (*refAlloc, error) {
	lv := refLiveness(sf)
	live := lv.After

	// interference graph, per (class, board)
	type node struct {
		neighbors map[VReg]bool
	}
	nodes := map[VReg]*node{}
	getNode := func(r VReg) *node {
		n := nodes[r]
		if n == nil {
			n = &node{neighbors: map[VReg]bool{}}
			nodes[r] = n
		}
		return n
	}
	vf := sf.VF
	sameBank := func(a, b VReg) bool {
		return vf.Class(a) == vf.Class(b) && refHome(sf, a) == refHome(sf, b)
	}
	addEdge := func(a, b VReg) {
		if a == b || !sameBank(a, b) {
			return
		}
		getNode(a).neighbors[b] = true
		getNode(b).neighbors[a] = true
	}

	var order []VReg
	seen := map[VReg]bool{}
	touch := func(r VReg) {
		if r != VNone && !seen[r] {
			seen[r] = true
			order = append(order, r)
			getNode(r)
		}
	}

	addSet := func(d VReg, set ir.RegSet) {
		for w := 0; w < len(set); w++ {
			bits := set[w]
			for ; bits != 0; bits &= bits - 1 {
				r := VReg(w*64 + refTrailingZeros(bits))
				addEdge(d, r)
			}
		}
	}
	// conflictWindow makes def d interfere with everything live at or
	// defined/read in instructions [off, off+rem] of block b — the window
	// during which d's pipeline write is still in flight. The §6.2 rule:
	// "the target register of any pipelined operation is in use from the
	// beat in which the operation is initiated until the beat in which it
	// is defined to be written" — and control may branch meanwhile, so the
	// walk follows branch targets with the remaining flight time.
	type wkey struct{ block, off, rem int }
	var conflictWindow func(d VReg, b *SBlock, off, rem int, seen map[wkey]bool)
	conflictWindow = func(d VReg, b *SBlock, off, rem int, seen map[wkey]bool) {
		k := wkey{b.ID, off, rem}
		if seen[k] || rem < 0 {
			return
		}
		seen[k] = true
		if off < len(lv.Before[b.ID]) {
			addSet(d, lv.Before[b.ID][off])
		}
		for i := off; i <= off+rem && i < len(b.Instrs); i++ {
			for si := range b.Instrs[i].Slots {
				s := &b.Instrs[i].Slots[si]
				if s.Op.Dst != VNone {
					addEdge(d, s.Op.Dst)
				}
				for _, u := range s.Op.Uses() {
					addEdge(d, u)
				}
				switch s.Op.Kind {
				case mach.OpJmp, mach.OpBrT:
					tb := sf.Blocks[s.TargetBlock]
					conflictWindow(d, tb, s.TargetOff, off+rem-i-1, seen)
				}
			}
		}
	}

	for _, b := range sf.Blocks {
		ls := live[b.ID]
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			cur := ls[i]
			for si := range in.Slots {
				op := &in.Slots[si].Op
				touch(op.Dst)
				for _, u := range op.Uses() {
					touch(u)
				}
				if op.Dst == VNone {
					continue
				}
				// def interferes with everything live after this instr,
				// and with other defs in the same instruction
				addSet(op.Dst, cur)
				for sj := range in.Slots {
					if sj != si && in.Slots[sj].Op.Dst != VNone {
						addEdge(op.Dst, in.Slots[sj].Op.Dst)
					}
					// A write can land mid-instruction (e.g. a 1-beat op
					// issued in the early beat writes before the late
					// beat's reads), so a def also interferes with every
					// register read anywhere in the same instruction.
					for _, u := range in.Slots[sj].Op.Uses() {
						addEdge(op.Dst, u)
					}
				}
				// In-flight extension: the write lands flight instructions
				// later; everything executed until then — along any path
				// control takes — must not share the register.
				flight := (cfg.Latency(op.Kind, op.Type) + 1 + int(in.Slots[si].Beat)) / 2
				if flight > 0 {
					conflictWindow(op.Dst, b, i, flight, map[wkey]bool{})
				}
			}
		}
	}

	res := &refAlloc{lv: lv, neighbors: map[VReg]map[VReg]bool{}}
	for r, n := range nodes {
		res.neighbors[r] = n.neighbors
	}

	// pools
	reservedI0 := map[uint8]bool{
		mach.RegSP.Idx: true, mach.RegLR.Idx: true, mach.RegRVI.Idx: true,
	}
	for i := 0; i < mach.MaxArgs; i++ {
		reservedI0[uint8(mach.ArgIBase+i)] = true
	}
	reservedF0 := map[uint8]bool{mach.RegRVF.Idx: true}
	for i := 0; i < mach.MaxArgs; i++ {
		reservedF0[uint8(mach.ArgFBase+i)] = true
	}
	pool := func(r VReg) []uint8 {
		var n int
		var excl map[uint8]bool
		board := refHome(sf, r)
		switch vf.Class(r) {
		case ClassI:
			n = cfg.IRegsPerBank
			if board == 0 {
				excl = reservedI0
			}
		case ClassF:
			n = cfg.FRegsPerBank
			if board == 0 {
				excl = reservedF0
			}
		case ClassSF:
			n = cfg.StoreFile
		case ClassB:
			n = cfg.BranchBank
		default:
			return nil
		}
		out := make([]uint8, 0, n)
		for i := 0; i < n; i++ {
			if excl == nil || !excl[uint8(i)] {
				out = append(out, uint8(i))
			}
		}
		return out
	}
	bankOf := func(c Class) mach.Bank {
		switch c {
		case ClassI:
			return mach.BankI
		case ClassF:
			return mach.BankF
		case ClassSF:
			return mach.BankSF
		case ClassB:
			return mach.BankB
		}
		return mach.BankNone
	}

	alloc := map[VReg]mach.PReg{}
	res.alloc = alloc
	for r, p := range vf.precolor {
		alloc[r] = p
	}
	// color high-degree nodes first for better packing
	sort.SliceStable(order, func(a, b int) bool {
		return len(nodes[order[a]].neighbors) > len(nodes[order[b]].neighbors)
	})
	for _, r := range order {
		if _, done := alloc[r]; done {
			continue
		}
		cls := vf.Class(r)
		if cls == ClassNone {
			continue
		}
		taken := map[uint8]bool{}
		for nb := range nodes[r].neighbors {
			if p, ok := alloc[nb]; ok {
				taken[p.Idx] = true
			}
		}
		var chosen *uint8
		for _, idx := range pool(r) {
			if !taken[idx] {
				i := idx
				chosen = &i
				break
			}
		}
		if chosen == nil {
			return res, &ErrPressure{Func: sf.Name, Class: cls, Board: refHome(sf, r)}
		}
		alloc[r] = mach.PReg{Bank: bankOf(cls), Board: refHome(sf, r), Idx: *chosen}
	}
	return res, nil
}

func refTrailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// refLiveness computes instruction-level liveness. Branch slots make their
// target instruction's live-in flow into the branch's own instruction.
func refLiveness(sf *SFunc) *refLive {
	nr := sf.VF.NumRegs()
	liveAfter := map[int][]ir.RegSet{}
	liveBefore := map[int][]ir.RegSet{}
	for _, b := range sf.Blocks {
		liveAfter[b.ID] = make([]ir.RegSet, len(b.Instrs))
		liveBefore[b.ID] = make([]ir.RegSet, len(b.Instrs)+1)
		for i := range liveAfter[b.ID] {
			liveAfter[b.ID][i] = ir.NewRegSet(nr)
		}
		for i := range liveBefore[b.ID] {
			liveBefore[b.ID][i] = ir.NewRegSet(nr)
		}
	}
	implicit := refImplicitUses(sf.VF)

	for changed := true; changed; {
		changed = false
		for _, b := range sf.Blocks {
			la := liveAfter[b.ID]
			lb := liveBefore[b.ID]
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				out := la[i].Clone()
				// fallthrough
				out.UnionWith(lb[i+1])
				// branch targets
				for si := range in.Slots {
					s := &in.Slots[si]
					switch s.Op.Kind {
					case mach.OpJmp, mach.OpBrT:
						tb := liveBefore[s.TargetBlock]
						if s.TargetOff < len(tb) {
							out.UnionWith(tb[s.TargetOff])
						}
					}
				}
				if !refSetsEqual(out, la[i]) {
					la[i] = out
					changed = true
				}
				// in = (out - defs) ∪ uses ∪ implicit
				cur := out.Clone()
				for si := range in.Slots {
					if d := in.Slots[si].Op.Dst; d != VNone {
						cur.Remove(ir.Reg(d))
					}
				}
				for si := range in.Slots {
					s := &in.Slots[si]
					for _, u := range s.Op.Uses() {
						cur.Add(ir.Reg(u))
					}
					for _, u := range implicit(&s.Op) {
						cur.Add(ir.Reg(u))
					}
				}
				if !refSetsEqual(cur, lb[i]) {
					lb[i] = cur
					changed = true
				}
			}
		}
	}
	return &refLive{After: liveAfter, Before: liveBefore}
}

// refImplicitUses returns the convention registers an op consumes beyond its
// explicit operands: returns read the return-value registers and LR, calls
// read the argument registers and SP, syscalls read the first arguments,
// halt reads the integer return register.
func refImplicitUses(vf *VFunc) func(*VOp) []VReg {
	var argRegs []VReg
	argRegs = append(argRegs, vf.ArgI...)
	argRegs = append(argRegs, vf.ArgF...)
	return func(o *VOp) []VReg {
		switch o.Kind {
		case mach.OpCall:
			return append(append([]VReg{}, argRegs...), vf.SP)
		case mach.OpJmpR:
			return []VReg{vf.RVI, vf.RVF}
		case mach.OpHalt:
			return []VReg{vf.RVI}
		case mach.OpSyscall:
			return []VReg{vf.ArgI[0], vf.ArgF[0]}
		}
		return nil
	}
}

func refSetsEqual(a, b ir.RegSet) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prodAllocate runs the production allocator and restates what it computed
// in the oracle's terms.
func prodAllocate(sf *SFunc, cfg mach.Config) (*refAlloc, error) {
	a := newAllocator(sf, cfg)
	a.liveness()
	a.interference()
	pregs, err := a.color()

	nr := sf.VF.NumRegs()
	regSet := func(row []uint64) ir.RegSet {
		set := ir.NewRegSet(nr)
		for w, bits := range row {
			for ; bits != 0; bits &= bits - 1 {
				set.Add(ir.Reg(a.regs[w*64+refTrailingZeros(bits)]))
			}
		}
		return set
	}
	got := &refAlloc{
		lv:        &refLive{After: map[int][]ir.RegSet{}, Before: map[int][]ir.RegSet{}},
		neighbors: map[VReg]map[VReg]bool{},
		alloc:     map[VReg]mach.PReg{},
	}
	for _, b := range sf.Blocks {
		got.lv.After[b.ID] = make([]ir.RegSet, len(b.Instrs))
		got.lv.Before[b.ID] = make([]ir.RegSet, len(b.Instrs)+1)
		for i := 0; i <= len(b.Instrs); i++ {
			got.lv.Before[b.ID][i] = regSet(a.row(a.before, a.base[b.ID]+i))
			if i < len(b.Instrs) {
				got.lv.After[b.ID][i] = regSet(a.row(a.after, a.base[b.ID]+i))
			}
		}
	}
	for i, r := range a.regs {
		got.neighbors[r] = map[VReg]bool{}
		for _, nb := range regList(regSet(a.row(a.adj, i))) {
			got.neighbors[r][nb] = true
		}
	}
	for r, p := range pregs {
		if p.Valid() {
			got.alloc[VReg(r)] = p
		}
	}
	return got, err
}

// CheckAllocate allocates sf with the production allocator and judges the
// result twice. mismatch is the first difference from the oracle: a liveness
// set, a register's neighbour set, the physical register of any virtual one,
// or the *ErrPressure a full bank is reported with. unsound is the first
// violation of the allocator's contract (checkSound), which consults no
// graph. allocErr is the production allocator's own verdict, for the caller's
// retry ladder.
func CheckAllocate(sf *SFunc, cfg mach.Config) (allocErr, mismatch, unsound error) {
	want, wantErr := refAllocate(sf, cfg)
	got, gotErr := prodAllocate(sf, cfg)
	mismatch = diffAlloc(sf, want, wantErr, got, gotErr)
	if gotErr == nil {
		unsound = checkSound(sf, cfg, want.lv, got.alloc)
	}
	return gotErr, mismatch, unsound
}

// CheckAllocationSound is the contract half of CheckAllocate alone.
func CheckAllocationSound(sf *SFunc, cfg mach.Config) (allocErr, unsound error) {
	got, err := prodAllocate(sf, cfg)
	if err != nil {
		return err, nil
	}
	return nil, checkSound(sf, cfg, refLiveness(sf), got.alloc)
}

func diffAlloc(sf *SFunc, want *refAlloc, wantErr error, got *refAlloc, gotErr error) error {
	var wp, gp *ErrPressure
	switch wantP, gotP := errors.As(wantErr, &wp), errors.As(gotErr, &gp); {
	case wantP != gotP, (wantErr == nil) != (gotErr == nil):
		return fmt.Errorf("%s: allocator returned %v, oracle %v", sf.Name, gotErr, wantErr)
	case wantP && *wp != *gp:
		return fmt.Errorf("%s: allocator reports %+v, oracle %+v", sf.Name, *gp, *wp)
	}
	for _, b := range sf.Blocks {
		for _, side := range []struct {
			name      string
			want, got []ir.RegSet
		}{{"before", want.lv.Before[b.ID], got.lv.Before[b.ID]}, {"after", want.lv.After[b.ID], got.lv.After[b.ID]}} {
			if len(side.want) != len(side.got) {
				return fmt.Errorf("%s: block %d has %d live-%s sets, oracle %d", sf.Name, b.ID, len(side.got), side.name, len(side.want))
			}
			for i := range side.want {
				if !sameSet(side.want[i], side.got[i]) {
					return fmt.Errorf("%s: live-%s of block %d instr %d is %v, oracle %v",
						sf.Name, side.name, b.ID, i, regList(side.got[i]), regList(side.want[i]))
				}
			}
		}
	}
	if got.neighbors != nil {
		for r, wn := range want.neighbors {
			gn := got.neighbors[r]
			if len(wn) != len(gn) {
				return fmt.Errorf("%s: t%d has %d neighbours, oracle %d", sf.Name, r, len(gn), len(wn))
			}
			for nb := range wn {
				if !gn[nb] {
					return fmt.Errorf("%s: t%d does not interfere with t%d, in the oracle it does", sf.Name, r, nb)
				}
			}
		}
		for r, gn := range got.neighbors {
			if len(gn) > 0 && want.neighbors[r] == nil {
				return fmt.Errorf("%s: t%d has neighbours, in the oracle it is not in the graph", sf.Name, r)
			}
		}
	}
	if wantErr != nil {
		return nil // the oracle stopped mid-colouring; the allocator returns no map
	}
	if len(want.alloc) != len(got.alloc) {
		return fmt.Errorf("%s: %d registers allocated, oracle %d", sf.Name, len(got.alloc), len(want.alloc))
	}
	for r, wp := range want.alloc {
		if gp, ok := got.alloc[r]; !ok || gp != wp {
			return fmt.Errorf("%s: t%d allocated to %v (present %t), oracle %v", sf.Name, r, gp, ok, wp)
		}
	}
	return nil
}

// sameSet compares two sets that may be sized for different register counts.
func sameSet(a, b ir.RegSet) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

func regList(s ir.RegSet) []VReg {
	var out []VReg
	for w, bits := range s {
		for ; bits != 0; bits &= bits - 1 {
			out = append(out, VReg(w*64+refTrailingZeros(bits)))
		}
	}
	return out
}

// checkSound checks the property the allocator exists for, by walking the
// schedule with liveness computed the slow way: at every definition, no
// register that is live after the instruction, named in the same instruction,
// or live or named anywhere control can reach while the definition's pipeline
// write is still in flight (§6.2) occupies the same physical register as the
// one being defined.
func checkSound(sf *SFunc, cfg mach.Config, lv *refLive, alloc map[VReg]mach.PReg) error {
	preg := func(r VReg) (mach.PReg, bool) {
		p, ok := alloc[r]
		return p, ok
	}
	for _, b := range sf.Blocks {
		for i := range b.Instrs {
			for si := range b.Instrs[i].Slots {
				s := &b.Instrs[i].Slots[si]
				d := s.Op.Dst
				pd, ok := preg(d)
				if d == VNone || !ok {
					continue
				}
				var clash error
				check := func(r VReg, where string, wb, wi int) {
					if p, ok := preg(r); clash == nil && r != d && ok && p == pd {
						clash = fmt.Errorf("%s: t%d (defined in block %d instr %d) and t%d (%s block %d instr %d) both live in %v",
							sf.Name, d, b.ID, i, r, where, wb, wi, pd)
					}
				}
				checkSet := func(set ir.RegSet, where string, wb, wi int) {
					for _, r := range regList(set) {
						check(r, where, wb, wi)
					}
				}
				checkSet(lv.After[b.ID][i], "live after", b.ID, i)
				type point struct{ block, off, rem int }
				seen := map[point]bool{}
				var window func(wb *SBlock, off, rem int)
				window = func(wb *SBlock, off, rem int) {
					if rem < 0 || seen[point{wb.ID, off, rem}] {
						return
					}
					seen[point{wb.ID, off, rem}] = true
					if off <= len(wb.Instrs) {
						checkSet(lv.Before[wb.ID][off], "live before", wb.ID, off)
					}
					for j := off; j <= off+rem && j < len(wb.Instrs); j++ {
						for sj := range wb.Instrs[j].Slots {
							t := &wb.Instrs[j].Slots[sj]
							check(t.Op.Dst, "written in", wb.ID, j)
							for _, u := range t.Op.Uses() {
								check(u, "read in", wb.ID, j)
							}
							if t.Op.Kind == mach.OpJmp || t.Op.Kind == mach.OpBrT {
								window(sf.Blocks[t.TargetBlock], t.TargetOff, off+rem-j-1)
							}
						}
					}
				}
				// rem 0 covers the defining instruction itself: a write can
				// land before a later beat's reads of the same instruction.
				window(b, i, (cfg.Latency(s.Op.Kind, s.Op.Type)+1+int(s.Beat))/2)
				if clash != nil {
					return clash
				}
			}
		}
	}
	return nil
}
