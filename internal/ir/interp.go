package ir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Profile records observed (or estimated) control-flow edge frequencies for
// each function: weight of the edge fromBlock→toBlock. The trace selector
// consumes profiles; the interpreter produces exact ones and package profile
// produces heuristic ones ("estimates of branch directions obtained
// automatically through heuristics or profiling", §4).
type Profile map[string]EdgeWeights

// EdgeWeights is one function's share of a Profile: edge {fromBlock, toBlock}
// → weight.
type EdgeWeights = map[[2]int]float64

// FunnyI32 is the "funny number" written by a failed speculative load (§7),
// chosen to be recognizable in dumps.
const FunnyI32 = int64(int32(-559038737)) // 0xDEADBEEF as i32

// FunnyF64 is the floating "funny number" (a quiet NaN propagates exactly as
// the paper describes for fast-mode exceptions).
var FunnyF64 = math.NaN()

// RunError describes an execution fault in the interpreter.
type RunError struct {
	Func string
	Msg  string
}

func (e *RunError) Error() string { return fmt.Sprintf("%s: %s", e.Func, e.Msg) }

// Interp executes a Program directly. It is the semantic ground truth: the
// VLIW simulator must produce identical output and exit values for every
// program at every optimization level and machine configuration.
//
// Its opcode switch is deliberately its own copy of the value semantics and
// not the table the executors share (mach.ValueOf): it is the reference the
// fuzz oracle compares them against, and a reference that called the table
// would inherit its bugs.
type Interp struct {
	Prog *Program

	// MemSize is the size of the flat data memory in bytes (default 1 MiB).
	MemSize int64
	// StepLimit bounds executed ops (default 200M) to catch runaway loops.
	StepLimit int64
	// MaxDepth bounds call nesting (default 10000). The stack-overflow check
	// on sp alone cannot catch a zero-frame recursive function, which would
	// otherwise recurse the Go stack itself to death.
	MaxDepth int
	// Profile, when non-nil, accumulates edge counts during execution.
	Profile Profile
	// OnOps, when non-nil, observes every executed op in dynamic order, one
	// straight run of a block at a time: a run ends at a call or at the
	// block's terminator and is observed before that op executes, so a
	// callee's ops come after the call that enters them (a run a fault cuts
	// short is not observed). Timing models (the scalar and scoreboard
	// baselines) are built on this hook.
	OnOps func(ops []Op)

	mem   []byte
	out   bytes.Buffer
	steps int64
	sp    int64
	depth int
	gaddr map[string]int64
	funcs map[string]*Func // callee by name, built once per Run
	// regs holds every live call's registers, one frame above its caller's
	// (top is the first free slot), and args passes a call's operands: a
	// call allocates nothing once the slab has grown to the deepest one.
	regs []uint64
	top  int
	args []uint64
}

// GlobalBase is the address of the first global; low memory is left unmapped
// so that null and small pointers fault, as on the real machine.
const GlobalBase = 0x1000

// LayoutGlobals assigns an address to every global, 8-byte aligned, starting
// at GlobalBase, and returns the map and one past the last used address.
// Both the interpreter and the linker use this so that addresses (and hence
// memory-bank behaviour) agree across executors.
func LayoutGlobals(p *Program) (map[string]int64, int64) {
	addr := map[string]int64{}
	next := int64(GlobalBase)
	for _, g := range p.Globals {
		addr[g.Name] = next
		next += (g.Size() + 7) &^ 7
	}
	return addr, next
}

// Run executes main and returns its exit value and captured output.
func (in *Interp) Run() (int32, string, error) {
	if in.MemSize == 0 {
		in.MemSize = 1 << 20
	}
	if in.StepLimit == 0 {
		in.StepLimit = 200_000_000
	}
	if in.MaxDepth == 0 {
		in.MaxDepth = 10_000
	}
	in.depth = 0
	in.mem = make([]byte, in.MemSize)
	in.out.Reset()
	in.steps = 0
	var top int64
	in.gaddr, top = LayoutGlobals(in.Prog)
	if top > in.MemSize {
		return 0, "", &RunError{"(layout)", "globals exceed memory"}
	}
	for _, g := range in.Prog.Globals {
		base := in.gaddr[g.Name]
		for i, v := range g.InitI {
			binary.LittleEndian.PutUint32(in.mem[base+int64(i)*4:], uint32(v))
		}
		for i, v := range g.InitF {
			binary.LittleEndian.PutUint64(in.mem[base+int64(i)*8:], math.Float64bits(v))
		}
	}
	in.sp = in.MemSize &^ 7
	in.top = 0
	in.funcs = make(map[string]*Func, len(in.Prog.Funcs))
	for i := len(in.Prog.Funcs) - 1; i >= 0; i-- { // the first of a name wins, as in Program.Func
		if f := in.Prog.Funcs[i]; !IsBuiltin(f.Name) {
			in.funcs[f.Name] = f
		}
	}
	m := in.funcs["main"]
	if m == nil {
		return 0, "", &RunError{"main", "not found"}
	}
	v, err := in.call(m, nil)
	if err != nil {
		return 0, in.out.String(), err
	}
	return int32(v), in.out.String(), nil
}

// call runs f on args in a fresh frame at the top of the register slab.
func (in *Interp) call(f *Func, args []uint64) (uint64, error) {
	if len(args) != len(f.Params) {
		return 0, &RunError{f.Name, fmt.Sprintf("have %d args, want %d", len(args), len(f.Params))}
	}
	if in.depth >= in.MaxDepth {
		return 0, &RunError{f.Name, "call depth limit exceeded"}
	}
	frame := (f.FrameSize + 7) &^ 7
	if in.sp-frame < GlobalBase {
		return 0, &RunError{f.Name, "stack overflow"}
	}
	base, n := in.top, f.NumRegs()
	if base+n > len(in.regs) {
		in.regs = append(in.regs[:cap(in.regs)], make([]uint64, base+n)...)
	}
	regs := in.regs[base : base+n]
	clear(regs)
	for i, p := range f.Params {
		regs[p.Reg] = args[i]
	}
	in.sp -= frame
	in.depth++
	in.top = base + n
	v, err := in.exec(f, base, in.sp)
	in.top = base
	in.depth--
	in.sp += frame
	return v, err
}

// exec runs f's blocks in the frame at regs[base:] with frame pointer fp.
func (in *Interp) exec(f *Func, base int, fp int64) (uint64, error) {
	regs := in.regs[base:in.top]
	var prof EdgeWeights
	if in.Profile != nil {
		if prof = in.Profile[f.Name]; prof == nil {
			prof = EdgeWeights{}
			in.Profile[f.Name] = prof
		}
	}

	b := 0
	for {
		blk := f.Blocks[b]
		run := 0 // the first op OnOps has not observed
		for i := range blk.Ops {
			o := &blk.Ops[i]
			in.steps++
			if in.steps > in.StepLimit {
				return 0, &RunError{f.Name, "step limit exceeded"}
			}
			if in.OnOps != nil && (o.Kind == Call || o.Kind.IsTerminator()) {
				in.OnOps(blk.Ops[run : i+1])
				run = i + 1
			}
			ri := func(k int) int32 { return int32(regs[o.Args[k]]) }
			rf := func(k int) float64 { return math.Float64frombits(regs[o.Args[k]]) }
			seti := func(v int32) { regs[o.Dst] = uint64(uint32(v)) }
			setf := func(v float64) { regs[o.Dst] = math.Float64bits(v) }
			setb := func(v bool) {
				if v {
					seti(1)
				} else {
					seti(0)
				}
			}
			switch o.Kind {
			case Nop:
			case ConstI:
				seti(int32(o.ImmI))
			case ConstF:
				setf(o.ImmF)
			case Mov:
				regs[o.Dst] = regs[o.Args[0]]
			case Add:
				seti(ri(0) + ri(1))
			case Sub:
				seti(ri(0) - ri(1))
			case Mul:
				seti(ri(0) * ri(1))
			case Div:
				d := ri(1)
				if d == 0 {
					return 0, &RunError{f.Name, fmt.Sprintf("integer divide by zero (line %d)", o.Line)}
				}
				seti(ri(0) / d)
			case Rem:
				d := ri(1)
				if d == 0 {
					return 0, &RunError{f.Name, fmt.Sprintf("integer remainder by zero (line %d)", o.Line)}
				}
				seti(ri(0) % d)
			case And:
				seti(ri(0) & ri(1))
			case Or:
				seti(ri(0) | ri(1))
			case Xor:
				seti(ri(0) ^ ri(1))
			case Shl:
				seti(ri(0) << (uint32(ri(1)) & 31))
			case Shr:
				seti(int32(uint32(ri(0)) >> (uint32(ri(1)) & 31)))
			case Sra:
				seti(ri(0) >> (uint32(ri(1)) & 31))
			case Neg:
				seti(-ri(0))
			case Not:
				seti(^ri(0))
			case CmpEQ:
				setb(ri(0) == ri(1))
			case CmpNE:
				setb(ri(0) != ri(1))
			case CmpLT:
				setb(ri(0) < ri(1))
			case CmpLE:
				setb(ri(0) <= ri(1))
			case CmpGT:
				setb(ri(0) > ri(1))
			case CmpGE:
				setb(ri(0) >= ri(1))
			case FAdd:
				setf(rf(0) + rf(1))
			case FSub:
				setf(rf(0) - rf(1))
			case FMul:
				setf(rf(0) * rf(1))
			case FDiv:
				setf(rf(0) / rf(1)) // IEEE: ±Inf/NaN, "fast mode" semantics (§7)
			case FNeg:
				setf(-rf(0))
			case FCmpEQ:
				setb(rf(0) == rf(1))
			case FCmpNE:
				setb(rf(0) != rf(1))
			case FCmpLT:
				setb(rf(0) < rf(1))
			case FCmpLE:
				setb(rf(0) <= rf(1))
			case FCmpGT:
				setb(rf(0) > rf(1))
			case FCmpGE:
				setb(rf(0) >= rf(1))
			case ItoF:
				setf(float64(ri(0)))
			case FtoI:
				v := rf(0)
				if math.IsNaN(v) || v > math.MaxInt32 || v < math.MinInt32 {
					seti(int32(FunnyI32))
				} else {
					seti(int32(v))
				}
			case Select:
				if ri(0) != 0 {
					regs[o.Dst] = regs[o.Args[1]]
				} else {
					regs[o.Dst] = regs[o.Args[2]]
				}
			case Load, LoadSpec:
				ea := int64(ri(0)) + o.ImmI
				sz := o.Type.Size()
				if ea < GlobalBase || ea+sz > in.MemSize {
					if o.Kind == LoadSpec {
						// §7: no trap; target gets a funny number
						if o.Type == I32 {
							seti(int32(FunnyI32))
						} else {
							setf(FunnyF64)
						}
						break
					}
					return 0, &RunError{f.Name, fmt.Sprintf("bus error: load %#x (line %d)", ea, o.Line)}
				}
				if o.Type == I32 {
					seti(int32(binary.LittleEndian.Uint32(in.mem[ea:])))
				} else {
					setf(math.Float64frombits(binary.LittleEndian.Uint64(in.mem[ea:])))
				}
			case Store:
				ea := int64(ri(0)) + o.ImmI
				sz := o.Type.Size()
				if ea < GlobalBase || ea+sz > in.MemSize {
					return 0, &RunError{f.Name, fmt.Sprintf("bus error: store %#x (line %d)", ea, o.Line)}
				}
				if o.Type == I32 {
					binary.LittleEndian.PutUint32(in.mem[ea:], uint32(ri(1)))
				} else {
					binary.LittleEndian.PutUint64(in.mem[ea:], math.Float64bits(rf(1)))
				}
			case GAddr:
				a, ok := in.gaddr[o.Sym]
				if !ok {
					return 0, &RunError{f.Name, "unknown global " + o.Sym}
				}
				seti(int32(a))
			case FrAddr:
				seti(int32(fp + o.ImmI))
			case Call:
				callee := in.funcs[o.Sym]
				if callee == nil {
					if IsBuiltin(o.Sym) {
						in.builtin(o.Sym, regs, o.Args)
						break
					}
					return 0, &RunError{f.Name, "unknown function " + o.Sym}
				}
				in.args = in.args[:0]
				for _, a := range o.Args {
					in.args = append(in.args, regs[a])
				}
				rv, err := in.call(callee, in.args)
				if err != nil {
					return 0, err
				}
				regs = in.regs[base:in.top] // the slab may have grown
				if o.Dst != None {
					regs[o.Dst] = rv
				}
			case Ret:
				if len(o.Args) == 1 {
					return regs[o.Args[0]], nil
				}
				return 0, nil
			case Br:
				if prof != nil {
					prof[[2]int{b, o.T0}]++
				}
				b = o.T0
			case CondBr:
				t := o.T1
				if ri(0) != 0 {
					t = o.T0
				}
				if prof != nil {
					prof[[2]int{b, t}]++
				}
				b = t
			default:
				return 0, &RunError{f.Name, "bad op " + o.Kind.String()}
			}
			if o.Kind.IsTerminator() {
				break
			}
		}
	}
}

func (in *Interp) builtin(name string, regs []uint64, args []Reg) {
	switch name {
	case "print_i":
		fmt.Fprintf(&in.out, "%d\n", int32(regs[args[0]]))
	case "print_f":
		fmt.Fprintf(&in.out, "%g\n", math.Float64frombits(regs[args[0]]))
	}
}
