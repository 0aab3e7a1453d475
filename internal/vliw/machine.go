// Package vliw is the beat-accurate TRACE simulator. It executes the
// decoded instruction image produced by the isa linker, modeling the
// machine of §6: two beats per instruction, self-draining functional-unit
// and memory pipelines, partitioned register banks, the interleaved banked
// memory with the bank-stall mechanism (§6.4.4), the distributed
// instruction cache with mask-word refill (§6.5), data and instruction TLBs
// with trap-and-replay history queues (§6.4.3), and the priority multiway
// branch (§6.5.2).
//
// The hardware has no interlocks, so the simulator doubles as a verifier:
// register-file port overflows, bus oversubscription, and write-write races
// fault the machine — exactly the failures the real TRACE would exhibit if
// the compiler's static resource plan were wrong.
//
// The machine is split §8.1-style into shared microarchitecture (the
// Machine: configuration, DMA engine, hooks, and the context scheduler),
// per-program architectural state (the Context: register banks, PC, write
// pipeline, address space, virtual clock) and what is a function of the
// program's image alone (the Plan: decoded words, regions). The
// processor is always running some context and has one way of doing it
// (schedule): ResetMany loads K programs into K hardware contexts and RunMany
// time-shares them on one simulated CPU, rotating on quantum expiry and
// eagerly on memory stalls — the latency-hiding complement to ILP the paper
// gestures at — and the classic single-program machine is a batch of one.
package vliw

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// Stats counts everything the experiments need.
type Stats struct {
	Beats          int64
	Instrs         int64
	Ops            int64 // non-nop operations initiated
	FloatOps       int64 // floating arithmetic initiated (for MFLOPS)
	MemRefs        int64
	Loads          int64
	Stores         int64
	SpecLoads      int64 // speculative loads executed
	SpecFaults     int64 // speculative loads that returned the funny number
	BankStalls     int64 // beats lost to the bank-stall mechanism
	ICacheMiss     int64
	ICacheHits     int64
	RefillBeats    int64 // beats lost to instruction cache refill
	TLBMisses      int64
	TrapBeats      int64 // beats spent in the TLB-miss trap handler
	Branches       int64
	Taken          int64
	Syscalls       int64
	Interrupts     int64
	InterruptBeats int64
	Switches       int64 // explicit ContextSwitch calls
	SwitchBeats    int64 // beats charged to state save/restore
	DMARefs        int64 // 64-bit memory references issued by the IOP
}

// MIPS returns achieved operations per second in millions.
func (s *Stats) MIPS() float64 {
	if s.Beats == 0 {
		return 0
	}
	return float64(s.Ops) / (float64(s.Beats) * mach.BeatNs * 1e-3)
}

// MFLOPS returns achieved floating operations per second in millions.
func (s *Stats) MFLOPS() float64 {
	if s.Beats == 0 {
		return 0
	}
	return float64(s.FloatOps) / (float64(s.Beats) * mach.BeatNs * 1e-3)
}

// TrapCode classifies machine faults. The TRACE has no interlocks, so the
// hardware detects only a small set of conditions; everything else the
// compiler must prevent statically. The taxonomy lets the differential fuzz
// oracle and the cmd tools distinguish program bugs (bad memory access,
// divide by zero) from compiler bugs (resource overflow, write races).
type TrapCode int

const (
	// TrapUnknown is a fault with no more specific classification.
	TrapUnknown TrapCode = iota
	// TrapBadPC is an instruction fetch outside the linked image (a wild
	// jump, a corrupted link register, or a fall-off-the-end).
	TrapBadPC
	// TrapMemBounds is a data reference outside mapped memory (below
	// GlobalBase or past the top of RAM) by a non-speculative op.
	TrapMemBounds
	// TrapUnaligned is a data reference not aligned to its access size.
	TrapUnaligned
	// TrapDivZero is an integer divide or remainder by zero.
	TrapDivZero
	// TrapResource is a static resource-plan violation: register-file port
	// overflow, bus oversubscription, or two ops on one unit in one beat —
	// always a compiler bug surfacing as hardware corruption.
	TrapResource
	// TrapWriteRace is two pipeline writes retiring into one register in the
	// same beat — a scheduling bug on the interlock-free machine.
	TrapWriteRace
	// TrapBadOp is an opcode the decoded slot's functional unit cannot
	// execute (a linker or encoder bug).
	TrapBadOp
	// TrapSyscall is an unknown system-call service name.
	TrapSyscall
)

var trapNames = [...]string{
	TrapUnknown: "fault", TrapBadPC: "bad-pc", TrapMemBounds: "mem-bounds",
	TrapUnaligned: "unaligned", TrapDivZero: "div-zero", TrapResource: "resource",
	TrapWriteRace: "write-race", TrapBadOp: "bad-op", TrapSyscall: "syscall",
}

func (c TrapCode) String() string {
	if int(c) < len(trapNames) {
		return trapNames[c]
	}
	return fmt.Sprintf("trap(%d)", int(c))
}

// Fault is a hardware-detectable error: a resource conflict the compiler
// should have prevented, or a memory violation. It carries the faulting
// instruction word index (the PC), beat, and — when the fault is raised
// while a slot executes — the functional unit whose operation faulted. The
// rendering uses the same word=/beat=/unit= vocabulary as schedcheck
// findings (cmd/tracelint), so a dynamic trap and the static diagnosis of
// the same defect cross-reference directly.
type Fault struct {
	Code TrapCode
	PC   int // faulting instruction word index
	Beat int64
	Unit string // functional unit of the faulting op ("" outside execution)
	Msg  string
}

func (f *Fault) Error() string {
	if f.Unit != "" {
		return fmt.Sprintf("machine fault [%s] at word=%d beat=%d unit=%s: %s", f.Code, f.PC, f.Beat, f.Unit, f.Msg)
	}
	return fmt.Sprintf("machine fault [%s] at word=%d beat=%d: %s", f.Code, f.PC, f.Beat, f.Msg)
}

// ErrCycleLimit reports that execution exceeded the machine's hard cycle
// budget. On hardware with no interlocks a miscompiled program cannot fault
// on a hazard — it can only loop or drift — so the budget is the watchdog
// that turns "the simulator wedged" into a diagnosable error.
type ErrCycleLimit struct {
	Limit int64 // the budget that was exhausted, in beats
	PC    int   // program counter when the budget ran out
}

func (e *ErrCycleLimit) Error() string {
	return fmt.Sprintf("cycle limit exceeded: %d beats at pc=%d (runaway or miscompiled program?)", e.Limit, e.PC)
}

// ErrCanceled reports that the run's context was canceled or its deadline
// expired mid-execution. The machine checks the context once every
// CtxCheckEvery beats, so execution stops within one check interval of the
// cancellation; the machine state is abandoned mid-program but the Machine
// itself stays reusable — Reset returns it to service (pools rely on this).
// Unwrap exposes the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two causes.
type ErrCanceled struct {
	Beat  int64 // beat at which the cancellation was observed
	PC    int   // program counter at that point
	Cause error // context.Canceled or context.DeadlineExceeded
}

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("run canceled at word=%d beat=%d: %v", e.PC, e.Beat, e.Cause)
}

func (e *ErrCanceled) Unwrap() error { return e.Cause }

// DefaultCtxCheckBeats is the default cancellation-check interval for
// RunContext: at simulator speed (~10M beats/s) it bounds the reaction time
// to well under a millisecond while keeping the check itself unmeasurable
// (one context poll per ~2000 executed instructions).
const DefaultCtxCheckBeats = 4096

// DefaultCtxQuantum is the default round-robin timeslice in beats when the
// configuration leaves mach.Config.CtxQuantum at zero: 2048 beats is ~133us
// of machine time, the same order as the §8.1 timeslicing discussion, and
// long enough that banking a context's stats on rotation is unmeasurable.
const DefaultCtxQuantum = 2048

// Trap cost model (beats), standing in for the §6.4.3 trap handler code:
// entry/exit (register save, mode switch) plus per-miss history-queue
// replay. "A few hand-coded instructions begin saving registers while the
// pipelines drain; after several instruction times we enter C code" (§8.2).
const (
	TrapEntryBeats  = 40
	TrapPerMissBeat = 12
	PageSize        = 8192
	TLBEntries      = 4096
)

// Machine is one TRACE processor with its memory system: the shared
// microarchitecture plus one or more resident program Contexts. The beat
// loop executes whichever context is current (cur); Run executes a batch of
// one — the classic single-program simulator — and RunMany time-shares all
// of them at beat granularity.
type Machine struct {
	Cfg mach.Config

	// Resident hardware contexts. cur points at the executing one; every
	// hot-loop state access indexes through it.
	ctxs   []*Context
	cur    *Context
	curIdx int

	// beat is the machine's wall clock: the batch's useful beats plus
	// unhidden stalls plus switch overhead. A solo run starts it at the
	// context's own clock, and the two then run together.
	beat int64

	// Multiway-branch scratch for step and for regions: a word's branch slots —
	// interpreted or translated — publish the winning target and a HALT here instead of
	// threading loop-local state through every executor signature.
	brTaken bool
	brPrio  int
	brNext  int
	brHalt  bool
	brExit  int32

	// I/O processor DMA stream (§8.3), active when dmaRate > 0. The IOP
	// targets the current context's address space.
	dmaRate   float64 // bytes per second
	dmaBase   int64
	dmaLen    int64
	dmaIssued int64 // 64-bit references issued so far

	// FlushOnSwitch models a machine WITHOUT process tags: every context
	// switch purges the caches and TLBs (the Section 8.1 counterfactual;
	// the real machine tags entries so "no purging is necessary").
	FlushOnSwitch bool

	// CycleLimit is the hard beat budget per context: a context exceeding
	// it ends a single run with *ErrCycleLimit, or retires just that
	// context in RunMany. New sets a generous default; cmd/tracesim
	// exposes it as -max-cycles and the fuzz oracle tightens it so
	// hostile inputs terminate quickly.
	CycleLimit int64
	// StopBeat, when > 0, pauses Run and RunContext at the first
	// instruction boundary where the context's virtual clock has reached it:
	// they return *ErrStopped with the context intact, and Context.Snapshot
	// captures a resume point. Zero (the default, restored by Reset) is a
	// pause at a beat no clock reaches — checkpoint support costs nothing
	// when unused. RunMany ignores StopBeat; batch tenants checkpoint on
	// cancellation instead.
	StopBeat int64
	// CtxCheckEvery is the beat interval between context polls in
	// RunContext (default DefaultCtxCheckBeats): a canceled run stops
	// within one interval. Tests shrink it to make cancellation latency
	// observable; Run (no context) never polls regardless.
	CtxCheckEvery int64
	// Stats holds the CURRENT context's counters while it executes (the
	// beat loop's hottest writes stay one indirection from the machine);
	// the scheduler banks them into Context.Stats on every rotation. After
	// a run it is the batch's totals with Beats = the machine's wall clock:
	// after Run the run's own stats, after RunMany the aggregate across
	// contexts.
	Stats Stats

	// Quantum is the round-robin timeslice in beats for RunMany
	// (initialized from Cfg.CtxQuantum, default DefaultCtxQuantum).
	Quantum int64
	// SwitchBeats is the wall-clock cost the scheduler charges per
	// context rotation (initialized from Cfg.CtxSwitchBeats, default 0 —
	// the paper's near-free switch).
	SwitchBeats int64
	// Sched reports the context scheduler's counters after RunMany, and
	// after Run the books of a batch of one (TotalBeats == Stats.Beats).
	Sched SchedStats

	// slot is the slot the interpreter has in hand, nil between beats: whom a
	// panic out of a guard-free site is attributed to, and through whom its
	// beat is counted (safeTierFault). Guarded faults name their unit
	// themselves.
	slot *planOp

	// InjectWrite, when set, observes — and may corrupt — every register
	// write as it retires from a functional-unit pipeline, before the value
	// lands in the register file. It is the fault-injection hook the
	// robustness harness uses to prove that single-event corruption on a
	// no-interlock machine is *observable* (a divergence or a trap), not
	// silently absorbed. Return val unchanged for a transparent probe.
	InjectWrite func(beat int64, dst mach.PReg, val uint64) uint64

	// TraceFn, when set, is called before each instruction with the PC and
	// current beat (debugging aid; also used by cmd/tracesim -trace).
	TraceFn func(pc int, beat int64)

	// InterruptEvery, when > 0, delivers a timer interrupt every that many
	// beats (§8.2: "when an enabled interrupt request arrives, execution
	// suspends ... since the pipelines are self-draining, after the maximum
	// pipe depth time, all of the state of the processor is either in
	// general registers or in main memory"). Each delivery costs
	// InterruptBeats (drain + save + C handler + restore).
	InterruptEvery int64
	// OnInterrupt, when set, runs inside each timer interrupt (after the
	// handler cost is charged). The OS scheduler lives here: calling
	// m.ContextSwitch from the hook models a timeslice ending.
	OnInterrupt func(m *Machine)
	// InterruptBeats is the cost per interrupt (default 200 if unset).
	InterruptBeats int64
	nextInterrupt  int64

	// regions counts region traffic, on whichever tier, since the last Reset
	// (last: the fields the interpreter's beat loop reads keep their place), and
	// plans the plans that Reset and the certificates armed since had to build.
	regions regionStats
	plans   int64
}

// New creates a machine for the image with a fresh memory.
func New(img *isa.Image) *Machine {
	m := &Machine{}
	m.Reset(img)
	return m
}

// context returns the i'th resident context, growing (and pooling) the
// context table as needed. Truncating ctxs never frees a context: the
// backing array keeps the pointer, so its multi-megabyte memory and tag
// arrays are reused when the machine grows back.
func (m *Machine) context(i int) *Context {
	for len(m.ctxs) <= i {
		if cap(m.ctxs) > len(m.ctxs) {
			m.ctxs = m.ctxs[:len(m.ctxs)+1]
			if m.ctxs[len(m.ctxs)-1] == nil {
				m.ctxs[len(m.ctxs)-1] = new(Context)
			}
		} else {
			m.ctxs = append(m.ctxs, new(Context))
		}
	}
	return m.ctxs[i]
}

// Reset re-targets the machine at an image as a single-context machine,
// reusing every buffer the previous program allocated: the multi-megabyte
// data memory, the retire ring, the cache tag and TLB arrays, and —
// when a context of the machine last ran this very image — its pre-decoded
// plan, regions and all. It restores the machine to the state New would
// produce: architectural state zeroed, stats cleared, instrumentation hooks
// (InjectWrite, TraceFn, OnInterrupt) removed, DMA stopped, and
// the certified fast path disabled (re-apply a certificate after Reset to
// re-enable it). Callers that run many programs — the fuzz oracle, the
// experiment harness, benchmarks — pool machines through Reset instead of
// reallocating them; callers that run one program on many machines share its
// plan through ResetPlan.
func (m *Machine) Reset(img *isa.Image) {
	imgs := [1]*isa.Image{img}
	_ = m.ResetMany(imgs[:]) // one image cannot disagree with itself
}

// ResetMany re-targets the machine at K images, one per hardware context.
// Every image must be linked for the same machine configuration (the
// contexts share one microarchitecture). Context buffers and memories are
// pooled and reused exactly as Reset does for one, and so are plans: an image
// a context of the machine holds from last time, or an earlier context of the
// batch, is not decoded again.
func (m *Machine) ResetMany(imgs []*isa.Image) error {
	if len(imgs) == 0 {
		return fmt.Errorf("vliw: ResetMany needs at least one image")
	}
	var few [4]*Plan // a solo Reset allocates nothing
	plans := few[:0]
	for i, img := range imgs {
		p := m.planOf(img)
		for j := 0; j < i && p == nil; j++ {
			if imgs[j] == img {
				p = plans[j]
			}
		}
		if p == nil {
			p = NewPlan(img)
		}
		plans = append(plans, p)
	}
	return m.ResetPlans(plans)
}

// ResetPlan is Reset onto a plan the caller owns — a core.Artifact's, or one
// from NewPlan: the machine runs the plan as it finds it, decoded by whoever
// ran it first and with every region built on it since, and what this run
// builds is there for the next machine.
func (m *Machine) ResetPlan(p *Plan) {
	ps := [1]*Plan{p}
	_ = m.ResetPlans(ps[:]) // one plan cannot disagree with itself
}

// ResetPlans is ResetMany onto the callers' plans, one per hardware context.
func (m *Machine) ResetPlans(plans []*Plan) error {
	if len(plans) == 0 {
		return fmt.Errorf("vliw: ResetPlans needs at least one plan")
	}
	for i, p := range plans {
		if cfg, cfg0 := &p.img.Cfg, &plans[0].img.Cfg; *cfg != *cfg0 {
			return fmt.Errorf("vliw: context %d's image targets %q, context 0's targets %q: contexts share one machine configuration",
				i, cfg.Name, cfg0.Name)
		}
	}
	m.plans = 0
	for i, p := range plans {
		if p.decode() {
			m.plans++
		}
		m.context(i).reset(i, p)
	}
	m.ctxs = m.ctxs[:len(plans)]
	m.cur = m.ctxs[0]
	m.curIdx = 0
	m.resetMachine(m.cur.img.Cfg)
	return nil
}

// planOf returns the base plan of img if a context of the machine holds it from
// its last run, or nil.
func (m *Machine) planOf(img *isa.Image) *Plan {
	for _, c := range m.ctxs[:cap(m.ctxs)] {
		if c != nil && c.img == img {
			if c.plan.base != nil {
				return c.plan.base
			}
			return c.plan
		}
	}
	return nil
}

// resetMachine restores the shared microarchitectural state and knobs to
// their defaults for a configuration (the part of Reset that is not
// per-context).
func (m *Machine) resetMachine(cfg mach.Config) {
	m.Cfg = cfg
	m.beat = 0
	m.slot = nil

	m.dmaRate, m.dmaBase, m.dmaLen, m.dmaIssued = 0, 0, 0, 0

	m.FlushOnSwitch = false
	m.InjectWrite = nil
	m.TraceFn = nil
	m.InterruptEvery = 0
	m.OnInterrupt = nil
	m.InterruptBeats = 0
	m.nextInterrupt = 0

	m.CycleLimit = 2_000_000_000
	m.StopBeat = 0
	m.CtxCheckEvery = DefaultCtxCheckBeats
	m.Stats = Stats{}
	m.regions = regionStats{}

	m.Quantum = int64(cfg.CtxQuantum)
	if m.Quantum <= 0 {
		m.Quantum = DefaultCtxQuantum
	}
	m.SwitchBeats = int64(cfg.CtxSwitchBeats)
	m.Sched = SchedStats{}
}

// Contexts returns the machine's resident contexts. The slice is owned by
// the machine; callers inspect, they do not mutate.
func (m *Machine) Contexts() []*Context { return m.ctxs }

// A Certificate attests that a static verifier proved the image obeys the
// §6 no-interlock schedule contract over every path — the machine may then
// run the pre-decoded plan straight, with no dynamic legality re-checking.
// The concrete implementation is schedcheck.Certify; the simulator
// deliberately depends only on this interface so the verifier and the
// machine model remain independent implementations of the contract.
type Certificate interface {
	// CertifiedImage returns the exact image the certificate covers.
	CertifiedImage() *isa.Image
}

// UseCertificate switches every context running the certified image onto
// the fast path: dynamic resource checking and write-write race detection
// are skipped, because the certificate proves statically that no executable
// path can violate them. The guards for conditions a legal schedule cannot
// exclude — PC bounds, data memory bounds and alignment, integer divide by
// zero, unknown opcodes and syscalls — remain live. The certificate must
// cover an image at least one resident context is executing; in a
// mixed-program RunMany, certify each image separately.
func (m *Machine) UseCertificate(c Certificate) error {
	if c == nil {
		return fmt.Errorf("vliw: certificate does not cover this image")
	}
	if !m.runs(c.CertifiedImage()) {
		return fmt.Errorf("vliw: certificate does not cover this image")
	}
	m.arm(c.CertifiedImage(), TierFast, nil)
	return nil
}

// runs reports whether a resident context is executing img.
func (m *Machine) runs(img *isa.Image) bool {
	for _, ctx := range m.ctxs {
		if ctx.img == img {
			return true
		}
	}
	return false
}

// arm raises every resident context running img to tier t and, under a safety
// certificate, onto its plan's certified copy — the plan's to keep, so a
// context of another image, or another machine, armed in between rebuilds
// nothing. Arming is monotone: a weaker certificate applied after a stronger
// one leaves the stronger tier and its plan in force.
func (m *Machine) arm(img *isa.Image, t Tier, cert SafetyCertificate) {
	for _, ctx := range m.ctxs {
		if ctx.img != img || ctx.tier > t {
			continue
		}
		ctx.tier = t
		if cert == nil {
			continue
		}
		p, built := ctx.plan.certified(cert)
		if built {
			m.plans++
		}
		if ctx.plan != p {
			ctx.plan = p
			ctx.paused = nil
			ctx.ievict++ // the resident table is by region of the plan
		}
	}
}

// A SafetyCertificate attests, beyond the resource Certificate it extends,
// that specific guarded sites — loads, stores, divides — can never fault:
// no reachable execution makes their effective address escape RAM or break
// alignment, or their divisor reach zero. SafeSite is the per-site bitmask;
// the machine runs the guard-free variant of exactly the sites it covers
// and keeps every dynamic guard elsewhere. The concrete implementation is
// safecheck.Certify.
type SafetyCertificate interface {
	Certificate
	// SafeSite reports whether the operation issued at (word, unit, beat)
	// is proven safe.
	SafeSite(word int, unit mach.Unit, beat uint8) bool
}

// UseSafeCertificate arms the safe tier — the third execution tier — for
// every resident context running the certified image: the fast tier's
// skipped resource/race checks, plus guard-free execution of each site the
// certificate's bitmask proves safe. Unproven sites keep all their guards,
// as do PC bounds, bad opcodes, unknown syscalls, and the cycle limit; a
// certificate with an empty bitmask degenerates to exactly the fast tier.
// The derived guard-free plan is kept by the image's plan and reused whenever
// the same certificate is armed again, on this machine or another.
func (m *Machine) UseSafeCertificate(c SafetyCertificate) error {
	return m.armCertified(c, TierSafe, "safety")
}

// armCertified arms tier t (safe or native) under a safety certificate that
// must cover a resident image.
func (m *Machine) armCertified(c SafetyCertificate, t Tier, grade string) error {
	if c == nil || !m.runs(c.CertifiedImage()) {
		return fmt.Errorf("vliw: %s certificate does not cover this image", grade)
	}
	m.arm(c.CertifiedImage(), t, c)
	return nil
}

// Builds reports what the machine had to build since its last Reset, that Reset
// included: plans — an image decoded, a certified copy derived — and regions.
// A machine that finds all of it in the plans it was pointed at reports zeros.
func (m *Machine) Builds() (plans, regions int64) { return m.plans, m.regions.built }

// Tier reports the current context's execution tier.
func (m *Machine) Tier() Tier { return m.cur.tier }

// Output returns the output printed so far by the current context.
func (m *Machine) Output() string { return m.cur.out.String() }

// StartDMA starts the I/O processor streaming into the byte range
// [base, base+n), wrapping circularly, at rate bytes per second. The IOP
// moves 64-bit doublewords and contends with the CPU through the ordinary
// bank-busy mechanism, so I/O load surfaces as CPU bank stalls — cycle
// stealing, exactly as Section 8.3 describes. The engine is capped at half
// of peak memory bandwidth, the paper's stated IOP limit.
func (m *Machine) StartDMA(base, n int64, rate float64) {
	if half := m.Cfg.PeakMemBandwidth() / 2; rate > half {
		rate = half
	}
	m.dmaRate = rate
	m.dmaBase = base
	m.dmaLen = n
	m.dmaIssued = 0
}

// dmaCatchUp issues every IOP reference due by the current beat. Each one
// occupies its RAM bank for the usual busy window and lands real bytes in
// memory; the CPU's bank-stall prescan then sees the claimed banks.
func (m *Machine) dmaCatchUp(c *Context) {
	if m.dmaRate <= 0 || m.dmaLen < 8 {
		return
	}
	beatsPerRef := 8 / (m.dmaRate * mach.BeatNs * 1e-9)
	due := int64(float64(c.beat) / beatsPerRef)
	for m.dmaIssued < due {
		refBeat := int64(float64(m.dmaIssued) * beatsPerRef)
		ea := m.dmaBase + (m.dmaIssued*8)%m.dmaLen
		if ea < 0 {
			m.dmaIssued++
			m.Stats.DMARefs++
			continue
		}
		g := &c.plan.geom
		if id, end := g.id(ea), refBeat+g.busy; end > c.bankBusy[id] {
			c.bankBusy[id] = end
		}
		if ea >= 0 && ea+8 <= int64(len(c.mem)) {
			for k := int64(0); k < 8; k++ {
				c.mem[ea+k] = byte(m.dmaIssued)
			}
		}
		m.dmaIssued++
		m.Stats.DMARefs++
	}
}

// ContextSwitch deschedules the current process and resumes it under a new
// address-space ID, charging the full register-state save/restore cost
// through the memory system (Section 8.1's ~15us figure). With process
// tags (the default), cache and TLB entries survive across the switch and
// "no purging is necessary"; set FlushOnSwitch to model an untagged
// machine that must invalidate everything. This is the OS-model switch —
// one process leaving one context — distinct from the hardware context
// rotation RunMany's scheduler performs, which moves no state at all.
func (m *Machine) ContextSwitch(asid uint8) {
	c := m.cur
	cfg := m.Cfg
	// State: 64 I + 64 F words per pair, 32 SF words per pair, 16 misc.
	words := int64(cfg.Pairs)*(64+64+32) + 16
	// Stored and reloaded as 64-bit doubles, one per board per beat,
	// capped by the store buses.
	perBeat := 2 * int64(cfg.Pairs)
	if perBeat > 2*int64(cfg.StoreBuses) {
		perBeat = 2 * int64(cfg.StoreBuses)
	}
	cost := 2*(words+perBeat-1)/perBeat + 60
	c.beat += cost
	m.Stats.Switches++
	m.Stats.SwitchBeats += cost
	c.asid = asid
	c.ievict++
	if m.FlushOnSwitch {
		for i := range c.itags {
			c.itags[i] = -1
		}
		for i := range c.dtlb {
			c.dtlb[i] = -1
			c.itlb[i] = -1
		}
	}
}

// Run boots the machine and executes context 0 until HALT. It returns main's
// exit value and the captured output. Run never polls a context; use
// RunContext for cancelable execution, RunMany to time-share several resident
// contexts. A machine whose program has run refuses to run again until it is
// Reset (a restored checkpoint of a halted program still reports its result).
func (m *Machine) Run() (int32, string, error) { return m.RunContext(nil) }

// RunContext is Run with cooperative cancellation: the machine polls ctx
// every CtxCheckEvery beats (at instruction boundaries) and abandons the run
// with *ErrCanceled — wrapping ctx.Err() — within one interval of the
// context being canceled or timing out; a nil ctx is never polled. The run is
// a batch of one (schedule): no quantum to expire, the machine's clock set to
// the context's — so a restored run reports the beats since boot — and a pause
// at StopBeat.
func (m *Machine) RunContext(ctx context.Context) (int32, string, error) {
	c := m.ctxs[0]
	m.beat = c.beat
	pauseAt := int64(never)
	if m.StopBeat > 0 {
		pauseAt = m.StopBeat
	}
	err := m.schedule(ctx, m.ctxs[:1], never, pauseAt)
	if err == nil {
		err = c.err
	}
	if err != nil {
		return 0, c.out.String(), err
	}
	return c.exit, c.out.String(), nil
}

// RunMany boots every resident context and time-shares them on the one
// simulated CPU until all have halted or retired: round-robin rotation on
// quantum expiry (Quantum beats of context execution), eager rotation when
// the current context loses beats to a bank stall or an icache refill, and
// SwitchBeats of wall-clock charge per rotation (default 0 — the paper's
// near-free hardware switch).
//
// Each context executes on its own virtual clock with its own address
// space, so its results and Stats are bit-identical to an undisturbed solo
// run; a context that traps or exhausts CycleLimit retires alone, with the
// error in its ContextResult, while the rest run on. The machine-level
// picture lands in Sched (wall clock, hidden stall beats, switches) and in
// Stats as the cross-context aggregate. The returned error is non-nil only
// for whole-machine failures: a used machine, boot errors and cancellation.
func (m *Machine) RunMany(ctx context.Context) ([]ContextResult, error) {
	quantum := m.Quantum
	if quantum <= 0 {
		quantum = DefaultCtxQuantum
	}
	err := m.schedule(ctx, m.ctxs, quantum, never)
	if _, canceled := err.(*ErrCanceled); err != nil && !canceled {
		return nil, err // refused before anything ran
	}
	// Unfinished contexts (after a cancellation) report the beats they had
	// executed so far.
	rs := make([]ContextResult, len(m.ctxs))
	for i, c := range m.ctxs {
		st := c.Stats
		st.Beats = c.beat
		rs[i] = ContextResult{Exit: c.exit, Output: c.out.String(), Stats: st, Err: c.err}
	}
	return rs, err
}

// never is a beat no clock reaches — every budget is far below it — with room
// left to add a clock to it: the quantum of a run that has none, the poll of
// a run with no context, the pause of a run with no StopBeat. The scheduler
// compares against it like any other beat.
const never = math.MaxInt64 >> 1

// schedule is the one run loop: it time-shares batch, a prefix of the resident
// contexts, until every one has halted or retired, and a solo run is a batch
// of one. Between slices it polls ctx every CtxCheckEvery beats of the
// machine's clock, pauses at beat pauseAt of the context's (ErrStopped, the
// context intact), retires a context past CycleLimit, and rotates — on quantum
// expiry and, while another context is live, as soon as the current one loses
// beats to a bank stall or a refill, which the other then hides. The error is
// a whole-batch one; a context's own fault or exhausted budget retires it
// alone and waits in its err.
func (m *Machine) schedule(ctx context.Context, batch []*Context, quantum, pauseAt int64) error {
	live := 0
	for _, c := range batch {
		if c.done {
			return fmt.Errorf("vliw: run on a used machine: Reset or ResetMany first")
		}
		// A restored context continues from its checkpoint — virtual clock,
		// pipeline, banked Stats; booting would restart the program.
		if !c.restored {
			if err := c.boot(); err != nil {
				return err
			}
		}
		// A checkpoint taken after HALT has only its result left to give.
		if c.done = c.halted; !c.done {
			live++
		}
	}
	ctxEvery := m.CtxCheckEvery
	if ctxEvery <= 0 {
		ctxEvery = DefaultCtxCheckBeats
	}
	ctxCheckAt := int64(never)
	if ctx != nil {
		ctxCheckAt = m.beat + ctxEvery
	}
	m.Sched = SchedStats{Contexts: len(batch)}
	// Detach before the first switch: banking the machine's zeroed Stats
	// into context 0 here would clobber a restored tenant's banked counters.
	m.cur = nil
	m.switchTo(0)
	sliceEnd := m.cur.beat + quantum

	var stopped error
	for live > 0 {
		c := m.cur
		if c.done {
			sliceEnd = m.rotate(batch, quantum)
			continue
		}
		if m.beat >= ctxCheckAt {
			if cause := ctx.Err(); cause != nil {
				stopped = &ErrCanceled{Beat: m.beat, PC: c.pc, Cause: cause}
				break
			}
			ctxCheckAt = m.beat + ctxEvery
		}
		if c.beat >= pauseAt {
			stopped = &ErrStopped{Beat: c.beat, PC: c.pc}
			break
		}
		hidden := false
		if c.beat > m.CycleLimit {
			c.err = &ErrCycleLimit{Limit: m.CycleLimit, PC: c.pc}
		} else {
			// The slice stops where the loop would next do anything but run
			// words: at the quantum, at the context poll (the machine's clock
			// runs with the context's inside a slice), at the pause, past the
			// cycle budget.
			until := min(sliceEnd, pauseAt, c.beat+ctxCheckAt-m.beat)
			if m.CycleLimit < until {
				until = m.CycleLimit + 1
			}
			b0 := c.beat
			s0 := m.Stats.BankStalls + m.Stats.RefillBeats
			c.err = m.slice(c, until, live > 1)
			delta := c.beat - b0
			stall := m.Stats.BankStalls + m.Stats.RefillBeats - s0
			m.beat += delta
			m.Sched.BusyBeats += delta - stall
			if stall > 0 && live > 1 {
				// Another resident context executes under the stall: the
				// machine's wall clock does not pay for it (§8.1's
				// latency-hiding), and the scheduler rotates eagerly so the
				// overlap is real, not notional.
				m.beat -= stall
				m.Sched.HiddenBeats += stall
				hidden = true
			}
		}
		if c.err != nil || c.halted {
			// Retire: the context's books close with its final beat count.
			m.Stats.Beats = c.beat
			c.Stats = m.Stats
			c.done = true
			if live--; live == 0 {
				break
			}
		} else if c.beat < sliceEnd && !hidden {
			continue
		}
		sliceEnd = m.rotate(batch, quantum)
	}
	// Close the books: a context stopped mid-flight banks its counters with
	// its clock (a retired one has), Stats becomes the batch's totals on the
	// machine's clock — for a batch of one, the context's own.
	if c := m.cur; !c.done {
		m.Stats.Beats = c.beat
		c.Stats = m.Stats
	}
	var agg Stats
	for _, c := range batch {
		agg.add(&c.Stats)
	}
	agg.Beats = m.beat
	m.Stats = agg
	m.Sched.TotalBeats = m.beat
	return stopped
}

// slice is a context's unit of work on every tier: it runs words of c until
// its clock reaches until (which must lie past c.beat), it halts or faults —
// or, when eager, until a word has lost beats to a bank stall or a refill —
// a region at a time where the context's plan has one (advance), whatever
// the tier: a tier removes checks, not the executor. The safe and native
// tiers' last line of defense sits here, once per slice and not per word: a
// post-certification image mutation can drive a guard-free site into the Go
// runtime's own slice-bounds or divide check, and the deferred recover
// converts that panic back into the Fault the deleted guard would have
// raised; the blast radius is this context, never the batch or the process.
func (m *Machine) slice(c *Context, until int64, eager bool) (err error) {
	if c.tier >= TierSafe {
		defer func() {
			if r := recover(); r != nil {
				m.abandonRegion(c)
				err = m.safeTierFault(c, r)
			}
		}()
	}
	s0 := m.Stats.BankStalls + m.Stats.RefillBeats
	for err == nil && !c.halted && c.beat < until {
		err = m.advance(c, until, eager)
		if eager && m.Stats.BankStalls+m.Stats.RefillBeats != s0 {
			break
		}
	}
	return err
}

// rotate hands the CPU to the next runnable context of the batch in
// round-robin order, charging SwitchBeats of wall clock when the context
// actually changes, and returns the beat of the new context's clock at which
// its quantum ends. With one runnable context the rotation is free: the
// quantum is simply renewed.
func (m *Machine) rotate(batch []*Context, quantum int64) int64 {
	next := m.curIdx
	for i := 1; i <= len(batch); i++ {
		if j := (m.curIdx + i) % len(batch); !batch[j].done {
			next = j
			break
		}
	}
	if next != m.curIdx {
		m.Sched.Switches++
		m.beat += m.SwitchBeats
		m.Sched.SwitchBeats += m.SwitchBeats
		m.switchTo(next)
	}
	return m.cur.beat + quantum
}

// switchTo makes context i current: the outgoing context's counters are
// banked and the incoming one's become the machine's live Stats.
func (m *Machine) switchTo(i int) {
	if m.cur != nil {
		m.cur.Stats = m.Stats
	}
	m.curIdx = i
	m.cur = m.ctxs[i]
	m.Stats = m.cur.Stats
}

// fault is a Fault at c's word and beat; unit names the functional unit whose
// operation raised it, "" for one raised outside a slot's execution.
func (m *Machine) fault(c *Context, unit string, code TrapCode, format string, args ...any) error {
	return &Fault{Code: code, PC: c.pc, Beat: c.beat, Unit: unit, Msg: fmt.Sprintf(format, args...)}
}

// safeTierFault converts a Go runtime panic that escaped a guard-free safe
// site back into the machine fault the deleted guard would have raised.
// Anything that is not a runtime error (a panicking instrumentation hook,
// a simulator bug) is re-thrown: the safe tier contains exactly the class
// of failure its certificate weakened, nothing else. On the per-word path the
// interpreter had the site's slot in hand: the fault names its unit and the
// beat is counted through it, as the guard's own fault would have been. Out
// of a region the context is as abandonRegion left it, at the top of the beat,
// and the fault names no unit.
func (m *Machine) safeTierFault(c *Context, r any) error {
	re, ok := r.(runtime.Error)
	if !ok {
		panic(r)
	}
	unit := ""
	if s := m.slot; s != nil {
		unit, m.slot = s.unitName, nil
		c.plan.slots[c.pc].through(s).apply(&m.Stats)
	}
	if strings.Contains(re.Error(), "divide by zero") {
		return m.fault(c, unit, TrapDivZero, "integer divide by zero (safe tier containment)")
	}
	return m.fault(c, unit, TrapMemBounds, "bus error (safe tier containment): %v", re)
}

// StallBank forces the RAM bank holding byte address ea busy for the next n
// beats — an injectable memory-system fault. A stalled bank is a pure timing
// perturbation: the bank-stall mechanism (§6.4.4) charges the delay before
// the instruction initiates, so results must be unchanged while Stats.Beats
// and Stats.BankStalls grow. The robustness tests use it to prove the
// machine is timing-robust where it must be and corruption-sensitive where
// it must be.
func (m *Machine) StallBank(ea int64, n int64) {
	if ea < 0 {
		return
	}
	c := m.cur
	id := c.plan.geom.id(ea)
	if until := c.beat + n; until > c.bankBusy[id] {
		c.bankBusy[id] = until
	}
}

// step executes one wide instruction (two beats) of context c from its
// plan, on every tier: interrupt, fetch, DMA, the TLB/bank-stall prescan, and
// each beat's drain and slot-by-slot interpretation. It is the only place a
// cache or TLB is filled or a beat the schedule did not plan is charged.
// Regions (native.go) run words on which none of that happens;
// a region that meets it on a word has step do everything up to the word's
// issue (issue false) and issues the word itself.
func (m *Machine) step(c *Context, issue bool) error {
	p := c.plan
	if c.pc < 0 || c.pc >= len(p.words) {
		return m.fault(c, "", TrapBadPC, "instruction fetch outside image")
	}
	// timer interrupts are taken at instruction boundaries; the pipelines
	// drain on their own, so the handler cost is a pure beat charge
	if m.InterruptEvery > 0 && c.beat >= m.nextInterrupt {
		cost := m.InterruptBeats
		if cost == 0 {
			cost = 200
		}
		c.beat += cost
		m.Stats.Interrupts++
		m.Stats.InterruptBeats += cost
		if m.OnInterrupt != nil {
			m.OnInterrupt(m)
		}
		m.nextInterrupt = c.beat + m.InterruptEvery
	}
	m.fetch(c, p)
	if m.TraceFn != nil {
		m.TraceFn(c.pc, c.beat)
	}
	pw := &p.words[c.pc]
	m.Stats.Instrs++

	if m.dmaRate > 0 {
		m.dmaCatchUp(c)
	}
	// Pre-scan memory references for TLB misses and bank stalls. The
	// machine charges the bank-stall before initiating the instruction,
	// and takes the trap (history-queue replay) for the whole batch of
	// misses at once (§6.4.3: up to 16 misses pending per trap entry).
	if len(pw.mem) > 0 {
		var stall int64
		misses := 0
		for i := range pw.mem {
			pm := &pw.mem[i]
			ea := pm.at(c)
			if c.dtlbMiss(ea) {
				misses++
			}
			if ea < 0 {
				continue // wild negative address: no bank to stall on; faults (or the §7 funny number) at execution
			}
			access := c.beat + pm.beat + mach.StageBank + stall
			if busy := c.bankBusy[p.geom.id(ea)]; busy > access {
				stall += busy - access
			}
		}
		if misses > 0 {
			cost := int64(TrapEntryBeats + misses*TrapPerMissBeat)
			m.Stats.TLBMisses += int64(misses)
			m.Stats.TrapBeats += cost
			c.beat += cost
		}
		if stall > 0 {
			m.Stats.BankStalls += stall
			c.beat += stall
		}
	}
	if !issue {
		return nil
	}

	// §6.5.2 multiway branch: the slots publish taken tests through
	// takeBranch; the highest-priority one supplies the next address.
	m.brTaken = false
	m.brNext = c.pc + 1
	m.brHalt = false
	ws := &p.slots[c.pc]
	for beat := 0; beat < 2; beat++ {
		if err := m.drain(c); err != nil {
			return err
		}
		if err := m.interpret(c, ws, beat); err != nil {
			return err
		}
		c.beat++
	}

	if m.brTaken {
		m.Stats.Taken++
	}
	if m.brHalt {
		c.halted = true
		c.exit = m.brExit
		return nil
	}
	c.pc = m.brNext
	return nil
}

// interpret executes one beat of a fetched word slot by slot: each slot's
// record as the plan holds it (exec), its result out of resultCell into the
// write pipeline, lat beats on. The beat counts what its slots count (opBulk):
// all of them when it ends, those through the faulting slot when it does not.
func (m *Machine) interpret(c *Context, ws *wordSlots, beat int) error {
	if !m.Cfg.Ideal && c.tier == TierChecked {
		if v := ws.viol[beat]; v != nil {
			return m.fault(c, "", v.code, "%s", v.msg)
		}
	}
	ops := ws.beats[beat]
	if len(ops) == 0 {
		return nil // nothing to issue or count; adding an empty sum every such beat cost systems-hot 4 %
	}
	for i := range ops {
		p := &ops[i]
		m.slot = p
		if err := m.exec(c, p, &p.uop); err != nil {
			ws.through(p).apply(&m.Stats)
			m.slot = nil
			return err
		}
		if p.dst.Valid() {
			c.push(c.beat+p.lat, p.dst, c.vals[resultCell])
		}
	}
	m.slot = nil
	ws.bulk[beat].apply(&m.Stats)
	return nil
}

// takeBranch applies the §6.5.2 multiway-branch priority rule for one taken
// test: lowest Prio wins, first in slot order on ties.
func (m *Machine) takeBranch(prio, target int) {
	if !m.brTaken || prio < m.brPrio {
		m.brTaken = true
		m.brPrio = prio
		m.brNext = target
	}
}

func isMemOp(k ir.OpKind) bool {
	return k == ir.Load || k == ir.LoadSpec || k == ir.Store
}

// fetch models the instruction cache: direct-mapped, refilled in aligned
// blocks of four via the mask-word engine at memory bandwidth (§6.5.1).
func (m *Machine) fetch(c *Context, p *Plan) {
	pc := c.pc
	// instruction TLB: pages of PageSize/4 instructions (8KB of packed
	// words approximated)
	ipage := int64(pc) / (PageSize / 4)
	is := ipage % TLBEntries
	if c.itlb[is] != ipage || c.itlbAsids[is] != c.asid {
		if c.itlb[is] >= 0 {
			c.ievict++
		}
		c.itlb[is] = ipage
		c.itlbAsids[is] = c.asid
		m.Stats.TLBMisses++
		m.Stats.TrapBeats += TrapEntryBeats
		c.beat += TrapEntryBeats
	}
	if len(c.img.Words) == 0 {
		// ideal machine: no encoded form, perfect cache
		m.Stats.ICacheHits++
		return
	}
	line := pc & p.itagMask
	if p.itagMask < 0 {
		line = pc % len(c.itags)
	}
	if c.itags[line] == pc && c.iasids[line] == c.asid {
		m.Stats.ICacheHits++
		return
	}
	m.refillICache(c, pc)
}

// refillICache charges an icache miss and refills the aligned
// 4-instruction block.
func (m *Machine) refillICache(c *Context, pc int) {
	m.Stats.ICacheMiss++
	// refill the aligned 4-instruction block
	blk := pc &^ 3
	words := 4 // the four mask words
	for i := blk; i < blk+4 && i < len(c.img.Words); i++ {
		for _, w := range c.img.Words[i] {
			if w != 0 {
				words++
			}
		}
		line := i % len(c.itags)
		if c.itags[line] >= 0 && c.itags[line] != i {
			c.ievict++
		}
		c.itags[line] = i
		c.iasids[line] = c.asid
	}
	// refill proceeds at full bus bandwidth: ILoad buses carry 4 bytes per
	// beat each; mask interpretation adds a fixed 2 beats
	buses := m.Cfg.ILoadBuses
	beats := int64((words+buses-1)/buses) + 2
	m.Stats.RefillBeats += beats
	c.beat += beats
}

// drain retires the pipeline writes due through the current beat. On the hot
// path the clock advanced exactly one beat and one bucket is due: no scan,
// no copy.
func (m *Machine) drain(c *Context) error {
	if c.drained+1 != c.beat {
		return m.drainJump(c)
	}
	c.drained = c.beat
	if c.rcount[c.beat&c.rmask] == 0 {
		return nil
	}
	return m.land(c, c.take(c.beat))
}

// drainJump retires every bucket that is due after a stall, TLB trap, refill
// or interrupt jumped the clock, as one batch in issue order — observable
// when two of the writes name one register.
func (m *Machine) drainJump(c *Context) error {
	start, end := c.drained+1, c.beat
	if start > end {
		return nil
	}
	c.drained = end
	if end-start > c.rmask {
		start = end - c.rmask // every bucket once; all of them are due
	}
	due := c.scratch[:0]
	for b := start; b <= end; b++ {
		due = append(due, c.take(b)...)
	}
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && int32(due[j-1].seq-due[j].seq) > 0; j-- {
			due[j-1], due[j] = due[j], due[j-1]
		}
	}
	c.scratch = due[:0]
	return m.land(c, due)
}

// land writes one drain's results into the registers, in the order
// given (issue order). The checked tier compares the drain pairwise first: two
// writes retiring into one register together are a write-write race — a
// scheduling bug on the interlock-free machine — and the writes issued
// before the second of the pair have landed when it faults. The certified
// tiers skip the check: schedcheck's dataflow analysis proved no path can
// retire two writes into one register together.
func (m *Machine) land(c *Context, due []ringWrite) error {
	checked := c.tier == TierChecked
	for i := range due {
		w := &due[i]
		if checked {
			for j := range due[:i] {
				if due[j].dst == w.dst {
					return m.fault(c, "", TrapWriteRace, "write-write race on %s: writes issued at word %d and word %d retire together",
						w.dst, due[j].pc, w.pc)
				}
			}
		}
		val := w.val
		if m.InjectWrite != nil {
			val = m.InjectWrite(c.beat, w.dst, val)
		}
		c.writeReg(w.dst, val)
	}
	return nil
}
