// Package trace is a reproduction of "A VLIW Architecture for a Trace
// Scheduling Compiler" (Colwell, Nix, O'Donnell, Papworth, Rodman; ASPLOS
// 1987) — the Multiflow TRACE machine and its Trace Scheduling compacting
// compiler — as a Go library.
//
// The package compiles programs written in the small C-like MF language
// through a full trace-scheduling pipeline (classical optimization, profile
// or heuristic trace selection, resource-table list scheduling with
// speculative non-trapping loads and compensation code, partitioned
// register-bank allocation, Figure-3 instruction encoding with the §6.5.1
// mask-word memory format) and executes the result on a beat-accurate
// simulator of the TRACE: interlock-free pipelines, interleaved banked
// memory with bank-stall, distributed instruction cache, TLBs with
// history-queue trap replay, and the priority multiway branch.
//
// Quick start:
//
//	art, err := trace.Build(ctx, src, trace.Options{})
//	res, err := art.Run(ctx, trace.RunOptions{})
//	fmt.Println(res.Exit, res.Output, res.Stats.Beats)
//
// Build returns an *Artifact — an immutable, concurrency-safe compiled
// program that bundles the image, the pass report, the lazily-minted
// certificates (Artifact.Certificate, Artifact.CertifySafe), static
// verification (Artifact.Lint), and execution (Artifact.Run, on any of
// the four tiers via RunOptions.Tier). Every entry point takes a
// context.Context honored at pass boundaries during compilation and at
// beat granularity during simulation.
//
// Executions checkpoint: RunOptions.SnapshotAt pauses a run at a chosen
// beat and returns a self-describing serialized snapshot that
// Artifact.RunFrom resumes bit-identically — same exit, output, and
// counters as the uninterrupted run — even in a different process.
// Restore refuses snapshots from a different image or configuration
// (ErrBadSnapshot).
//
// Machine configurations mirror the product line: Trace7(), Trace14(), and
// Trace28() give the 1-, 2-, and 4-pair machines (256/512/1024-bit
// instruction words); Ideal(pairs) gives the Figure-1 idealized machine.
// The baselines of the paper's argument — a scalar machine of the same
// technology and a basic-block-limited scoreboard machine — are exposed via
// RunScalar and RunScoreboard.
//
// # Migrating from the pre-Artifact API
//
// The Result-based functions and the fast/safe booleans are gone. How a run
// executes is spelled one way, RunOptions.Tier, and everything hangs off the
// Artifact:
//
//	trace.Compile(src, o)        ->  trace.Build(ctx, src, o)
//	trace.Run(res)               ->  artifact.Run(ctx, trace.RunOptions{})
//	the per-tier run functions   ->  artifact.Run(ctx, trace.RunOptions{Tier: trace.TierNative})
//	a Fast or Safe option field  ->  Tier: trace.TierFast, Tier: trace.TierSafe
//	a Fast or Safe result field  ->  result.Tier
//	trace.Certify(res)           ->  artifact.Certificate()
//	trace.CertifySafe(res)       ->  artifact.CertifySafe()
//	trace.NewMachine(res)        ->  artifact.Machine(), then artifact.Arm(m, tier)
//	a *Result, for Interpret     ->  artifact.Result()
package trace

import (
	"context"
	"io"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Config is a machine configuration (see Trace7/Trace14/Trace28/Ideal).
type Config = mach.Config

// BeatNs is the minor cycle time of the TRACE: 65 nanoseconds (§6.1).
const BeatNs = mach.BeatNs

// Options configures a compilation.
type Options struct {
	// Config is the target machine; the zero value means Trace28().
	Config Config
	// OptLevel selects the classical-optimization pipeline; the zero value
	// is the full pipeline (OptFull).
	OptLevel OptLevel
	// ProfileRun, when true, gathers an exact execution profile with the IR
	// interpreter before trace selection instead of using heuristics (§4:
	// "heuristics or profiling").
	ProfileRun bool
	// DisableSpeculation turns off the §7 non-trapping LOAD opcodes.
	DisableSpeculation bool
	// DisableMultiway restricts each instruction to one branch test
	// (§6.5.2 off).
	DisableMultiway bool
	// Conservative disables the §6.4.4 "bank-stall gamble": memory
	// references that merely might conflict are never co-scheduled.
	Conservative bool
	// BasicBlockOnly restricts the code generator to single-block traces —
	// classic basic-block compaction with no inter-block code motion. This
	// is the ablation §10 proposes: "quantifying the speedups due to trace
	// scheduling vs. those achieved by more universal compiler
	// optimizations".
	BasicBlockOnly bool
	// Verify validates the IR after every compiler pass, so a broken pass
	// fails at its own boundary instead of as a mystery scheduler error.
	Verify bool
	// Lint statically verifies the linked image against the no-interlock
	// schedule contract (see cmd/tracelint) as a final compiler stage; any
	// error-severity finding fails the compilation.
	Lint bool
	// TimePasses prints the per-pass timing/size report to stderr after
	// compilation (also always available as Result.Report).
	TimePasses bool
	// DumpIR, when non-nil, receives a printout of the IR after every
	// compiler pass.
	DumpIR io.Writer
	// Parallelism bounds the worker pool that compiles functions
	// concurrently in the backend: 0 = one worker per CPU, 1 = sequential,
	// N = at most N workers. Output is identical at every setting.
	Parallelism int
}

// OptLevel selects how aggressively the classical optimizer runs.
type OptLevel int

const (
	// OptFull is the default: inlining plus unroll-by-8 (§4's automatic
	// loop unrolling and inline substitution, with the §8.4 growth
	// heuristics).
	OptFull OptLevel = iota
	// OptLight inlines and unrolls by 4.
	OptLight
	// OptNone disables inlining and unrolling (cleanup passes still run).
	OptNone
)

// Result is a compiled program: an executable image plus compilation
// artifacts for inspection.
type Result = core.Result

// PassReport is the per-pass timing and IR-size record of a compilation
// (Result.Report); its String method renders the -time-passes table.
type PassReport = pipeline.Report

// Stats is the simulator's performance counters.
type Stats = vliw.Stats

// Tier names one of the simulator's execution tiers: TierChecked,
// TierFast, TierSafe, or TierNative. Every tier runs identical
// architectural semantics — exit value, output, and all Stats counters are
// bit-identical — on one executor (the runs of words a program keeps
// returning to fused into regions, one micro-op stream each), and differs
// only in how much dynamic checking a certificate statically discharges;
// TierNative is TierSafe under its former name. Select one via
// RunOptions.Tier or RunManyOptions.Tier; the zero value is TierChecked.
type Tier = vliw.Tier

// The execution tiers, weakest checking discharge first.
const (
	TierChecked = vliw.TierChecked
	TierFast    = vliw.TierFast
	TierSafe    = vliw.TierSafe
	TierNative  = vliw.TierNative
)

// ParseTier maps a tier name ("checked", "fast", "safe", "native") to its
// Tier; the empty string parses as TierChecked.
func ParseTier(s string) (Tier, error) { return vliw.ParseTier(s) }

// Machine is a TRACE processor instance executing a compiled image.
type Machine = vliw.Machine

// Plan is the simulator's pre-decoded form of one linked image — its words,
// their guard-free copy under a safety certificate, and the hot runs fused into
// regions as machines arrive at them — for any number of machines to run at
// once (Machine.ResetPlan, ResetPlans). An Artifact owns the plan of its image
// and every Run, RunOn, RunMany and Machine() goes through it, so few callers
// need one of their own; NewPlan makes one for a raw image.
type Plan = vliw.Plan

// NewPlan returns the plan of a linked image (Artifact.Image). It costs nothing
// until a machine is Reset onto it.
func NewPlan(img *isa.Image) *Plan { return vliw.NewPlan(img) }

// Context is one hardware context: the per-program architectural state a
// machine time-shares under RunMany.
type Context = vliw.Context

// SchedStats is the machine-level context-scheduler accounting of one
// RunMany execution.
type SchedStats = vliw.SchedStats

// RunManyOptions configures a RunMany batch (execution tier, per-context
// beat budget, scheduler quantum, and switch cost).
type RunManyOptions = core.RunManyOptions

// ManyResult is one context's completed execution within a RunMany batch.
type ManyResult = core.ManyResult

// BaselineResult reports a baseline machine simulation.
type BaselineResult = baseline.Result

// ErrStopped reports a run that paused at a requested checkpoint beat
// (RunOptions.SnapshotAt, Machine.StopBeat) rather than completing; the
// paused state is captured by Context.Snapshot and continued by
// Artifact.RunFrom.
type ErrStopped = vliw.ErrStopped

// ErrBadSnapshot reports a snapshot that Restore refused — corrupted,
// truncated, from a different image or machine configuration, or from an
// incompatible encoding version. Restoration is all-or-nothing: a refused
// snapshot leaves the context untouched.
type ErrBadSnapshot = vliw.ErrBadSnapshot

// SnapshotVersion is the current checkpoint encoding version
// (see Context.Snapshot); Restore refuses any other.
const SnapshotVersion = vliw.SnapshotVersion

// Trace7 returns the 1-pair TRACE 7/200 (256-bit instruction word).
func Trace7() Config { return mach.Trace7() }

// Trace14 returns the 2-pair TRACE 14/200 (512-bit instruction word).
func Trace14() Config { return mach.Trace14() }

// Trace28 returns the 4-pair TRACE 28/200 (1024-bit instruction word).
func Trace28() Config { return mach.Trace28() }

// Ideal returns the Figure-1 idealized VLIW: one central register file with
// unlimited ports and buses.
func Ideal(pairs int) Config { return mach.IdealConfig(pairs) }

func (o Options) toCore() core.Options {
	cfg := o.Config
	if cfg.Pairs == 0 {
		cfg = mach.Trace28()
	}
	if o.DisableSpeculation {
		cfg.SpeculativeLoads = false
	}
	if o.DisableMultiway {
		cfg.MultiwayBranch = false
	}
	if o.Conservative {
		cfg.RollTheDice = false
	}
	// OptFull, OptLight, OptNone are levels 2, 1, 0; anything else is the default.
	lvl, err := opt.Level(int(OptNone - o.OptLevel))
	if err != nil {
		lvl = opt.Default()
	}
	prof := core.ProfileHeuristic
	if o.ProfileRun {
		prof = core.ProfileRun
	}
	maxBlocks := 0
	if o.BasicBlockOnly {
		maxBlocks = 1
	}
	return core.Options{
		Config: cfg, Opt: lvl, Profile: prof, MaxTraceBlocks: maxBlocks,
		Verify: o.Verify, Lint: o.Lint, TimePasses: o.TimePasses, DumpIR: o.DumpIR, Parallelism: o.Parallelism,
	}
}

// Artifact is an immutable compiled program: the executable image plus the
// pass report, the lazily-minted fast-path Certificate, and static
// verification, with execution as a method. Artifacts are safe for
// concurrent use — the compiler statically owns every machine resource
// (§4), so a linked image never changes, which is what makes artifacts
// content-addressable and shareable across concurrent runs (see
// internal/serve, cmd/tracesrv).
type Artifact = core.Artifact

// RunOptions configures one Artifact.Run: the execution tier, the beat
// budget, and checkpointing.
type RunOptions = core.RunOptions

// ExitResult is one completed execution: exit value, captured output, and
// performance counters.
type ExitResult = core.ExitResult

// Build compiles MF source text for the configured machine into an
// Artifact. The context is honored at compiler pass boundaries and between
// per-function backend jobs: a canceled build stops at the next boundary
// with an error satisfying errors.Is(err, ctx.Err()).
func Build(ctx context.Context, src string, o Options) (*Artifact, error) {
	return core.Build(ctx, src, o.toCore())
}

// BuildFile is Build for source read from a named file; frontend
// diagnostics render as "name:line:col: message".
func BuildFile(ctx context.Context, name, src string, o Options) (*Artifact, error) {
	return core.BuildFile(ctx, name, src, o.toCore())
}

// RunMany time-shares the artifacts' programs on one simulated CPU, one
// hardware context each. Per-context results are solo-equivalent —
// identical, counters included, to each program running alone — and the
// returned SchedStats carries the wall-clock accounting (hidden stall
// beats, switches). Every artifact must target the same machine
// configuration; per-program traps land in the matching ManyResult.Err.
func RunMany(ctx context.Context, arts []*Artifact, o RunManyOptions) ([]ManyResult, SchedStats, error) {
	return core.RunMany(ctx, arts, o)
}

// Certificate is proof that a compiled image passed whole-image static
// verification of the no-interlock schedule contract with no errors; it
// authorizes the simulator's fast tier (RunOptions.Tier, Artifact.Arm).
type Certificate = schedcheck.Certificate

// SafeCertificate is the graded certificate one level above Certificate:
// proof of the resource contract plus a per-site bitmask of loads, stores,
// and divides whose bounds/alignment/zero-divisor guards can never fire. It
// authorizes the simulator's safe and native tiers (RunOptions.Tier,
// Artifact.Arm).
type SafeCertificate = safecheck.SafeCertificate

// SafetyReport is the value-range safety analysis' per-site verdict list
// (Artifact.Safety): every guarded operation, proven or unprovable, with
// func:line attribution and the offending interval when unproven.
type SafetyReport = safecheck.Report

// Interpret runs the reference IR interpreter on the unoptimized program —
// the semantic ground truth the simulator is differentially tested against.
func Interpret(res *Result) (int32, string, error) {
	return core.Interpret(res)
}

// RunScalar executes the program on the sequential scalar baseline built of
// the same implementation technology (§1's "conventional machine").
func RunScalar(src string, cfg Config) (BaselineResult, int32, string, error) {
	prog, err := compileIRSource(src)
	if err != nil {
		return BaselineResult{}, 0, "", err
	}
	return baseline.Scalar(prog, cfg)
}

// RunScoreboard executes the program on the dynamically scheduled,
// basic-block-limited baseline (§3's scoreboard discussion).
func RunScoreboard(src string, cfg Config) (BaselineResult, int32, string, error) {
	prog, err := compileIRSource(src)
	if err != nil {
		return BaselineResult{}, 0, "", err
	}
	return baseline.Scoreboard(prog, cfg)
}

// VAXBytes models the program's object size on a tightly encoded CISC, the
// §9 density yardstick.
func VAXBytes(src string) (int64, error) {
	prog, err := compileIRSource(src)
	if err != nil {
		return 0, err
	}
	return baseline.VAXSize(prog), nil
}

func compileIRSource(src string) (*ir.Program, error) {
	return lang.Compile(src)
}
