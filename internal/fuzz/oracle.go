package fuzz

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/tsched"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// ErrSkip reports that an input cannot establish a reference result — it
// does not compile, or the reference itself traps or exhausts its budget.
// Skipped inputs are not findings: the compiler rejected or diagnosed them.
var ErrSkip = errors.New("fuzz: input establishes no reference result")

// Divergence is a confirmed oracle failure: the VLIW stack disagreed with
// the scalar reference, compilation was nondeterministic, or a compiled
// artifact failed static verification. Any Divergence is a compiler or
// simulator bug.
type Divergence struct {
	Stage  string // "compile", "ir-validate", "lint", "trap", "exit", "output", "image"
	Config string // machine/opt/parallelism setting that diverged
	Detail string
	Src    string // the offending program
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence [%s] at %s: %s", d.Stage, d.Config, d.Detail)
}

// Options tunes the oracle budgets.
type Options struct {
	// RefSteps bounds the reference interpreter (default 50M ops).
	RefSteps int64
	// MaxCycles bounds each VLIW run (default scales with the reference).
	MaxCycles int64
	// Tier selects the oracle's execution-tier regime. TierChecked (the
	// zero value) runs the checked tier only — the strongest single-tier
	// oracle, cross-checking the static verifier against the dynamic one.
	// TierFast runs each image on the certified fast path instead, for
	// throughput-oriented campaigns where the lint stage alone carries the
	// legality burden. TierSafe and TierNative upgrade the oracle to the
	// full four-way tier matrix: every image that runs also executes on the
	// fast path, the guard-free safe tier, and the region-translating native
	// tier, and all four runs must agree on the exit value, the output, the
	// fault, and every Stats counter. The timeshare and snapshot stages run
	// on the named tier itself, so -tier=native composes certificate-armed
	// translation with context time-sharing and checkpoint/restore.
	Tier vliw.Tier
}

// machinePool recycles simulator machines across oracle runs. A machine
// owns multi-megabyte memory and TLB/itag arrays; reallocating them for
// every (input × matrix config) run dominated the oracle's allocation
// profile, so runs borrow a machine and Reset it onto each image instead.
var machinePool = sync.Pool{New: func() any { return new(vliw.Machine) }}

// runOn executes the artifact under o on a pooled machine. Artifact.RunOn
// arms the tier with the certificate the artifact minted the first time a
// tier asked; on a fuzz input nothing may be provable at the safety grade,
// which is fine: an empty bitmask still exercises the safe and native tiers'
// arming and containment machinery.
func runOn(ctx context.Context, art *core.Artifact, o core.RunOptions) (core.ExitResult, error) {
	m := machinePool.Get().(*vliw.Machine)
	defer machinePool.Put(m)
	return art.RunOn(ctx, m, o)
}

// differ names the first of exit, output and counters on which a run differs
// from the run it has to repeat, "" when it repeats it.
func differ(got, want core.ExitResult) string {
	switch {
	case got.Exit != want.Exit:
		return fmt.Sprintf("exit %d, want %d", got.Exit, want.Exit)
	case got.Output != want.Output:
		return fmt.Sprintf("output %q, want %q", got.Output, want.Output)
	case got.Stats != want.Stats:
		return fmt.Sprintf("stats diverge:\n  got:  %+v\n  want: %+v", got.Stats, want.Stats)
	}
	return ""
}

// regime is the tiers every image runs on under Options.Tier: that tier alone,
// or — from safe up — all four, checked first.
func regime(t vliw.Tier) []vliw.Tier {
	if t >= vliw.TierSafe {
		return []vliw.Tier{vliw.TierChecked, vliw.TierFast, vliw.TierSafe, vliw.TierNative}
	}
	return []vliw.Tier{t}
}

// runTiers runs the artifact on each tier and requires the later ones to
// repeat the first byte for byte: same exit, same output, same fault, and the
// same value in every Stats counter. It returns the first tier's result for
// the caller's reference comparison; the *Divergence is non-nil when the
// tiers disagree among themselves. An image that linted clean and cannot be
// armed is an error of its run like any other, and so a finding.
func runTiers(ctx context.Context, art *core.Artifact, tiers []vliw.Tier, maxCycles int64, config, src string) (core.ExitResult, error, *Divergence) {
	first, ferr := runOn(ctx, art, core.RunOptions{Tier: tiers[0], MaxCycles: maxCycles})
	for _, tier := range tiers[1:] {
		got, err := runOn(ctx, art, core.RunOptions{Tier: tier, MaxCycles: maxCycles})
		var detail string
		switch {
		case (ferr == nil) != (err == nil):
			detail = fmt.Sprintf("trap disagreement: %s err=%v, %s err=%v", tiers[0], ferr, tier, err)
		case ferr != nil:
			if ferr.Error() != err.Error() {
				detail = fmt.Sprintf("different faults: %s %v, %s %v", tiers[0], ferr, tier, err)
			}
		default:
			detail = differ(got, first)
		}
		if detail != "" {
			return first, ferr, &Divergence{Stage: "tier", Config: config + "/" + tier.String(), Detail: detail, Src: src}
		}
	}
	return first, ferr, nil
}

// matrix is the compile-and-run settings every input is checked across:
// every optimization level, multiple machine widths, and the basic-block-only
// ablation. Last comes full optimization on the widest machine, whose image
// the 4-worker backend must then reproduce byte for byte.
var matrix = []struct {
	name     string
	cfg      func() mach.Config
	level    int // opt.Level
	maxTrace int
	jobs     int
}{
	{"trace7/O0/j1", mach.Trace7, 0, 0, 1},
	{"trace14/O1/j1", mach.Trace14, 1, 0, 1},
	{"trace28/O2/bb-only/j1", mach.Trace28, 2, 1, 1},
	{"trace28/O2/j1", mach.Trace28, 2, 0, 1},
}

// Check runs the full differential oracle on one MF source text. It returns
// nil when every configuration agrees with the scalar reference, ErrSkip
// when the input establishes no reference, and a *Divergence otherwise.
func Check(ctx context.Context, src string, o Options) error {
	if o.RefSteps == 0 {
		o.RefSteps = 50_000_000
	}

	// Reference: the IR interpreter underneath the scalar baseline is the
	// semantic ground truth; it shares no code with the scheduler or the
	// VLIW machine model.
	prog, err := lang.Compile(src)
	if err != nil {
		return ErrSkip // frontend rejected it with a positioned diagnostic
	}
	refRes, wantV, wantOut, rerr := baseline.ScalarBudget(prog, mach.Trace7(), o.RefSteps)
	if rerr != nil {
		return ErrSkip // reference traps or exceeds budget: no ground truth
	}
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		// A VLIW beat retires at most a few ops; anything past this factor
		// of the reference op count is a wedged or miscompiled program.
		maxCycles = 200*refRes.Ops + 2_000_000
	}

	var copts core.Options
	var last *core.Artifact // the last setting's, nil when it was capacity-rejected
	for _, m := range matrix {
		lvl, _ := opt.Level(m.level)
		copts = core.Options{
			Config: m.cfg(), Opt: lvl,
			MaxTraceBlocks: m.maxTrace, Parallelism: m.jobs,
		}
		last = nil
		art, err := core.Build(ctx, src, copts)
		if err != nil {
			// The machine is finite and the allocator does not spill: a
			// structured capacity rejection on a narrow config is the
			// compiler refusing honestly, not a bug. Anything else —
			// including a recovered panic — is a finding.
			if isCapacityReject(err) {
				continue
			}
			return &Divergence{Stage: "compile", Config: m.name,
				Detail: fmt.Sprintf("reference accepted the program but compilation failed: %v", err), Src: src}
		}
		if d := verify(art, m.name, src); d != nil {
			return d
		}
		got, err, d := runTiers(ctx, art, regime(o.Tier), maxCycles, m.name, src)
		if d != nil {
			return d
		}
		if err != nil {
			return &Divergence{Stage: "trap", Config: m.name,
				Detail: fmt.Sprintf("reference ran clean but the machine faulted: %v", err), Src: src}
		}
		if got.Exit != wantV {
			return &Divergence{Stage: "exit", Config: m.name,
				Detail: fmt.Sprintf("exit %d, reference %d", got.Exit, wantV), Src: src}
		}
		if got.Output != wantOut {
			return &Divergence{Stage: "output", Config: m.name,
				Detail: fmt.Sprintf("output %q, reference %q", got.Output, wantOut), Src: src}
		}
		last = art
	}
	if last == nil {
		return nil
	}

	// The sequential build of the last setting ran against the reference;
	// the 4-worker build must be byte-identical to it.
	seq := last.Image()
	copts.Parallelism = 4
	res, err := core.Compile(ctx, src, copts)
	if err != nil {
		return &Divergence{Stage: "image", Config: "trace28/O2/j4",
			Detail: fmt.Sprintf("sequential build succeeded but parallel build failed: %v", err), Src: src}
	}
	par := res.Image
	if len(par.Instrs) != len(seq.Instrs) {
		return &Divergence{Stage: "image", Config: "trace28/O2/j4",
			Detail: fmt.Sprintf("instruction count %d vs %d", len(par.Instrs), len(seq.Instrs)), Src: src}
	}
	for i := range seq.Words {
		for w := range seq.Words[i] {
			if seq.Words[i][w] != par.Words[i][w] {
				return &Divergence{Stage: "image", Config: "trace28/O2/j4",
					Detail: fmt.Sprintf("instr %d word %d differs between j1 and j4 builds", i, w), Src: src}
			}
		}
	}
	return nil
}

// verify statically checks every artifact a successful compile produced:
// the optimized IR the scheduler consumed must still validate, and the
// linked image must pass schedcheck. The simulator then runs the same
// image, so a schedule that lints clean but traps dynamically (or vice
// versa) surfaces as a pair of contradictory findings — itself a bug in one
// of the two implementations of the legality rules. The clean report stays
// on the artifact, which mints the certified tiers' certificates from it
// instead of re-running the analysis.
func verify(art *core.Artifact, config, src string) *Divergence {
	if err := art.Result().OptIR.Validate(); err != nil {
		return &Divergence{Stage: "ir-validate", Config: config,
			Detail: fmt.Sprintf("optimized IR fails validation after a clean compile: %v", err), Src: src}
	}
	if err := art.Lint().Err(); err != nil {
		return &Divergence{Stage: "lint", Config: config,
			Detail: fmt.Sprintf("compiled image fails static schedule verification: %v", err), Src: src}
	}
	return nil
}

// isCapacityReject reports whether err is one of the compiler's structured
// finite-machine rejections (register pressure after the full retry ladder,
// or the schedule-size runaway guard).
func isCapacityReject(err error) bool {
	var ep *tsched.ErrPressure
	var es *tsched.ErrScheduleSize
	return errors.As(err, &ep) || errors.As(err, &es)
}

// CheckSeed generates the program for seed and runs the oracle on it.
func CheckSeed(ctx context.Context, seed int64, o Options) error {
	return Check(ctx, Gen(seed), o)
}
