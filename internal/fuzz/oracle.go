package fuzz

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
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

// armTier puts a pooled machine onto the requested execution tier for img,
// minting the needed certificate grade from the clean lint report (rep must
// be the clean report for exactly this image; one that cannot certify after
// a clean lint is itself a schedcheck bug and is returned so the oracle
// flags it). On a fuzz input nothing may be provable at the safety grade,
// which is fine: an empty bitmask still exercises the safe and native
// tiers' arming and containment machinery.
func armTier(m *vliw.Machine, img *isa.Image, rep *schedcheck.Report, tier vliw.Tier) error {
	if tier == vliw.TierChecked {
		return nil
	}
	cert, err := rep.Certify()
	if err != nil {
		return fmt.Errorf("lint passed but certification failed: %w", err)
	}
	if tier == vliw.TierFast {
		return m.UseCertificate(cert)
	}
	scert, err := safecheck.Analyze(img, safecheck.Options{}).Certify(cert)
	if err != nil {
		return fmt.Errorf("resource certificate minted but safety grading failed: %w", err)
	}
	if tier == vliw.TierSafe {
		return m.UseSafeCertificate(scert)
	}
	return m.UseNativeCertificate(scert)
}

// runTier executes one linked image on one execution tier and returns the
// result plus a copy of the machine's Stats.
func runTier(ctx context.Context, img *isa.Image, rep *schedcheck.Report, maxCycles int64, tier vliw.Tier) (int32, string, vliw.Stats, error) {
	m := machinePool.Get().(*vliw.Machine)
	defer machinePool.Put(m)
	m.Reset(img)
	m.CycleLimit = maxCycles
	if err := armTier(m, img, rep, tier); err != nil {
		return 0, "", vliw.Stats{}, err
	}
	v, out, err := m.RunContext(ctx)
	return v, out, m.Stats, err
}

// checkTiers runs the image on all four execution tiers — checked, fast,
// safe, and native — and requires byte-identical results: same exit, same
// output, same fault, and the same value in every Stats counter. It returns
// the checked tier's result for the caller's reference comparison; the
// *Divergence is non-nil when the tiers disagree among themselves.
func checkTiers(ctx context.Context, img *isa.Image, rep *schedcheck.Report, maxCycles int64, config, src string) (int32, string, error, *Divergence) {
	cv, cout, cst, cerr := runTier(ctx, img, rep, maxCycles, vliw.TierChecked)
	for _, tier := range []vliw.Tier{vliw.TierFast, vliw.TierSafe, vliw.TierNative} {
		tv, tout, tst, terr := runTier(ctx, img, rep, maxCycles, tier)
		tag := config + "/" + tier.String()
		if (cerr == nil) != (terr == nil) {
			return cv, cout, cerr, &Divergence{Stage: "tier", Config: tag,
				Detail: fmt.Sprintf("trap disagreement: checked err=%v, %s err=%v", cerr, tier, terr), Src: src}
		}
		if cerr != nil {
			if cerr.Error() != terr.Error() {
				return cv, cout, cerr, &Divergence{Stage: "tier", Config: tag,
					Detail: fmt.Sprintf("different faults: checked %v, %s %v", cerr, tier, terr), Src: src}
			}
			continue
		}
		if cv != tv {
			return cv, cout, cerr, &Divergence{Stage: "tier", Config: tag,
				Detail: fmt.Sprintf("exit %d, checked %d", tv, cv), Src: src}
		}
		if cout != tout {
			return cv, cout, cerr, &Divergence{Stage: "tier", Config: tag,
				Detail: fmt.Sprintf("output %q, checked %q", tout, cout), Src: src}
		}
		if cst != tst {
			return cv, cout, cerr, &Divergence{Stage: "tier", Config: tag,
				Detail: fmt.Sprintf("stats diverged:\nchecked: %+v\n%s: %+v", cst, tier, tst), Src: src}
		}
	}
	return cv, cout, cerr, nil
}

// matrix is the compile-and-run settings every input is checked across:
// every optimization level, multiple machine widths, and the basic-block-only
// ablation. The full-optimization Trace 28 setting is exercised separately by
// checkO2 so its compile also feeds the image-determinism comparison.
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
}

// Check runs the full differential oracle on one MF source text. It returns
// nil when every configuration agrees with the scalar reference, ErrSkip
// when the input establishes no reference, and a *Divergence otherwise.
func Check(ctx context.Context, src string, o Options) error {
	if o.RefSteps == 0 {
		o.RefSteps = 50_000_000
	}
	tier := o.Tier

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

	for _, m := range matrix {
		lvl, _ := opt.Level(m.level)
		copts := core.Options{
			Config: m.cfg(), Opt: lvl,
			MaxTraceBlocks: m.maxTrace, Parallelism: m.jobs,
		}
		res, err := core.Compile(ctx, src, copts)
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
		rep, d := checkArtifact(res, m.name, src)
		if d != nil {
			return d
		}
		var gotV int32
		var gotOut string
		if tier >= vliw.TierSafe {
			gotV, gotOut, err, d = checkTiers(ctx, res.Image, rep, maxCycles, m.name, src)
			if d != nil {
				return d
			}
		} else {
			gotV, gotOut, _, err = runTier(ctx, res.Image, rep, maxCycles, tier)
		}
		if err != nil {
			return &Divergence{Stage: "trap", Config: m.name,
				Detail: fmt.Sprintf("reference ran clean but the machine faulted: %v", err), Src: src}
		}
		if gotV != wantV {
			return &Divergence{Stage: "exit", Config: m.name,
				Detail: fmt.Sprintf("exit %d, reference %d", gotV, wantV), Src: src}
		}
		if gotOut != wantOut {
			return &Divergence{Stage: "output", Config: m.name,
				Detail: fmt.Sprintf("output %q, reference %q", gotOut, wantOut), Src: src}
		}
	}

	// Full optimization on the widest machine, sequential and parallel
	// backends: run the sequential image against the reference, then require
	// the 4-worker build to be byte-identical.
	return checkO2(ctx, src, wantV, wantOut, maxCycles, tier)
}

// checkArtifact statically verifies every artifact a successful compile
// produced: the optimized IR the scheduler consumed must still validate,
// and the linked image must pass schedcheck. The simulator then runs the
// same image, so a schedule that lints clean but traps dynamically (or vice
// versa) surfaces as a pair of contradictory findings — itself a bug in one
// of the two implementations of the legality rules. On success it returns
// the clean report, which the certified tiers mint into a certificate
// instead of re-running the analysis.
func checkArtifact(res *core.Result, config, src string) (*schedcheck.Report, *Divergence) {
	if err := res.OptIR.Validate(); err != nil {
		return nil, &Divergence{Stage: "ir-validate", Config: config,
			Detail: fmt.Sprintf("optimized IR fails validation after a clean compile: %v", err), Src: src}
	}
	rep := schedcheck.Check(res.Image, schedcheck.Options{
		Src: schedcheck.NewSourceMap(res.Image, res.Funcs),
	})
	if err := rep.Err(); err != nil {
		return nil, &Divergence{Stage: "lint", Config: config,
			Detail: fmt.Sprintf("compiled image fails static schedule verification: %v", err), Src: src}
	}
	return rep, nil
}

// isCapacityReject reports whether err is one of the compiler's structured
// finite-machine rejections (register pressure after the full retry ladder,
// or the schedule-size runaway guard).
func isCapacityReject(err error) bool {
	var ep *tsched.ErrPressure
	var es *tsched.ErrScheduleSize
	return errors.As(err, &ep) || errors.As(err, &es)
}

// checkO2 compiles at full optimization for Trace 28 with a sequential and a
// 4-worker backend, checks the sequential image against the reference result,
// and requires the parallel build to be byte-identical to the sequential one.
func checkO2(ctx context.Context, src string, wantV int32, wantOut string, maxCycles int64, tier vliw.Tier) error {
	opts := func(jobs int) core.Options {
		return core.Options{Config: mach.Trace28(), Opt: opt.Default(), Parallelism: jobs}
	}
	seq, err := core.Compile(ctx, src, opts(1))
	if err != nil {
		if isCapacityReject(err) {
			return nil
		}
		return &Divergence{Stage: "compile", Config: "trace28/O2/j1",
			Detail: fmt.Sprintf("reference accepted the program but compilation failed: %v", err), Src: src}
	}
	rep, d := checkArtifact(seq, "trace28/O2/j1", src)
	if d != nil {
		return d
	}
	var gotV int32
	var gotOut string
	var rerr error
	if tier >= vliw.TierSafe {
		gotV, gotOut, rerr, d = checkTiers(ctx, seq.Image, rep, maxCycles, "trace28/O2/j1", src)
		if d != nil {
			return d
		}
	} else {
		gotV, gotOut, _, rerr = runTier(ctx, seq.Image, rep, maxCycles, tier)
	}
	if rerr != nil {
		return &Divergence{Stage: "trap", Config: "trace28/O2/j1",
			Detail: fmt.Sprintf("reference ran clean but the machine faulted: %v", rerr), Src: src}
	}
	if gotV != wantV || gotOut != wantOut {
		return &Divergence{Stage: "exit", Config: "trace28/O2/j1",
			Detail: fmt.Sprintf("exit %d output %q, reference %d %q", gotV, gotOut, wantV, wantOut), Src: src}
	}

	par, err := core.Compile(ctx, src, opts(4))
	if err != nil {
		return &Divergence{Stage: "image", Config: "trace28/O2/j4",
			Detail: fmt.Sprintf("sequential build succeeded but parallel build failed: %v", err), Src: src}
	}
	if len(par.Image.Instrs) != len(seq.Image.Instrs) {
		return &Divergence{Stage: "image", Config: "trace28/O2/j4",
			Detail: fmt.Sprintf("instruction count %d vs %d", len(par.Image.Instrs), len(seq.Image.Instrs)), Src: src}
	}
	for i := range seq.Image.Words {
		for w := range seq.Image.Words[i] {
			if seq.Image.Words[i][w] != par.Image.Words[i][w] {
				return &Divergence{Stage: "image", Config: "trace28/O2/j4",
					Detail: fmt.Sprintf("instr %d word %d differs between j1 and j4 builds", i, w), Src: src}
			}
		}
	}
	return nil
}

// CheckSeed generates the program for seed and runs the oracle on it.
func CheckSeed(ctx context.Context, seed int64, o Options) error {
	return Check(ctx, Gen(seed), o)
}
