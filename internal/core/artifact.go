package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/pipeline"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Artifact is a completed compilation as a first-class value: the
// executable image plus every derived product a caller might want — the
// pass report, the static-verification report, the fast-path Certificate and
// the simulator's execution plan, the latter three made lazily and kept on
// the artifact.
//
// An Artifact is immutable after Build and safe for concurrent use: the
// paper's premise (§4) is that the compiler statically owns every machine
// resource, so a compiled image never changes after linking. That is what
// makes artifacts content-addressable and shareable — the serving layer
// caches one Artifact per (source × options) key and runs it from many
// requests at once, each on its own Machine. The same premise makes the
// plan the artifact's: the pre-decoded words, their guard-free copy under the
// safety certificate and the regions fused on either are pure functions of the
// image, so every machine that runs the artifact — Machine, Run, RunOn,
// RunFromOn, RunManyOn — runs the one plan, and pointing a pooled machine at
// another artifact rebuilds nothing. Building costs nothing: the first run
// decodes the plan (vliw.NewPlan).
type Artifact struct {
	res  *Result
	plan *vliw.Plan

	mu       sync.Mutex
	cert     *schedcheck.Certificate
	certErr  error
	certDone bool
	lint     *schedcheck.Report
	safety   *safecheck.Report
	safe     *safecheck.SafeCertificate
	safeErr  error
	safeDone bool
}

// Build compiles MF source text into an Artifact, the value the
// Run/Lint/Certificate methods hang off. Cancellation is honored at pass
// boundaries, between per-function backend jobs, and at backend stage
// boundaries.
func Build(ctx context.Context, src string, opts Options) (*Artifact, error) {
	res, err := Compile(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	return newArtifact(res), nil
}

func newArtifact(res *Result) *Artifact {
	return &Artifact{res: res, plan: vliw.NewPlan(res.Image)}
}

// BuildFile is Build for source read from a named file: frontend
// diagnostics render as "name:line:col: message".
func BuildFile(ctx context.Context, name, src string, opts Options) (*Artifact, error) {
	res, err := CompileFile(ctx, name, src, opts)
	if err != nil {
		return nil, err
	}
	return newArtifact(res), nil
}

// Result exposes the underlying compilation record (image, IR, pass
// report, retry metadata) for inspection. Callers must treat it as
// read-only; mutating a cached artifact's result corrupts every concurrent
// user.
func (a *Artifact) Result() *Result { return a.res }

// Image returns the linked executable image.
func (a *Artifact) Image() *isa.Image { return a.res.Image }

// Report returns the per-pass timing and IR-size record of the build.
func (a *Artifact) Report() pipeline.Report { return a.res.Report }

// Lint statically verifies the image against the no-interlock schedule
// contract and returns the full report (errors and warnings, with
// function/line attribution). The report is computed once and cached; when
// the build already ran the lint stage (Options.Lint), that report is
// reused.
func (a *Artifact) Lint() *schedcheck.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lintLocked()
}

func (a *Artifact) lintLocked() *schedcheck.Report {
	if a.lint == nil {
		if a.res.Lint != nil {
			a.lint = a.res.Lint
		} else {
			a.lint = schedcheck.Check(a.res.Image, schedcheck.Options{
				Src: schedcheck.NewSourceMap(a.res.Image, a.res.Funcs),
			})
		}
	}
	return a.lint
}

// Certificate statically verifies the image (once — the result is cached
// on the artifact, shared by every subsequent fast run) and mints the
// certificate that authorizes the simulator's fast path.
func (a *Artifact) Certificate() (*schedcheck.Certificate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.certDone {
		a.cert, a.certErr = a.lintLocked().Certify()
		a.certDone = true
	}
	return a.cert, a.certErr
}

// Safety runs the value-range safety analysis (internal/safecheck) over the
// image and returns its per-site report: every load/store/divide/indirect
// jump, classified proven-safe or unprovable with func:line attribution.
// Computed once and cached; shared by every subsequent safe run.
func (a *Artifact) Safety() *safecheck.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.safetyLocked()
}

func (a *Artifact) safetyLocked() *safecheck.Report {
	if a.safety == nil {
		a.safety = safecheck.Analyze(a.res.Image, safecheck.Options{
			Src: schedcheck.NewSourceMap(a.res.Image, a.res.Funcs),
		})
	}
	return a.safety
}

// CertifySafe mints the graded safety certificate: the resource certificate
// (Certificate) extended with the safety analysis' per-site proof bitmask.
// It authorizes the simulator's safe and native tiers — guard-free execution
// of proven sites via RunOptions.Tier or Arm. Minting
// requires only that the image certifies at the resource level; an image
// with zero proven sites still gets a certificate (its safe tier simply
// equals the fast tier). Minted once and cached on the artifact.
func (a *Artifact) CertifySafe() (*safecheck.SafeCertificate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.safeDone {
		a.safeDone = true
		if !a.certDone {
			a.cert, a.certErr = a.lintLocked().Certify()
			a.certDone = true
		}
		if a.certErr != nil {
			a.safeErr = a.certErr
		} else {
			a.safe, a.safeErr = a.safetyLocked().Certify(a.cert)
		}
	}
	return a.safe, a.safeErr
}

// Machine returns a fresh machine loaded with the artifact's plan, for
// callers who want to instrument execution (watchpoints, traces, beat
// limits) directly.
func (a *Artifact) Machine() *vliw.Machine {
	m := new(vliw.Machine)
	m.ResetPlan(a.plan)
	return m
}

// PlanBytes estimates what the artifact's execution plan holds in memory: nothing
// before the first run, then the decoded words, their certified copy and the
// regions machines have built on either so far.
func (a *Artifact) PlanBytes() int64 { return a.plan.Bytes() }

// Arm puts every context of m that runs this artifact's image onto the
// tier: it mints (once, cached on the artifact) the certificate grade the
// tier consumes — Certificate for fast, CertifySafe for safe and native —
// and hands it to the machine. It is the one place a Tier becomes a
// certificate; Run, RunMany and the tools all arm through it. The machine
// must already be Reset onto the image, and arming does not survive a Reset.
func (a *Artifact) Arm(m *vliw.Machine, tier vliw.Tier) error {
	switch tier {
	case vliw.TierChecked:
		return nil
	case vliw.TierFast:
		cert, err := a.Certificate()
		if err != nil {
			return fmt.Errorf("%s tier: %w", tier, err)
		}
		return m.UseCertificate(cert)
	case vliw.TierSafe, vliw.TierNative:
		cert, err := a.CertifySafe()
		if err != nil {
			return fmt.Errorf("%s tier: %w", tier, err)
		}
		if tier == vliw.TierSafe {
			return m.UseSafeCertificate(cert)
		}
		return m.UseNativeCertificate(cert)
	}
	return fmt.Errorf("unknown execution tier %d", int(tier))
}

// RunOptions configures one execution of an artifact.
type RunOptions struct {
	// Tier selects the execution tier: checked (the zero value), fast,
	// safe, or native. Each tier reuses the artifact's cached certificate
	// of the matching grade (Certificate for fast, CertifySafe for safe and
	// native), minted on first use. Results — exit, output, and every Stats
	// counter — are bit-identical across tiers.
	Tier vliw.Tier
	// MaxCycles overrides the machine's beat budget (0 keeps the default).
	MaxCycles int64
	// SnapshotAt pauses the run at the first instruction boundary where the
	// context's virtual clock reaches the given beat: the result carries
	// Paused=true and a Snapshot that RunFrom continues bit-identically. A
	// run that completes before the pause point returns normally with no
	// snapshot. Zero disables pausing.
	SnapshotAt int64
	// SnapshotOnInterrupt captures a resume snapshot into the result when
	// the run is stopped by cancellation/deadline or by the cycle budget,
	// instead of discarding the partial execution. The interrupting error
	// is still returned; the snapshot rides alongside it.
	SnapshotOnInterrupt bool
}

// ExitResult is one completed execution: exit value, captured output, and
// the machine's performance counters.
type ExitResult struct {
	Exit   int32
	Output string
	Stats  vliw.Stats
	// Tier records the execution tier the run actually took.
	Tier vliw.Tier
	// Paused reports the run checkpointed at RunOptions.SnapshotAt instead
	// of completing; Exit is meaningless and Output/Stats are the partial
	// values so far.
	Paused bool
	// Snapshot is the serialized resume point (see vliw.Context.Snapshot):
	// set when Paused, and on interrupted runs under SnapshotOnInterrupt.
	// RunFrom (or vliw.Context.Restore) continues it.
	Snapshot []byte
}

// Run executes the artifact on a fresh machine. The context is polled at
// beat granularity (vliw.Machine.CtxCheckEvery): a canceled or expired
// context stops the simulation within one check interval with a
// *vliw.ErrCanceled wrapping the context error.
func (a *Artifact) Run(ctx context.Context, o RunOptions) (ExitResult, error) {
	return a.RunOn(ctx, new(vliw.Machine), o)
}

// RunOn is Run on a caller-provided machine, which is Reset onto the
// artifact's plan first: callers serving many runs pool machines (they
// own multi-megabyte memories) and thread them through here, exactly as
// internal/serve and the fuzz oracle do. Whichever artifact the machine ran
// last, it builds only what no machine has built for this one yet.
func (a *Artifact) RunOn(ctx context.Context, m *vliw.Machine, o RunOptions) (ExitResult, error) {
	m.ResetPlan(a.plan)
	return a.runPrepared(ctx, m, o)
}

// RunFrom resumes a checkpointed execution of this artifact on a fresh
// machine. The snapshot must have been taken from a run of the same
// compiled image (vliw.Context.Restore verifies the image fingerprint and
// the payload checksum and refuses anything else); the resumed run is
// bit-identical to the uninterrupted one — exit, output, and every Stats
// counter.
func (a *Artifact) RunFrom(ctx context.Context, snapshot []byte, o RunOptions) (ExitResult, error) {
	return a.RunFromOn(ctx, new(vliw.Machine), snapshot, o)
}

// RunFromOn is RunFrom on a caller-provided (pooled) machine.
func (a *Artifact) RunFromOn(ctx context.Context, m *vliw.Machine, snapshot []byte, o RunOptions) (ExitResult, error) {
	m.ResetPlan(a.plan)
	if err := m.Contexts()[0].Restore(snapshot); err != nil {
		return ExitResult{}, err
	}
	return a.runPrepared(ctx, m, o)
}

// runPrepared applies the run options to a machine already holding the
// execution state (booted-fresh or snapshot-restored) and runs it,
// translating pauses and interrupts into snapshots as requested.
func (a *Artifact) runPrepared(ctx context.Context, m *vliw.Machine, o RunOptions) (ExitResult, error) {
	if o.MaxCycles > 0 {
		m.CycleLimit = o.MaxCycles
	}
	if o.SnapshotAt > 0 {
		m.StopBeat = o.SnapshotAt
	}
	if err := a.Arm(m, o.Tier); err != nil {
		return ExitResult{}, err
	}
	v, out, err := m.RunContext(ctx)
	res := ExitResult{Exit: v, Output: out, Stats: m.Stats, Tier: m.Tier()}
	if err == nil {
		return res, nil // before the errors.As targets below, which escape: a clean run allocates nothing
	}
	var stop *vliw.ErrStopped
	if errors.As(err, &stop) {
		snap, serr := m.Contexts()[0].Snapshot()
		if serr != nil {
			return res, serr
		}
		res.Paused = true
		res.Snapshot = snap
		return res, nil
	}
	if o.SnapshotOnInterrupt {
		var ec *vliw.ErrCanceled
		var el *vliw.ErrCycleLimit
		if errors.As(err, &ec) || errors.As(err, &el) {
			if snap, serr := m.Contexts()[0].Snapshot(); serr == nil {
				res.Snapshot = snap
			}
		}
	}
	return res, err
}
