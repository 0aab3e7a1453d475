package fuzz

import (
	"context"
	"errors"
	"fmt"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// timeshareK is the context count of the time-sharing oracle stage: four
// generated programs share one machine, the smallest population where
// round-robin rotation, eager stall rotation, and staggered retirement all
// occur.
const timeshareK = 4

// tenant is one program of the time-sharing comparison with its reference:
// the solo run IS the oracle — the scheduler must not be able to change any
// of it.
type tenant struct {
	art  *core.Artifact
	src  string
	solo core.ExitResult
}

// CheckTimeshare is the multi-context oracle stage: the sources compile at
// full optimization for one machine, run solo to establish per-program
// references, then run again time-shared K=4 on shared machines. Any
// difference in a program's exit, output, or performance counters between
// its solo and time-shared execution is a context-scheduler bug — the
// hardware-context model promises bit-exact solo equivalence. Both the solo
// references and the shared machine run on the tier Options names, so
// -tier=native exercises the region translator under round-robin
// preemption. Inputs that fail to compile or to lint are skipped (they are
// the other stages' business); ErrSkip reports that no input survived to
// compare.
func CheckTimeshare(ctx context.Context, srcs []string, o Options) error {
	copts := core.Options{Config: mach.Trace28(), Opt: opt.Default()}
	var ts []tenant
	for _, src := range srcs {
		if art, err := core.Build(ctx, src, copts); err == nil && art.Lint().Err() == nil {
			ts = append(ts, tenant{art: art, src: src})
		}
	}
	return timeshare(ctx, ts, o)
}

// timeshare is CheckTimeshare on artifacts that linted clean.
func timeshare(ctx context.Context, ts []tenant, o Options) error {
	ro := core.RunOptions{Tier: o.Tier, MaxCycles: o.MaxCycles}
	if ro.MaxCycles == 0 {
		ro.MaxCycles = 500_000_000
	}
	solos := ts[:0]
	for _, t := range ts {
		var err error
		t.solo, err = runOn(ctx, t.art, ro)
		var fault *vliw.Fault
		var limit *vliw.ErrCycleLimit
		switch {
		case err == nil:
			solos = append(solos, t)
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.As(err, &fault), errors.As(err, &limit):
			// solo trap or budget: no reference to compare against
		default:
			// Nothing else stops a run but a tier that would not arm, and the
			// image linted clean: a verifier bug, not a skipped input.
			return &Divergence{Stage: "timeshare", Config: "trace28/O2/solo",
				Detail: fmt.Sprintf("image lints clean but does not run on the %s tier: %v", o.Tier, err), Src: t.src}
		}
	}
	if len(solos) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrSkip
	}

	for lo := 0; lo < len(solos); lo += timeshareK {
		batch := solos[lo:min(lo+timeshareK, len(solos))]
		arts := make([]*core.Artifact, len(batch))
		for i, t := range batch {
			arts[i] = t.art
		}
		m := machinePool.Get().(*vliw.Machine)
		rs, _, err := core.RunManyOn(ctx, m, arts, core.RunManyOptions{Tier: ro.Tier, MaxCycles: ro.MaxCycles})
		machinePool.Put(m)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return &Divergence{Stage: "timeshare", Config: fmt.Sprintf("trace28/O2/K%d", len(batch)),
				Detail: fmt.Sprintf("solo runs were clean but the time-shared machine failed: %v", err),
				Src:    batch[0].src}
		}
		for i, r := range rs {
			detail := fmt.Sprintf("solo run was clean but the context faulted: %v", r.Err)
			if r.Err == nil {
				detail = differ(core.ExitResult{Exit: r.Exit, Output: r.Output, Stats: r.Stats}, batch[i].solo)
			}
			if detail != "" {
				return &Divergence{Stage: "timeshare", Config: fmt.Sprintf("trace28/O2/K%d ctx%d", len(batch), i),
					Detail: "time-shared against solo: " + detail, Src: batch[i].src}
			}
		}
	}
	return nil
}

// CheckTimeshareSeeds generates the programs for a contiguous seed range and
// runs the time-sharing oracle stage over them.
func CheckTimeshareSeeds(ctx context.Context, seed, n int64, o Options) error {
	srcs := make([]string, 0, n)
	for s := seed; s < seed+n; s++ {
		srcs = append(srcs, Gen(s))
	}
	return CheckTimeshare(ctx, srcs, o)
}
