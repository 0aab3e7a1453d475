package fuzz

import (
	"context"
	"fmt"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/schedcheck"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// timeshareK is the context count of the multi-tenancy oracle stage: four
// generated programs share one machine, the smallest population where
// round-robin rotation, eager stall rotation, and staggered retirement all
// occur.
const timeshareK = 4

// soloResult is one program's reference execution for the time-sharing
// comparison: the solo run IS the oracle — the scheduler must not be able
// to change any of it.
type soloResult struct {
	img  *isa.Image
	rep  *schedcheck.Report
	src  string
	exit int32
	out  string
	st   vliw.Stats
}

// CheckTimeshare is the multi-context oracle stage: the sources compile at
// full optimization for one machine, run solo to establish per-program
// references, then run again time-shared K=4 on shared machines. Any
// difference in a program's exit, output, or performance counters between
// its solo and time-shared execution is a context-scheduler bug — the
// hardware-context model promises bit-exact solo equivalence. Both the solo
// references and the shared machine run on the tier Options resolves to, so
// -tier=native exercises the region translator under round-robin
// preemption. Inputs that
// fail to compile or whose solo run errs are skipped (they are the other
// stages' business); ErrSkip reports that no input survived to compare.
func CheckTimeshare(ctx context.Context, srcs []string, o Options) error {
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	tier := o.Tier
	copts := core.Options{Config: mach.Trace28(), Opt: opt.Default(), Parallelism: 1}

	var solos []soloResult
	for _, src := range srcs {
		res, err := core.Compile(ctx, src, copts)
		if err != nil {
			if isCapacityReject(err) || ctx.Err() != nil {
				continue
			}
			continue // non-compiling input: Check's business, not ours
		}
		rep := schedcheck.Check(res.Image, schedcheck.Options{
			Src: schedcheck.NewSourceMap(res.Image, res.Funcs),
		})
		if rep.Err() != nil {
			continue
		}
		// The solo run establishes the reference, Stats included: a pooled
		// machine directly (not runImage) so the counters are readable.
		m := machinePool.Get().(*vliw.Machine)
		m.Reset(res.Image)
		m.CycleLimit = maxCycles
		if err := armTier(m, res.Image, rep, tier); err != nil {
			machinePool.Put(m)
			return err
		}
		v, out, err := m.RunContext(ctx)
		st := m.Stats
		machinePool.Put(m)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // solo trap or budget: no reference to compare against
		}
		solos = append(solos, soloResult{img: res.Image, rep: rep, src: src, exit: v, out: out, st: st})
	}
	if len(solos) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrSkip
	}

	for lo := 0; lo < len(solos); lo += timeshareK {
		hi := min(lo+timeshareK, len(solos))
		batch := solos[lo:hi]
		imgs := make([]*isa.Image, len(batch))
		for i, s := range batch {
			imgs[i] = s.img
		}
		m := machinePool.Get().(*vliw.Machine)
		if err := m.ResetMany(imgs); err != nil {
			machinePool.Put(m)
			return err
		}
		m.CycleLimit = maxCycles
		for _, s := range batch {
			if err := armTier(m, s.img, s.rep, tier); err != nil {
				machinePool.Put(m)
				return err
			}
		}
		rs, err := m.RunMany(ctx)
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
			cfg := fmt.Sprintf("trace28/O2/K%d ctx%d", len(batch), i)
			if r.Err != nil {
				return &Divergence{Stage: "timeshare", Config: cfg,
					Detail: fmt.Sprintf("solo run was clean but the context faulted: %v", r.Err), Src: batch[i].src}
			}
			if r.Exit != batch[i].exit {
				return &Divergence{Stage: "timeshare", Config: cfg,
					Detail: fmt.Sprintf("exit %d time-shared, %d solo", r.Exit, batch[i].exit), Src: batch[i].src}
			}
			if r.Output != batch[i].out {
				return &Divergence{Stage: "timeshare", Config: cfg,
					Detail: fmt.Sprintf("output %q time-shared, %q solo", r.Output, batch[i].out), Src: batch[i].src}
			}
			if r.Stats != batch[i].st {
				return &Divergence{Stage: "timeshare", Config: cfg,
					Detail: fmt.Sprintf("stats diverge between solo and time-shared runs:\n  shared: %+v\n  solo:   %+v", r.Stats, batch[i].st),
					Src:    batch[i].src}
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
