package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// snapshotSplits is how many random beat offsets each surviving program is
// split at, per checking mode. Random offsets land snapshots in the states a
// hand-written test can't aim for — mid-pending-write, mid-bank-stall, the
// beat before a trap — which is the point of fuzzing them.
const snapshotSplits = 3

// CheckSnapshot is the checkpoint/restore oracle stage for one program: the
// program compiles at full optimization, runs uninterrupted to establish the
// reference, then re-runs split at random beats — pause, serialize, restore
// onto a different pooled machine, continue — in the checked mode, the
// certified-fast mode (when the image certifies), and — when Options asks
// for the safe or native tier and the image certifies at the safety grade —
// that tier too, proving the snapshot wire format is tier-independent. The
// stitched run must match the reference bit-for-bit: exit, output, and
// every performance counter. A corrupted snapshot must be refused by
// Restore, never half-applied.
func CheckSnapshot(ctx context.Context, src string, seed int64, o Options) error {
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	tier := o.Tier
	copts := core.Options{Config: mach.Trace28(), Opt: opt.Default(), Parallelism: 1}
	art, err := core.Build(ctx, src, copts)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return ErrSkip // non-compiling or capacity-rejected: other stages' business
	}

	m := machinePool.Get().(*vliw.Machine)
	ref, err := art.RunOn(ctx, m, core.RunOptions{MaxCycles: maxCycles})
	machinePool.Put(m)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return ErrSkip // reference traps or exceeds budget: no ground truth
	}
	if ref.Stats.Beats < 2 {
		return ErrSkip // nowhere to split
	}

	modes := []vliw.Tier{vliw.TierChecked}
	if _, err := art.Certificate(); err == nil {
		modes = append(modes, vliw.TierFast)
	}
	if tier >= vliw.TierSafe {
		if _, err := art.CertifySafe(); err == nil {
			modes = append(modes, tier)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var snap []byte // one surviving snapshot, reused for the corruption probe
	for _, mode := range modes {
		for s := 0; s < snapshotSplits; s++ {
			at := 1 + rng.Int63n(ref.Stats.Beats-1)
			cfg := fmt.Sprintf("trace28/O2/tier=%s split@%d", mode, at)

			m := machinePool.Get().(*vliw.Machine)
			first, err := art.RunOn(ctx, m, core.RunOptions{
				Tier: mode, MaxCycles: maxCycles, SnapshotAt: at})
			machinePool.Put(m)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return &Divergence{Stage: "snapshot", Config: cfg,
					Detail: fmt.Sprintf("reference ran clean but the split run failed: %v", err), Src: src}
			}

			final := first
			if first.Paused {
				snap = first.Snapshot
				// Restore deliberately lands on a different pooled machine:
				// the snapshot must carry everything, not lean on leftovers.
				m := machinePool.Get().(*vliw.Machine)
				final, err = art.RunFromOn(ctx, m, first.Snapshot, core.RunOptions{
					Tier: mode, MaxCycles: maxCycles})
				machinePool.Put(m)
				if err != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					return &Divergence{Stage: "snapshot", Config: cfg,
						Detail: fmt.Sprintf("restore or resumed run failed: %v", err), Src: src}
				}
			}
			// A split landing inside the final instruction completes
			// instead of pausing; either way the result must equal the
			// uninterrupted reference exactly.
			if final.Exit != ref.Exit {
				return &Divergence{Stage: "snapshot", Config: cfg,
					Detail: fmt.Sprintf("exit %d resumed, %d uninterrupted", final.Exit, ref.Exit), Src: src}
			}
			if final.Output != ref.Output {
				return &Divergence{Stage: "snapshot", Config: cfg,
					Detail: fmt.Sprintf("output %q resumed, %q uninterrupted", final.Output, ref.Output), Src: src}
			}
			if final.Stats != ref.Stats {
				return &Divergence{Stage: "snapshot", Config: cfg,
					Detail: fmt.Sprintf("stats diverge between uninterrupted and split runs:\n  resumed:       %+v\n  uninterrupted: %+v", final.Stats, ref.Stats),
					Src:    src}
			}
		}
	}

	if snap != nil {
		// Integrity probe: one flipped payload byte must be rejected whole.
		bad := append([]byte(nil), snap...)
		bad[len(bad)/2] ^= 0x40
		m := machinePool.Get().(*vliw.Machine)
		_, err := art.RunFromOn(ctx, m, bad, core.RunOptions{MaxCycles: maxCycles})
		machinePool.Put(m)
		var ebs *vliw.ErrBadSnapshot
		if !errors.As(err, &ebs) {
			return &Divergence{Stage: "snapshot", Config: "corrupt",
				Detail: fmt.Sprintf("corrupted snapshot was not rejected (err=%v)", err), Src: src}
		}
	}
	return nil
}

// CheckSnapshotSeeds generates programs for a contiguous seed range and runs
// the checkpoint/restore oracle over each; ErrSkip reports that no program
// survived to a splittable reference run.
func CheckSnapshotSeeds(ctx context.Context, seed, n int64, o Options) error {
	survived := false
	for s := seed; s < seed+n; s++ {
		err := CheckSnapshot(ctx, Gen(s), s, o)
		if errors.Is(err, ErrSkip) {
			continue
		}
		if err != nil {
			return err
		}
		survived = true
	}
	if !survived {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrSkip
	}
	return nil
}
