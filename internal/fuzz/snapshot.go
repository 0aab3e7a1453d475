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
// onto a pooled machine, continue — in the checked mode and, when the image
// lints clean, the certified-fast mode and the safe or native tier Options
// asks for, proving the snapshot wire format is tier-independent. The
// stitched run must match the reference bit-for-bit: exit, output, and
// every performance counter. A corrupted snapshot must be refused by
// Restore, never half-applied.
func CheckSnapshot(ctx context.Context, src string, seed int64, o Options) error {
	copts := core.Options{Config: mach.Trace28(), Opt: opt.Default(), Parallelism: 1}
	art, err := core.Build(ctx, src, copts)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return ErrSkip // non-compiling or capacity-rejected: other stages' business
	}
	return snapshot(ctx, art, src, seed, o)
}

// snapshot is CheckSnapshot on the built artifact.
func snapshot(ctx context.Context, art *core.Artifact, src string, seed int64, o Options) error {
	maxCycles := o.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	ref, err := runOn(ctx, art, core.RunOptions{MaxCycles: maxCycles})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return ErrSkip // reference traps or exceeds budget: no ground truth
	}
	if ref.Stats.Beats < 2 {
		return ErrSkip // nowhere to split
	}

	// An image that does not lint is Check's finding and runs checked only
	// here; one that lints and then will not arm fails its split run below.
	modes := []vliw.Tier{vliw.TierChecked}
	if art.Lint().Err() == nil {
		modes = append(modes, vliw.TierFast)
		if o.Tier >= vliw.TierSafe {
			modes = append(modes, o.Tier)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var snap []byte // one surviving snapshot, reused for the corruption probe
	for _, mode := range modes {
		for s := 0; s < snapshotSplits; s++ {
			at := 1 + rng.Int63n(ref.Stats.Beats-1)
			cfg := fmt.Sprintf("trace28/O2/tier=%s split@%d", mode, at)

			final, err := runOn(ctx, art, core.RunOptions{Tier: mode, MaxCycles: maxCycles, SnapshotAt: at})
			if err == nil && final.Paused {
				snap = final.Snapshot
				// Restore lands on whichever machine the pool hands out: the
				// snapshot must carry everything, not lean on leftovers.
				m := machinePool.Get().(*vliw.Machine)
				final, err = art.RunFromOn(ctx, m, snap, core.RunOptions{Tier: mode, MaxCycles: maxCycles})
				machinePool.Put(m)
			}
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return &Divergence{Stage: "snapshot", Config: cfg,
					Detail: fmt.Sprintf("reference ran clean but the split run, its restore or its resumed half failed: %v", err), Src: src}
			}
			// A split landing inside the final instruction completes
			// instead of pausing; either way the result must equal the
			// uninterrupted reference exactly.
			if detail := differ(final, ref); detail != "" {
				return &Divergence{Stage: "snapshot", Config: cfg, Detail: "split against uninterrupted: " + detail, Src: src}
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
