package vliw_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// The snapshot golden pins the version-1 encoding of a context byte for byte:
// the SHA-256 of Context.Snapshot() at three pauses of examples/*.mf and the
// experiment kernels on Trace 7 and Trace 28, taken on the checked and on the
// native tier. How a context keeps its registers is its own business; what it
// serializes is not — a change of representation reproduces the file as it is:
//
//	go test ./internal/vliw -run SnapshotGolden -update

// pendingWrites is the number of in-flight writes a snapshot carries: the
// count that opens section 6 of the payload behind the 82-byte header.
func pendingWrites(t *testing.T, snap []byte) int {
	t.Helper()
	for off := 82; off+9 <= len(snap); {
		n := int(binary.LittleEndian.Uint64(snap[off+1:]))
		if snap[off] == 6 {
			return int(binary.LittleEndian.Uint32(snap[off+9:]))
		}
		off += 9 + n
	}
	t.Fatal("snapshot has no pending-writes section")
	return 0
}

func TestSnapshotGolden(t *testing.T) {
	tiers := []vliw.Tier{vliw.TierChecked, vliw.TierNative}
	var got testmatrix.Lines
	for _, p := range testmatrix.Programs(t, testmatrix.Examples, testmatrix.Kernels) {
		for _, c := range []testmatrix.Machine{testmatrix.Trace7, testmatrix.Trace28} {
			res := testmatrix.MustCompile(t, p.Src, c.Cfg, testmatrix.O2.Opt)
			cert, err := safecheck.Certify(res.Image)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Key(), c.Name, err)
			}
			// One machine per tier, reused through Reset: the native one has its
			// regions built by the time the later pauses fall.
			machines := map[vliw.Tier]*vliw.Machine{}
			arm := func(tier vliw.Tier) *vliw.Machine {
				m := machines[tier]
				if m == nil {
					m = vliw.New(res.Image)
					machines[tier] = m
				} else {
					m.Reset(res.Image)
				}
				if err := armTier(m, tier, cert); err != nil {
					t.Fatal(err)
				}
				return m
			}
			wantExit, wantOut, err := arm(vliw.TierChecked).Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Key(), c.Name, err)
			}
			wantStats := machines[vliw.TierChecked].Stats
			total := wantStats.Beats

			// The last pause is moved on, a beat at a time, to a boundary with a
			// write in flight.
			last := total - total/3
			for ; ; last++ {
				m := arm(vliw.TierChecked)
				m.StopBeat = last
				if _, _, err := m.Run(); err == nil {
					t.Fatalf("%s/%s: no boundary from beat %d on has a write in flight", p.Key(), c.Name, total-total/3)
				}
				snap, err := m.Contexts()[0].Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if pendingWrites(t, snap) > 0 {
					break
				}
			}
			for _, stop := range []int64{2, total / 3, last} {
				key := fmt.Sprintf("%s/%s@%d", p.Key(), c.Name, stop)
				var first []byte
				for _, tier := range tiers {
					m := arm(tier)
					m.StopBeat = stop
					_, _, err := m.Run()
					var paused *vliw.ErrStopped
					if !errors.As(err, &paused) {
						t.Fatalf("%s: %v tier did not pause: %v", key, tier, err)
					}
					snap, err := m.Contexts()[0].Snapshot()
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if first == nil {
						first = snap
						n := pendingWrites(t, snap)
						got.Add(key, fmt.Sprintf("word=%d beat=%d inflight=%d bytes=%d sha256=%x", paused.PC, paused.Beat, n, len(snap), sha256.Sum256(snap)))
					} else if !bytes.Equal(snap, first) {
						t.Errorf("%s: %v tier serializes differently from checked", key, tier)
					}

					// From the pause with a write in flight: Restore → Snapshot
					// gives the bytes back, and the run goes on from them to the
					// uninterrupted run's end.
					if stop != last {
						continue
					}
					r := arm(tier)
					if err := r.Contexts()[0].Restore(snap); err != nil {
						t.Fatalf("%s: %v tier: %v", key, tier, err)
					}
					again, err := r.Contexts()[0].Snapshot()
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if !bytes.Equal(again, snap) {
						t.Errorf("%s: %v tier: Restore then Snapshot changes the bytes", key, tier)
					}
					exit, out, err := r.Run()
					if err != nil || exit != wantExit || out != wantOut || r.Stats != wantStats {
						t.Errorf("%s: %v tier resumed to (%d, %q, %v), stats equal %v; want (%d, %q)",
							key, tier, exit, out, err, r.Stats == wantStats, wantExit, wantOut)
					}
				}
			}
		}
	}
	testmatrix.CheckGolden(t, "testdata/snapshot.golden", &got, nil)
}
