package vliw

import (
	"encoding/binary"
	"testing"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
)

// A register holds its bank's canonical bits — an integer its low word, a
// branch-bank bit 0 or 1 — whatever the retire ring delivers. Inside a region
// the producers are canonical by construction; these cases send wide values
// through the ring, the way a fault-injection hook or a hand-edited snapshot
// can, and require both tiers to read back what the unwidened run reads.

// widened is val as a wider value that canonicalises to the same register
// contents: junk above an integer's low word, a set bit moved out of it.
func widened(dst mach.PReg, val uint64) uint64 {
	switch dst.Bank {
	case mach.BankI:
		return val | 0xdead_beef<<32
	case mach.BankB:
		return val << 32
	}
	return val
}

// onBothTiers runs the image on a checked and on a native machine (every guard
// live, the regions built by an earlier run) after set-up, requires the same
// outcome and context state of the two, and returns the checked machine.
func onBothTiers(t *testing.T, img *isa.Image, what string, setup func(*Machine)) *Machine {
	t.Helper()
	checked, native := New(img), New(img)
	arm := func() {
		if err := native.UseNativeCertificate(noProof{img}); err != nil {
			t.Fatal(err)
		}
	}
	arm()
	if _, _, err := native.Run(); err != nil {
		t.Fatal(err)
	}
	native.Reset(img)
	arm()
	var exits [2]int32
	var outs [2]string
	var errs [2]error
	for i, m := range []*Machine{checked, native} {
		setup(m)
		exits[i], outs[i], errs[i] = m.Run()
	}
	if exits[0] != exits[1] || outs[0] != outs[1] || (errs[0] == nil) != (errs[1] == nil) || checked.Stats != native.Stats {
		t.Fatalf("%s: checked (%d, %q, %v) vs native (%d, %q, %v)", what, exits[0], outs[0], errs[0], exits[1], outs[1], errs[1])
	}
	if d := DiffState(checked.Contexts()[0], native.Contexts()[0]); d != "" {
		t.Fatalf("%s: checked vs native: %s", what, d)
	}
	return checked
}

func TestInjectedWideBitsAreCanonicalised(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	plain := onBothTiers(t, img, "plain run", func(*Machine) {})
	var widenedI, widenedB int
	wide := onBothTiers(t, img, "every write widened", func(m *Machine) {
		m.InjectWrite = func(_ int64, dst mach.PReg, val uint64) uint64 {
			if w := widened(dst, val); w != val {
				if dst.Bank == mach.BankI {
					widenedI++
				} else {
					widenedB++
				}
				return w
			}
			return val
		}
	})
	if widenedI == 0 || widenedB == 0 {
		t.Fatalf("widened %d integer and %d branch-bank writes; the test wants both", widenedI, widenedB)
	}
	if plain.Stats != wide.Stats || plain.Output() != wide.Output() {
		t.Fatalf("widened writes changed the run: %q vs %q", plain.Output(), wide.Output())
	}
	if d := DiffState(plain.Contexts()[0], wide.Contexts()[0]); d != "" {
		t.Fatalf("widened writes changed the final state: %s", d)
	}
}

func TestRestoredWideWritesAreCanonicalised(t *testing.T) {
	img := build(t, snapSrc, mach.Trace7())
	for _, bank := range []mach.Bank{mach.BankI, mach.BankB} {
		snap := snapshotAt(t, img, 50, func(c *Context) bool {
			for _, w := range c.inFlight() {
				if w.dst.Bank == bank && w.val != 0 {
					return true
				}
			}
			return false
		})
		wide := append([]byte(nil), snap...)
		off, n := sectionBody(t, wide, secPending)
		for e := off + 4; e < off+n; e += pendingWireLen {
			dst := mach.PReg{Bank: mach.Bank(wide[e+8]), Board: wide[e+9], Idx: wide[e+10]}
			val := binary.LittleEndian.Uint64(wide[e+12:])
			binary.LittleEndian.PutUint64(wide[e+12:], widened(dst, val))
		}
		restamp(wide)

		core, _ := sectionBody(t, snap, secCore)
		beat := int64(binary.LittleEndian.Uint64(snap[core+9:]))
		// Once a few beats on, when the writes have just landed, and once to the end.
		for _, stop := range []int64{beat + 12, 0} {
			resume := func(from []byte) func(*Machine) {
				return func(m *Machine) {
					if err := m.Contexts()[0].Restore(from); err != nil {
						t.Fatal(err)
					}
					m.StopBeat = stop
				}
			}
			a := onBothTiers(t, img, "resumed as taken", resume(snap))
			b := onBothTiers(t, img, "resumed with wide writes", resume(wide))
			if stop > 0 && a.Contexts()[0].Halted() {
				t.Fatalf("bank %v: the run ended before beat %d", bank, stop)
			}
			if d := DiffState(a.Contexts()[0], b.Contexts()[0]); d != "" {
				t.Fatalf("bank %v, to beat %d: a wide write in flight changed the run: %s", bank, stop, d)
			}
		}
	}
}
