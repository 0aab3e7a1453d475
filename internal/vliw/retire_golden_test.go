package vliw_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/testmatrix"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// The retirement-trace golden pins the write pipeline's observable behaviour:
// which register writes retire, with what value, at which beat and in which
// order, for examples/*.mf and the experiment kernels on Trace 7/14/28. Every
// tier must produce the recorded trace — a rewrite of the pipeline reproduces
// the file byte for byte; regenerate only on a deliberate behaviour change:
//
//	go test ./internal/vliw -run RetirementTraceGolden -update

var allTiers = []vliw.Tier{vliw.TierChecked, vliw.TierFast, vliw.TierSafe, vliw.TierNative}

// armTier raises a fresh machine to tier under cert (any grade arms any
// tier: an unproven site simply keeps its guards).
func armTier(m *vliw.Machine, tier vliw.Tier, cert vliw.SafetyCertificate) error {
	switch tier {
	case vliw.TierFast:
		return m.UseCertificate(cert)
	case vliw.TierSafe:
		return m.UseSafeCertificate(cert)
	case vliw.TierNative:
		return m.UseNativeCertificate(cert)
	}
	return nil
}

// retireTrace runs the machine with a transparent InjectWrite probe and
// renders the run as one golden value: the outcome (or the fault text) plus
// a digest of every (beat, dst, val) the probe saw, in order.
func retireTrace(m *vliw.Machine) string {
	h := sha256.New()
	writes := 0
	m.InjectWrite = func(beat int64, dst mach.PReg, val uint64) uint64 {
		var rec [8 + 3 + 8]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(beat))
		rec[8], rec[9], rec[10] = byte(dst.Bank), dst.Board, dst.Idx
		binary.LittleEndian.PutUint64(rec[11:], val)
		h.Write(rec[:])
		writes++
		return val
	}
	exit, _, err := m.Run()
	outcome := fmt.Sprintf("exit=%d", exit)
	if err != nil {
		outcome = fmt.Sprintf("err=%q", err)
	}
	return fmt.Sprintf("%s beats=%d writes=%d hash=%x", outcome, m.Stats.Beats, writes, h.Sum(nil)[:16])
}

// noProofCert arms any tier on a hand-built image: it covers the image and
// proves no site, so every guard stays live.
type noProofCert struct{ img *isa.Image }

func (c noProofCert) CertifiedImage() *isa.Image        { return c.img }
func (noProofCert) SafeSite(int, mach.Unit, uint8) bool { return false }

// raceImage is a hand-built schedule whose two multiplies write i0.10 two
// beats apart (due at beats 4 and 6): legal when the clock runs free, but a
// stalled bank under word 2's load jumps the clock past both, so they retire
// in one drain. The checked tier must call that a write race; the others
// retire them in issue order and the second value reaches the exit code.
func raceImage(t *testing.T) *isa.Image {
	t.Helper()
	// A clone: the compiled image is shared, and this one is rewritten.
	res := testmatrix.MustCompile(t, `func main() int { return 0 }`, mach.Trace7(), testmatrix.O2.Opt)
	img := res.Image.CloneWithConfig(res.Image.Cfg)
	alu := mach.Unit{Kind: mach.UIALU}
	br := mach.Unit{Kind: mach.UBR}
	r := func(idx uint8) mach.PReg { return mach.PReg{Bank: mach.BankI, Idx: idx} }
	load := func(dst uint8, ea int32) mach.Op {
		return mach.Op{Kind: ir.Load, Type: ir.I32, Dst: r(dst), A: mach.ImmArg(ea), B: mach.ImmArg(0)}
	}
	mul := func(a, b int32) mach.Op {
		return mach.Op{Kind: ir.Mul, Type: ir.I32, Dst: r(10), A: mach.ImmArg(a), B: mach.ImmArg(b)}
	}
	word := func(ops ...mach.SlotOp) mach.Instr { return mach.Instr{Slots: ops} }
	img.Instrs = []mach.Instr{
		// The load warms the data TLB page on another bank than word 2's.
		word(mach.SlotOp{Unit: alu, Op: load(12, ir.GlobalBase+8)},
			mach.SlotOp{Unit: mach.Unit{Kind: mach.UIALU, Idx: 1}, Op: mul(3, 5)}),
		word(mach.SlotOp{Unit: alu, Op: mul(7, 11)}),
		word(mach.SlotOp{Unit: alu, Op: load(11, ir.GlobalBase)}),
		word(mach.SlotOp{Unit: alu, Op: mach.Op{Kind: ir.Add, Type: ir.I32, Dst: mach.RegRVI,
			A: mach.Arg{Reg: r(10)}, B: mach.ImmArg(0)}}),
		word(mach.SlotOp{Unit: br, Op: mach.Op{Kind: mach.OpHalt}}),
	}
	img.Words, img.Packed, img.Entry = nil, nil, 0
	return img
}

func TestRetirementTraceGolden(t *testing.T) {
	var got testmatrix.Lines
	for _, p := range testmatrix.Programs(t, testmatrix.Examples, testmatrix.Kernels) {
		for _, c := range testmatrix.Machines {
			key := p.Key() + "/" + c.Name
			img := testmatrix.MustCompile(t, p.Src, c.Cfg, testmatrix.O2.Opt).Image
			cert, err := safecheck.Certify(img)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var checked string
			for _, tier := range allTiers {
				m := vliw.New(img)
				if err := armTier(m, tier, cert); err != nil {
					t.Fatalf("%s: arming %v: %v", key, tier, err)
				}
				trace := retireTrace(m)
				if tier == vliw.TierChecked {
					checked = trace
					got.Add(key, trace)
				} else if trace != checked {
					t.Errorf("%s: %v tier retires differently from checked:\n  checked %s\n  %-7v %s", key, tier, checked, tier, trace)
				}
			}
		}
	}

	// The post-stall drain: free-running, then with word 2's bank stalled.
	img := raceImage(t)
	for _, stall := range []int64{0, 200} {
		for _, tier := range allTiers {
			m := vliw.New(img)
			if err := armTier(m, tier, noProofCert{img}); err != nil {
				t.Fatal(err)
			}
			if stall > 0 {
				m.StallBank(ir.GlobalBase, stall)
			}
			got.Add(fmt.Sprintf("race/stall%d/%v", stall, tier), retireTrace(m))
		}
	}

	testmatrix.CheckGolden(t, "testdata/retire.golden", &got, nil)
}
