package vliw_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/vliw"
	"github.com/multiflow-repro/trace/internal/xp"
)

// The retirement-trace golden pins the write pipeline's observable behaviour:
// which register writes retire, with what value, at which beat and in which
// order, for examples/*.mf and the experiment kernels on Trace 7/14/28. Every
// tier must produce the recorded trace — a rewrite of the pipeline reproduces
// the file byte for byte; regenerate only on a deliberate behaviour change:
//
//	go test ./internal/vliw -run RetirementTraceGolden -update
var update = flag.Bool("update", false, "rewrite testdata/retire.golden from this build")

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
	res, err := core.Compile(context.Background(), `func main() int { return 0 }`,
		core.Options{Config: mach.Trace7(), Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
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
	type program struct{ name, src string }
	var progs []program
	paths, err := filepath.Glob("../../examples/*.mf")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{"examples/" + strings.TrimSuffix(filepath.Base(p), ".mf"), string(src)})
	}
	for _, w := range xp.AllWorkloads() {
		progs = append(progs, program{"xp/" + w.Name, w.Src})
	}
	configs := []struct {
		name string
		cfg  mach.Config
	}{{"Trace7", mach.Trace7()}, {"Trace14", mach.Trace14()}, {"Trace28", mach.Trace28()}}

	got := map[string]string{}
	var keys []string
	record := func(key, val string) {
		got[key] = val
		keys = append(keys, key)
	}
	for _, p := range progs {
		for _, c := range configs {
			key := p.name + "/" + c.name
			res, err := core.Compile(context.Background(), p.src, core.Options{Config: c.cfg, Opt: opt.Default()})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			cert, err := safecheck.Certify(res.Image)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			for _, tier := range allTiers {
				m := vliw.New(res.Image)
				if err := armTier(m, tier, cert); err != nil {
					t.Fatalf("%s: arming %v: %v", key, tier, err)
				}
				trace := retireTrace(m)
				if tier == vliw.TierChecked {
					record(key, trace)
				} else if trace != got[key] {
					t.Errorf("%s: %v tier retires differently from checked:\n  checked %s\n  %-7v %s", key, tier, got[key], tier, trace)
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
			record(fmt.Sprintf("race/stall%d/%v", stall, tier), retireTrace(m))
		}
	}

	checkGolden(t, "retire.golden", got, keys)
}

// checkGolden compares "key value" lines against testdata/<file>, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file string, got map[string]string, keys []string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		var b bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d traces)", path, len(keys))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), " ")
		want[k] = v
	}
	if len(want) != len(keys) {
		t.Errorf("%s has %d traces, this build produced %d", path, len(want), len(keys))
	}
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: not in %s", k, path)
		} else if w != got[k] {
			t.Errorf("%s:\n  want %s\n  got  %s", k, w, got[k])
		}
	}
}
