package fuzz

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// injectSrc is a straight-line pure-integer program in which every computed
// value feeds the printed checksum, so every register write is dynamically
// live. Branch-free on purpose: trace scheduling speculates operations above
// loop exits, and on the iteration that takes the exit those writes are
// architecturally dead by design — corrupting them is invisible, which is
// the guarantee speculation relies on, not a harness blind spot.
const injectSrc = `
var g [4]int = {3, 5, 11, 2}
func main() int {
	var a int = g[0]
	var b int = g[1] + g[2] * g[3]
	var s int = a * b + 2
	var t int = s * 7 - a
	var u int = (t % 13) + s * 3
	var v int = (u ^ t) + b
	print_i((s + t) & 255)
	print_i((u * 3 + v) & 255)
	return (s + t * 5 + u * 11 + v * 23) & 65535
}
`

// flip corrupts one register write the way a single-event upset would:
// branch-bank bits invert, everything else gets its low 16 bits flipped.
func flip(dst mach.PReg, val uint64) uint64 {
	if dst.Bank == mach.BankB {
		return val ^ 1
	}
	return val ^ 0xFFFF
}

// TestEverySingleWriteFaultDetected is the harness's proof obligation: on a
// machine with no interlocks, corrupting ANY single register write of a run
// must be observable — as a trap, a different exit value, or different
// output. A silently absorbed corruption would mean the differential oracle
// has a blind spot.
func TestEverySingleWriteFaultDetected(t *testing.T) {
	res, err := core.Compile(context.Background(), injectSrc, core.Options{
		Config: mach.Trace7(), Opt: opt.None(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clean run: count the register writes and record the golden result.
	clean := vliw.New(res.Image)
	var writes int
	clean.InjectWrite = func(beat int64, dst mach.PReg, val uint64) uint64 {
		writes++
		return val
	}
	wantV, wantOut, err := clean.Run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if writes == 0 {
		t.Fatal("clean run retired no register writes")
	}
	t.Logf("clean run: %d register writes, exit %d", writes, wantV)

	var undetected []int
	for target := 0; target < writes; target++ {
		m := vliw.New(res.Image)
		m.CycleLimit = 10_000_000 // corrupted control flow may spin
		n := 0
		m.InjectWrite = func(beat int64, dst mach.PReg, val uint64) uint64 {
			n++
			if n-1 == target {
				return flip(dst, val)
			}
			return val
		}
		gotV, gotOut, err := m.Run()
		if err == nil && gotV == wantV && gotOut == wantOut {
			undetected = append(undetected, target)
		}
	}
	if len(undetected) > 0 {
		t.Errorf("%d/%d single-write faults were silently absorbed: indices %v",
			len(undetected), writes, undetected)
	}
}
