package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/tsched"
)

// pressureSrc builds a program whose float register demand overflows the
// single F bank of a TRACE 7/200 only when wide() is inlined into main:
// every u value must stay live until w is available (each term is u*w), and
// inside the inlined body every t value is likewise pinned live until s is
// done, so the peak simultaneous liveness is roughly 2k registers. Compiled
// out of line, caller-save spills (§9 block register save/restore) break
// main's live ranges across the call and each half fits comfortably.
func pressureSrc(k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "var a [%d]float\n", 2*k+8)
	sb.WriteString("func wide(base int) float {\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "\tvar t%d float = a[base+%d]\n", i, i)
	}
	sb.WriteString("\tvar s float = t0")
	for i := 1; i < k; i++ {
		fmt.Fprintf(&sb, " + t%d", i)
	}
	sb.WriteString("\n\treturn t0*s")
	for i := 1; i < k; i++ {
		fmt.Fprintf(&sb, " + t%d*s", i)
	}
	sb.WriteString("\n}\n")
	sb.WriteString("func main() int {\n")
	fmt.Fprintf(&sb, "\tfor (var i int = 0; i < %d; i = i + 1) { a[i] = float(i %% 7) + 0.5 }\n", 2*k+8)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "\tvar u%d float = a[%d]\n", i, i)
	}
	fmt.Fprintf(&sb, "\tvar w float = wide(%d)\n", k)
	sb.WriteString("\tvar r float = u0*w")
	for i := 1; i < k; i++ {
		fmt.Fprintf(&sb, " + u%d*w", i)
	}
	sb.WriteString("\n\treturn int(r) & 65535\n}\n")
	return sb.String()
}

// TestPressureRetryDisablesInline is the §8.4 regression test: when a
// register bank overflows, the driver retries with halved unrolling, then
// with inlining off ("the compiler tunes its heuristics"), and the final
// compile must both succeed and still compute the right answer.
func TestPressureRetryDisablesInline(t *testing.T) {
	src := pressureSrc(16)
	opts := Options{
		Config: mach.Trace7(),
		// A generous inline threshold forces wide() into main so the
		// combined live ranges overflow the one F bank.
		Opt:     opt.Options{Inline: true, InlineThreshold: 1000, InlineGrowthCap: 4000, UnrollFactor: 8, TailDup: true},
		Profile: ProfileHeuristic,
	}
	res := diff(t, src, opts)

	if res.Attempts < 2 {
		t.Errorf("Attempts = %d, want >= 2 (pressure must force at least one retry)", res.Attempts)
	}
	if res.OptUsed.Inline {
		t.Errorf("OptUsed.Inline = true, want false (retry ladder must end with inlining off)")
	}
	if res.OptUsed.UnrollFactor != 1 {
		t.Errorf("OptUsed.UnrollFactor = %d, want 1 (halved 8 -> 4 -> 2 -> 1 before disabling inline)", res.OptUsed.UnrollFactor)
	}
	// 1 initial + 3 halvings + 1 inline-off = 5 attempts. Pinned: which
	// attempt succeeds depends on which bank the allocator reports full, so a
	// rewrite of the allocator that is meant to keep behaviour keeps this.
	if res.Attempts != 5 {
		t.Errorf("Attempts = %d, want 5 with the default ladder", res.Attempts)
	}
}

// TestPressureErrorSurfacesWhenUnfixable checks the other side: if the
// gentler settings are exhausted, the ErrPressure must reach the caller
// wrapped but identifiable with errors.As.
func TestPressureErrorSurfacesWhenUnfixable(t *testing.T) {
	// Inline already off and no unrolling: the driver has no gentler
	// setting to retry with, so the error must surface.
	src := pressureSrc(16)
	// Force pressure without inlining by shrinking the F bank directly.
	cfg := mach.Trace7()
	cfg.FRegsPerBank = 12
	opts := Options{
		Config:  cfg,
		Opt:     opt.Options{UnrollFactor: 1},
		Profile: ProfileHeuristic,
	}
	_, err := Compile(context.Background(), src, opts)
	if err == nil {
		t.Fatal("want pressure error with a 12-register F bank, got success")
	}
	var ep *tsched.ErrPressure
	if !errors.As(err, &ep) {
		t.Fatalf("error is not an ErrPressure: %v", err)
	}
}
