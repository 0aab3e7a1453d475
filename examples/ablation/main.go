// Every knob of the machine/compiler co-design, ablated one at a time.
//
// The paper's argument is that its performance comes from a set of
// co-designed mechanisms: trace scheduling past basic blocks (§4),
// non-trapping speculative loads (§7), the multiway branch (§6.5.2), the
// bank-stall gamble (§6.4.4), and the compiler's data-routing policy on
// the partitioned register files (§5). This example turns each one off in
// isolation on the same kernel and prints what it was worth — the §10
// "quantifying the speedups" exercise as a library walkthrough.
package main

import (
	"context"
	"fmt"
	"log"

	trace "github.com/multiflow-repro/trace"
)

const src = `
var a [400]float
var b [400]float
var c [400]float

func main() int {
	for (var i int = 0; i < 400; i = i + 1) {
		a[i] = float(i)
		b[i] = float(400 - i)
	}
	var s float = 0.0
	for (var r int = 0; r < 6; r = r + 1) {
		for (var i int = 0; i < 400; i = i + 1) {
			c[i] = 2.5 * a[i] + b[i]
		}
		for (var i int = 0; i < 400; i = i + 1) {
			if (c[i] > 500.0) {
				s = s + c[i]
			} else {
				s = s - 1.0
			}
		}
	}
	return int(s / 100.0)
}`

func main() {
	scalar, _, _, err := trace.RunScalar(src, trace.Trace28())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scalar baseline: %d beats\n\n", scalar.Beats)

	ctx := context.Background()
	var fullBeats int64
	run := func(label string, o trace.Options) {
		art, err := trace.Build(ctx, src, o)
		if err != nil {
			log.Fatal(err)
		}
		res, err := art.Run(ctx, trace.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		if fullBeats == 0 {
			fullBeats = st.Beats
		}
		fmt.Printf("%-38s %8d beats  %5.2fx vs scalar  %+5.1f%% vs full\n",
			label, st.Beats, float64(scalar.Beats)/float64(st.Beats),
			100*(float64(st.Beats)/float64(fullBeats)-1))
	}

	run("full co-design", trace.Options{ProfileRun: true})
	run("no trace scheduling (blocks only)", trace.Options{ProfileRun: true, BasicBlockOnly: true})
	run("no speculative loads (trap-safe)", trace.Options{ProfileRun: true, DisableSpeculation: true})
	run("no multiway branch", trace.Options{ProfileRun: true, DisableMultiway: true})
	run("no bank-stall gamble (conservative)", trace.Options{ProfileRun: true, Conservative: true})

	noSpread := trace.Trace28()
	noSpread.NoSpread = true
	run("no board spreading", trace.Options{Config: noSpread, ProfileRun: true})

	run("heuristic profile (no profiling run)", trace.Options{})

	fmt.Println("\nTrace scheduling carries the headline, the §7 loads buy the next slice,")
	fmt.Println("and a real profile is worth having. The remaining mechanisms are")
	fmt.Println("coverage: their value shows on other workload shapes (multiway on")
	fmt.Println("branchy scanners, the dice on unknown-base arrays — see cmd/tracebench).")
}
