// Systems code on a VLIW (§8.4): "grep doesn't know it's stretching the
// frontiers of technology, it just greps along at a terrific rate."
//
// This example runs a branchy token scanner — small basic blocks, an
// unpredictable classification chain, many calls — and shows what trace
// scheduling does with it: modest but real speedups, multiway branches
// packing several tests per instruction, and speculative loads.
package main

import (
	"context"
	"fmt"
	"log"

	trace "github.com/multiflow-repro/trace"
)

const src = `
var text [512]int
var counts [8]int

func kind(c int) int {
	if (c < 16) { return 0 }
	if (c < 32) {
		if (c % 2 == 0) { return 1 }
		return 2
	}
	if (c < 96) { return 3 }
	if (c % 3 == 0) { return 4 }
	if (c % 5 == 0) { return 5 }
	return 6
}

func main() int {
	for (var i int = 0; i < 512; i = i + 1) { text[i] = (i * 61 + 17) % 128 }
	for (var r int = 0; r < 8; r = r + 1) {
		for (var i int = 0; i < 512; i = i + 1) {
			var k int = kind(text[i])
			counts[k] = counts[k] + 1
		}
	}
	for (var i int = 0; i < 7; i = i + 1) { print_i(counts[i]) }
	return counts[3]
}`

func main() {
	scalar, _, _, err := trace.RunScalar(src, trace.Trace28())
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
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
		fmt.Printf("%-34s %10d beats  %5.2fx vs scalar   %d branch ops over %d instructions\n",
			label, st.Beats, float64(scalar.Beats)/float64(st.Beats),
			st.Branches, st.Instrs)
	}

	fmt.Printf("scalar baseline: %d beats\n\n", scalar.Beats)
	run("28/200, full trace scheduling", trace.Options{ProfileRun: true})
	run("28/200, single branch/instr", trace.Options{ProfileRun: true, DisableMultiway: true})
	run("28/200, no speculative loads", trace.Options{ProfileRun: true, DisableSpeculation: true})

	fmt.Println("\nThe paper's observation holds: pointers and small basic blocks are")
	fmt.Println("handled; the multiway branch and speculative loads both contribute.")
}
