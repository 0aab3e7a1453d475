// Quickstart: compile a small MF program for the TRACE 28/200, run it on
// the beat-accurate simulator, and print the performance counters —
// everything through the public trace API.
package main

import (
	"context"
	"fmt"
	"log"

	trace "github.com/multiflow-repro/trace"
)

const src = `
// Sum of squares, with a printed witness.
func sq(x int) int { return x * x }

func main() int {
	var s int = 0
	for (var i int = 1; i <= 100; i = i + 1) {
		s = s + sq(i)
	}
	print_i(s)
	return s & 65535
}`

func main() {
	ctx := context.Background()
	art, err := trace.Build(ctx, src, trace.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The reference interpreter is the semantic ground truth.
	wantExit, wantOut, err := trace.Interpret(art.Result())
	if err != nil {
		log.Fatal(err)
	}

	run, err := art.Run(ctx, trace.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if run.Exit != wantExit || run.Output != wantOut {
		log.Fatalf("simulator diverged from the reference: %d vs %d", run.Exit, wantExit)
	}
	stats := run.Stats

	fmt.Printf("program output: %s", run.Output)
	fmt.Printf("exit value:     %d\n", run.Exit)
	fmt.Printf("machine:        %s\n", art.Image().Cfg.Name)
	fmt.Printf("beats:          %d (%.1f us of 1987 wall clock)\n",
		stats.Beats, float64(stats.Beats)*65/1000)
	fmt.Printf("operations:     %d (%.2f per instruction; the 28/200 peaks at 28)\n",
		stats.Ops, float64(stats.Ops)/float64(stats.Instrs))
	fmt.Printf("speculative:    %d non-trapping loads executed\n", stats.SpecLoads)

	fixed, packed, _ := art.Image().CodeSizes()
	fmt.Printf("code size:      %d bytes packed (mask-word format; %d fixed-width)\n",
		packed, fixed)
}
