// Matmul: the paper's core claim on a numeric kernel. Compiles a 16x16
// matrix multiply for every machine configuration and both baselines, and
// prints the speedup table the paper's §1 promises ("ten to thirty times"
// was the marketing; the measured shape here is what an honest simulator
// shows: the VLIW beats the scalar machine several-fold and beats the
// scoreboard machine, which is capped by basic-block lookahead).
package main

import (
	"context"
	"fmt"
	"log"

	trace "github.com/multiflow-repro/trace"
)

const src = `
var a [256]float
var b [256]float
var c [256]float

func main() int {
	for (var i int = 0; i < 256; i = i + 1) {
		a[i] = float(i % 13)
		b[i] = float(i % 7)
	}
	for (var i int = 0; i < 16; i = i + 1) {
		for (var j int = 0; j < 16; j = j + 1) {
			var s float = 0.0
			for (var k int = 0; k < 16; k = k + 1) {
				s = s + a[i*16+k] * b[k*16+j]
			}
			c[i*16+j] = s
		}
	}
	print_f(c[35])
	return int(c[255])
}`

func main() {
	scalar, _, _, err := trace.RunScalar(src, trace.Trace28())
	if err != nil {
		log.Fatal(err)
	}
	scoreb, _, _, err := trace.RunScoreboard(src, trace.Trace28())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %12s %9s\n", "machine", "beats", "speedup")
	fmt.Printf("%-28s %12d %9s\n", "scalar (same technology)", scalar.Beats, "1.0x")
	fmt.Printf("%-28s %12d %8.1fx   <- the Acosta 2-3x ceiling (§3)\n",
		"scoreboard (block lookahead)", scoreb.Beats,
		float64(scalar.Beats)/float64(scoreb.Beats))

	ctx := context.Background()
	for _, cfg := range []trace.Config{trace.Trace7(), trace.Trace14(), trace.Trace28()} {
		art, err := trace.Build(ctx, src, trace.Options{Config: cfg, ProfileRun: true})
		if err != nil {
			log.Fatal(err)
		}
		res, err := art.Run(ctx, trace.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fmt.Printf("%-28s %12d %8.1fx\n", cfg.Name, st.Beats,
			float64(scalar.Beats)/float64(st.Beats))
	}
}
