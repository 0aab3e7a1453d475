// Code size (§9): the paper's most-debated numbers. This example compiles
// one program at several unroll factors and shows the three §9 components:
// the no-op savings of the §6.5.1 mask-word memory format, the growth from
// unrolling and compensation code, and the ratio against the VAX-like
// density model.
package main

import (
	"context"
	"fmt"
	"log"

	trace "github.com/multiflow-repro/trace"
)

const src = `
var x [256]float
var y [256]float

func main() int {
	for (var i int = 0; i < 256; i = i + 1) { x[i] = float(i); y[i] = 1.0 }
	var a float = 2.5
	for (var r int = 0; r < 8; r = r + 1) {
		for (var i int = 0; i < 256; i = i + 1) { y[i] = y[i] + a * x[i] }
	}
	var s float = 0.0
	for (var i int = 0; i < 256; i = i + 1) { s = s + y[i] }
	return int(s) & 65535
}`

func main() {
	vax, err := trace.VAXBytes(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VAX-model size: %d bytes (the §9 density yardstick)\n\n", vax)
	fmt.Printf("%-22s %8s %8s %9s %9s %8s\n",
		"optimization", "beats", "packed", "vs VAX", "fixed", "saved")

	levels := []struct {
		lvl   trace.OptLevel
		label string
	}{
		{trace.OptNone, "no unroll"},
		{trace.OptLight, "inline + unroll 4"},
		{trace.OptFull, "inline + unroll 8"},
	}
	ctx := context.Background()
	for _, l := range levels {
		label := l.label
		art, err := trace.Build(ctx, src, trace.Options{OptLevel: l.lvl, ProfileRun: true})
		if err != nil {
			log.Fatal(err)
		}
		res, err := art.Run(ctx, trace.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fixed, packed, _ := art.Image().CodeSizes()
		fmt.Printf("%-22s %8d %7dB %8.1fx %8dB %7.0f%%\n",
			label, st.Beats, packed, float64(packed)/float64(vax), fixed,
			100*(1-float64(packed)/float64(fixed)))
	}

	fmt.Println("\nFaster code is bigger code: unrolling buys beats and pays bytes.")
	fmt.Println("The mask-word format eliminates ~90% of the fixed 1024-bit word —")
	fmt.Println("the paper's \"very satisfactory result\" (§3, §9).")
}
