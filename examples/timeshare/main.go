// Running an operating system on the TRACE (§8).
//
// The paper spends Section 8 arguing that a VLIW can host a real
// multi-user OS: interrupts are cheap because the pipelines drain on
// their own (§8.2), a full context switch moves the large register state
// through the memory system in about 15 microseconds (§8.1), caches and
// TLBs are process-tagged so "no purging is necessary" (§6.1, §6.5), and
// the I/O processor cycle-steals memory banks without stopping the CPU
// (§8.3).
//
// This example exercises all four claims at once: a compute process is
// timesliced by a timer interrupt, context-switched away and back every
// quantum, while the IOP streams "disk" data into a buffer. It then
// re-runs the same schedule on a hypothetical machine without process
// tags, which must purge its caches at every switch.
package main

import (
	"context"
	"fmt"
	"log"

	trace "github.com/multiflow-repro/trace"
)

const src = `
var a [1024]float
var b [1024]float

func main() int {
	for (var i int = 0; i < 1024; i = i + 1) {
		a[i] = float(i)
		b[i] = 0.5
	}
	var s float = 0.0
	for (var r int = 0; r < 6; r = r + 1) {
		for (var i int = 0; i < 1024; i = i + 1) {
			b[i] = b[i] + 3.0 * a[i]
		}
		for (var i int = 0; i < 1024; i = i + 1) {
			s = s + b[i]
		}
	}
	return int(s / 1024.0)
}`

func main() {
	art, err := trace.Build(context.Background(), src, trace.Options{ProfileRun: true})
	if err != nil {
		log.Fatal(err)
	}

	// Undisturbed run: the process owns the machine.
	solo := art.Machine()
	wantV, _, err := solo.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("undisturbed:      %8d beats  (%d icache misses, %d TLB misses)\n",
		solo.Stats.Beats, solo.Stats.ICacheMiss, solo.Stats.TLBMisses)

	// Timesliced run: a 2000-beat quantum (130 us), two switches per
	// quantum (away to the neighbour, back to us), live I/O the whole time.
	run := func(label string, purge bool) {
		m := art.Machine()
		m.InterruptEvery = 2000
		m.InterruptBeats = 60
		m.FlushOnSwitch = purge
		m.OnInterrupt = func(mm *trace.Machine) {
			mm.ContextSwitch(1) // neighbour's quantum runs elsewhere
			mm.ContextSwitch(0) // ...and we are rescheduled
		}
		bufBase := (art.Image().DataTop + 4095) &^ 4095
		m.StartDMA(bufBase, 1<<16, 10e6) // 10 MB/s of "disk" traffic
		v, _, err := m.Run()
		if err != nil {
			log.Fatal(err)
		}
		if v != wantV {
			log.Fatalf("%s: timesharing changed the answer: %d vs %d", label, v, wantV)
		}
		usPerSwitch := float64(m.Stats.SwitchBeats) / float64(m.Stats.Switches) *
			trace.BeatNs / 1000
		fmt.Printf("%s %8d beats  (%d switches at %.1f us, %d icache misses, %d TLB misses, %d DMA refs)\n",
			label, m.Stats.Beats, m.Stats.Switches, usPerSwitch,
			m.Stats.ICacheMiss, m.Stats.TLBMisses, m.Stats.DMARefs)
	}
	run("tagged caches:   ", false)
	run("purge-on-switch: ", true)

	fmt.Println("\nWith process tags the working set survives every timeslice; the")
	fmt.Println("untagged machine re-faults its cache and TLB each quantum. The")
	fmt.Println("switch itself costs ~15 us in either case, exactly as §8.1 claims.")
}
