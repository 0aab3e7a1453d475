// Package prof gives the command-line tools their -cpuprofile / -memprofile
// flags, so a cold compile, certify or run can be profiled straight from the
// CLI with `go tool pprof`, without a test harness around it.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations of one command.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to the default flag set.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the whole command to this file")
	flag.StringVar(&f.mem, "memprofile", "", "write a heap profile, taken when the command finishes, to this file")
	return f
}

// Start begins CPU profiling if asked to and returns the function that
// finishes both profiles; call it once, when the work is done. With neither
// flag given both are no-ops.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		if cpuFile, err = os.Create(f.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.mem == "" {
			return
		}
		out, err := os.Create(f.mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		defer out.Close()
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(out); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}, nil
}
