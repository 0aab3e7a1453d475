package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// runChecked executes a compiled image on a fresh machine with every dynamic
// check live.
func runChecked(res *Result) (int32, string, *vliw.Stats, error) {
	m := vliw.New(res.Image)
	v, out, err := m.Run()
	return v, out, &m.Stats, err
}

// tierOf names the tier the fast/checked test matrices iterate over.
func tierOf(fast bool) vliw.Tier {
	if fast {
		return vliw.TierFast
	}
	return vliw.TierChecked
}

// diff compiles src under opts, runs both the reference interpreter and the
// simulator, and requires identical results.
func diff(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := Compile(context.Background(), src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	wantV, wantOut, err := Interpret(res)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	gotV, gotOut, _, err := runChecked(res)
	if err != nil {
		t.Fatalf("simulate [%s, unroll=%d]: %v", opts.Config.Name, opts.Opt.UnrollFactor, err)
	}
	if gotV != wantV || gotOut != wantOut {
		t.Fatalf("divergence [%s]: exit %d vs %d, out %q vs %q",
			opts.Config.Name, gotV, wantV, gotOut, wantOut)
	}
	return res
}

func TestHelloReturn(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `func main() int { return 42 }`, opts)
}

func TestPrint(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
func main() int {
	print_i(7)
	print_f(2.5)
	return 1
}`, opts)
}

func TestArithChain(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
func main() int {
	var a int = 3
	var b int = a * 14 + 2
	var c int = (b << 2) - a
	return c ^ 12345
}`, opts)
}

func TestLoopSimple(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
func main() int {
	var s int = 0
	for (var i int = 0; i < 10; i = i + 1) { s = s + i }
	return s
}`, opts)
}

func TestBranchy(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
func main() int {
	var s int = 0
	for (var i int = 0; i < 20; i = i + 1) {
		if (i % 3 == 0) { s = s + i } else { if (i % 3 == 1) { s = s - 1 } else { s = s * 2 } }
	}
	return s
}`, opts)
}

func TestMemory(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
var a [32]float
var n int = 32
func main() int {
	for (var i int = 0; i < n; i = i + 1) { a[i] = float(i) * 1.5 }
	var s float = 0.0
	for (var i int = 0; i < n; i = i + 1) { s = s + a[i] }
	print_f(s)
	return int(s)
}`, opts)
}

func TestCalls(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
func add(a int, b int) int { return a + b }
func fib(n int) int {
	if (n < 2) { return n }
	return add(fib(n-1), fib(n-2))
}
func main() int { return fib(12) }`, opts)
}

func TestFloatsAndCalls(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
func poly(x float) float { return 2.0 * x * x - 3.0 * x + 1.0 }
func main() int {
	var s float = 0.0
	for (var i int = 0; i < 10; i = i + 1) { s = s + poly(float(i)) }
	print_f(s)
	return int(s)
}`, opts)
}

func TestSelectAndShortCircuit(t *testing.T) {
	opts := DefaultOptions()
	opts.Config = mach.Trace7()
	opts.Opt = opt.None()
	diff(t, `
func main() int {
	var s int = 0
	for (var i int = 0; i < 16; i = i + 1) {
		s = s + (i % 2 == 0 && i > 4 ? i : -1)
	}
	return s
}`, opts)
}

const daxpySrc = `
var x [64]float
var y [64]float
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { x[i] = float(i); y[i] = 1.0 }
	var a float = 2.0
	for (var i int = 0; i < 64; i = i + 1) { y[i] = y[i] + a * x[i] }
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + y[i] }
	print_f(s)
	return 0
}`

// TestMatrix runs a suite of programs across machine configs and
// optimization levels, differentially against the interpreter.
func TestMatrix(t *testing.T) {
	srcs := map[string]string{
		"daxpy": daxpySrc,
		"matmul": `
var a [64]float
var b [64]float
var c [64]float
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { a[i] = float(i % 7); b[i] = float(i % 5) }
	for (var i int = 0; i < 8; i = i + 1) {
		for (var j int = 0; j < 8; j = j + 1) {
			var s float = 0.0
			for (var k int = 0; k < 8; k = k + 1) { s = s + a[i*8+k] * b[k*8+j] }
			c[i*8+j] = s
		}
	}
	print_f(c[27])
	return int(c[9])
}`,
		"collatz": `
func main() int {
	var total int = 0
	for (var n int = 1; n < 30; n = n + 1) {
		var x int = n
		var steps int = 0
		while (x != 1) {
			if (x % 2 == 0) { x = x / 2 } else { x = 3 * x + 1 }
			steps = steps + 1
		}
		total = total + steps
	}
	return total
}`,
		"sort": `
var a [32]int
func main() int {
	for (var i int = 0; i < 32; i = i + 1) { a[i] = (i * 37 + 11) % 64 }
	for (var i int = 0; i < 31; i = i + 1) {
		for (var j int = 0; j < 31 - i; j = j + 1) {
			if (a[j] > a[j+1]) {
				var tmp int = a[j]
				a[j] = a[j+1]
				a[j+1] = tmp
			}
		}
	}
	return a[0] + a[15] * 100 + a[31] * 10000
}`,
		"strings": `
var text [64]int
var hist [8]int
func classify(c int) int {
	if (c < 10) { return 0 }
	if (c < 20) { return 1 }
	if (c < 40) { return 2 }
	return 3
}
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { text[i] = (i * 13) % 50 }
	for (var i int = 0; i < 64; i = i + 1) {
		var k int = classify(text[i])
		hist[k] = hist[k] + 1
	}
	return hist[0] + hist[1]*100 + hist[2]*10000 + hist[3]*1000000
}`,
	}
	cfgs := []mach.Config{mach.Trace7(), mach.Trace14(), mach.Trace28()}
	levels := []opt.Options{opt.None(), {Inline: true, UnrollFactor: 4}, opt.Default()}
	for name, src := range srcs {
		for _, cfg := range cfgs {
			for li, lvl := range levels {
				t.Run(fmt.Sprintf("%s/%s/O%d", name, cfg.Name, li), func(t *testing.T) {
					opts := Options{Config: cfg, Opt: lvl}
					diff(t, src, opts)
				})
			}
		}
	}
}

func TestProfileGuided(t *testing.T) {
	opts := DefaultOptions()
	opts.ProfileRun = true
	diff(t, daxpySrc, opts)
}

func TestIdealMachine(t *testing.T) {
	opts := Options{Config: mach.IdealConfig(4), Opt: opt.Default()}
	diff(t, daxpySrc, opts)
}

// TestDisassembleReadable: the disassembly of a compiled function names its
// operations and carries address prefixes; out-of-range addresses are
// reported rather than panicking.
func TestDisassembleReadable(t *testing.T) {
	res, err := Compile(context.Background(), `
var a [8]float
func main() int {
	var s float = 0.0
	for (var i int = 0; i < 8; i = i + 1) {
		a[i] = float(i) * 2.0
		s = s + a[i]
	}
	return int(s)
}`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
	if got := img.Disassemble(-1); !strings.Contains(got, "out of range") {
		t.Errorf("bad out-of-range text: %q", got)
	}
	var all strings.Builder
	for i := range img.Instrs {
		all.WriteString(img.Disassemble(i))
		all.WriteString("\n")
	}
	text := strings.ToLower(all.String())
	// the hot loop must show the machine doing real work: float multiplies,
	// memory traffic, and a conditional branch somewhere in the listing
	for _, want := range []string{"fmul", "load", "store", "brt"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly mentions no %q:\n%s", want, text)
		}
	}
	lines := strings.Split(strings.TrimSuffix(all.String(), "\n"), "\n")
	for i, ln := range lines {
		if !strings.Contains(ln, fmt.Sprintf("%6d:", i)) {
			t.Errorf("line %d lacks address prefix: %q", i, ln)
		}
	}
}

// TestNoSpreadDifferential: the routing-ablation knob must not change
// semantics, only the schedule.
func TestNoSpreadDifferential(t *testing.T) {
	cfg := mach.Trace28()
	cfg.NoSpread = true
	diff(t, `
var a [128]float
var b [128]float
func main() int {
	for (var i int = 0; i < 128; i = i + 1) { a[i] = float(i); b[i] = 2.0 }
	var s float = 0.0
	for (var i int = 0; i < 128; i = i + 1) { s = s + a[i] * b[i] }
	return int(s) & 65535
}`, Options{Config: cfg, Opt: opt.Default()})
}

// TestImageMemoryContract: RequiredMem is honored by InitMem, and
// undersized memories are rejected cleanly.
func TestImageMemoryContract(t *testing.T) {
	res, err := Compile(context.Background(), `
var big [4096]float
var tag int = 77
func main() int {
	return tag
}`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
	need := img.RequiredMem()
	if need < img.DataTop {
		t.Fatalf("RequiredMem %d below DataTop %d", need, img.DataTop)
	}
	mem := make([]byte, need)
	if err := img.InitMem(mem); err != nil {
		t.Fatalf("InitMem at exactly RequiredMem: %v", err)
	}
	// the initialized global is where the linker said it is
	addr, ok := img.GlobalAddr["tag"]
	if !ok {
		t.Fatal("global tag not in layout")
	}
	got := int32(mem[addr]) | int32(mem[addr+1])<<8 | int32(mem[addr+2])<<16 | int32(mem[addr+3])<<24
	if got != 77 {
		t.Errorf("initial value %d at %d, want 77", got, addr)
	}
	if err := img.InitMem(make([]byte, img.DataTop/2)); err == nil {
		t.Error("undersized memory accepted")
	}
}

// TestCodeSizesConsistent: packed size never exceeds the fixed format, and
// both cover every emitted instruction.
func TestCodeSizesConsistent(t *testing.T) {
	for _, src := range []string{
		`func main() int { return 1 }`,
		`func main() int {
	var s int = 0
	for (var i int = 0; i < 50; i = i + 1) { s = s + i * i }
	return s
}`,
	} {
		res, err := Compile(context.Background(), src, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fixed, packed, ops := res.Image.CodeSizes()
		if packed > fixed {
			t.Errorf("packed %d exceeds fixed %d", packed, fixed)
		}
		if ops <= 0 || fixed <= 0 {
			t.Errorf("degenerate sizes: fixed %d ops %d", fixed, ops)
		}
		wordBytes := int64(len(res.Image.Instrs)) * int64(res.Image.Cfg.Pairs) * 8 * 4
		if fixed != wordBytes {
			t.Errorf("fixed %d != instrs*pairs*8 words (%d)", fixed, wordBytes)
		}
	}
}

// TestDeadFaultIsDeleted pins the dead-fault policy (DESIGN.md, "Faults of
// dead operations"): a divide nothing reads is deleted with its fault at
// every level, so the compiled program prints and exits where the reference
// interpreter, which runs the unoptimized IR op by op, traps.
func TestDeadFaultIsDeleted(t *testing.T) {
	const src = `var g [4]int

func main() int {
	var z int = g[1]
	var x int = 7 / z
	print_i(3)
	return 0
}`
	for level := 0; level <= 2; level++ {
		opts := DefaultOptions()
		o, err := opt.Level(level)
		if err != nil {
			t.Fatal(err)
		}
		opts.Opt = o
		res, err := Compile(context.Background(), src, opts)
		if err != nil {
			t.Fatalf("O%d: compile: %v", level, err)
		}
		if _, _, err := Interpret(res); err == nil || !strings.Contains(err.Error(), "divide by zero (line 5)") {
			t.Errorf("O%d: the reference interpreter reports %v, want the divide by zero of line 5", level, err)
		}
		v, out, _, err := runChecked(res)
		if err != nil || v != 0 || out != "3\n" {
			t.Errorf("O%d: the machine exits %d, prints %q, err %v; want 0, \"3\\n\", nil", level, v, out, err)
		}
	}
}
