package trace

import (
	"context"
	"strings"
	"testing"
)

const demo = `
var v [64]float
func main() int {
	for (var i int = 0; i < 64; i = i + 1) { v[i] = float(i) * 0.5 }
	var s float = 0.0
	for (var i int = 0; i < 64; i = i + 1) { s = s + v[i] }
	print_f(s)
	return int(s)
}`

// runChecked executes the artifact with every dynamic check live.
func runChecked(art *Artifact) (int32, string, Stats, error) {
	res, err := art.Run(context.Background(), RunOptions{})
	return res.Exit, res.Output, res.Stats, err
}

func TestPublicAPIRoundTrip(t *testing.T) {
	for _, cfg := range []Config{Trace7(), Trace14(), Trace28(), Ideal(2)} {
		res, err := Build(context.Background(), demo, Options{Config: cfg, ProfileRun: true})
		if err != nil {
			t.Fatalf("[%s] compile: %v", cfg.Name, err)
		}
		wantV, wantOut, err := Interpret(res.Result())
		if err != nil {
			t.Fatal(err)
		}
		v, out, st, err := runChecked(res)
		if err != nil {
			t.Fatalf("[%s] run: %v", cfg.Name, err)
		}
		if v != wantV || out != wantOut {
			t.Fatalf("[%s] divergence: %d/%q vs %d/%q", cfg.Name, v, out, wantV, wantOut)
		}
		if st.Beats == 0 {
			t.Errorf("[%s] no beats counted", cfg.Name)
		}
	}
}

func TestOptionKnobs(t *testing.T) {
	base, err := Build(context.Background(), demo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, stBase, err := runChecked(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		o   Options
		err string // what the build error names; "" builds
	}{
		{o: Options{DisableSpeculation: true}},
		{o: Options{DisableMultiway: true}},
		{o: Options{Conservative: true}},
		{o: Options{OptLevel: OptNone}},
		{o: Options{OptLevel: OptLight}},
		{o: Options{OptLevel: 7}, err: "OptLevel 7"},
	} {
		o := tc.o
		res, err := Build(context.Background(), demo, o)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%+v: err = %v, want one naming %q", o, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		v, out, _, err := runChecked(res)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		wv, wo, _ := Interpret(res.Result())
		if v != wv || out != wo {
			t.Fatalf("%+v changed semantics", o)
		}
	}
	_ = stBase
}

func TestBaselinesOrdering(t *testing.T) {
	sc, v, _, err := RunScalar(demo, Trace28())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1008 {
		t.Fatalf("scalar exit %d", v)
	}
	sb, _, _, err := RunScoreboard(demo, Trace28())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Build(context.Background(), demo, Options{ProfileRun: true})
	_, _, st, err := runChecked(res)
	if err != nil {
		t.Fatal(err)
	}
	// the paper's ordering: scalar ≥ scoreboard ≥ TRACE (in beats)
	if !(sc.Beats >= sb.Beats && sb.Beats >= st.Beats) {
		t.Errorf("ordering violated: scalar %d, scoreboard %d, TRACE %d",
			sc.Beats, sb.Beats, st.Beats)
	}
}

func TestVAXBytes(t *testing.T) {
	n, err := VAXBytes(demo)
	if err != nil || n <= 0 {
		t.Fatalf("VAXBytes = %d, %v", n, err)
	}
}

func TestCompileError(t *testing.T) {
	_, err := Build(context.Background(), `func main() int { return x }`, Options{})
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("bad program: %v", err)
	}
}

func TestMachineInstrumentation(t *testing.T) {
	res, err := Build(context.Background(), demo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Machine()
	fired := 0
	m.TraceFn = func(pc int, beat int64) { fired++ }
	if _, _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Error("TraceFn never fired")
	}
}

func TestBasicBlockOnly(t *testing.T) {
	src := `
var a [200]float
var b [200]float
func main() int {
	for (var i int = 0; i < 200; i = i + 1) { a[i] = float(i); b[i] = 1.0 }
	for (var r int = 0; r < 4; r = r + 1) {
		for (var i int = 0; i < 200; i = i + 1) { b[i] = b[i] + 2.5 * a[i] }
	}
	return int(b[199])
}`
	full, err := Build(context.Background(), src, Options{ProfileRun: true})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Build(context.Background(), src, Options{ProfileRun: true, BasicBlockOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	wantV, wantOut, err := Interpret(full.Result())
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Artifact{"full": full, "bb-only": bb} {
		v, out, _, err := runChecked(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v != wantV || out != wantOut {
			t.Fatalf("%s: wrong answer: %d vs %d", name, v, wantV)
		}
	}
	_, _, fullSt, err := runChecked(full)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bbSt, err := runChecked(bb)
	if err != nil {
		t.Fatal(err)
	}
	if fullSt.Beats >= bbSt.Beats {
		t.Errorf("trace scheduling should beat basic-block compaction on this loop: %d vs %d beats",
			fullSt.Beats, bbSt.Beats)
	}
}

func TestPublicContextSwitch(t *testing.T) {
	res, err := Build(context.Background(), `
func main() int {
	var s int = 0
	for (var i int = 0; i < 500; i = i + 1) { s = s + i }
	return s & 4095
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Interpret(res.Result())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Machine()
	m.InterruptEvery = 300
	m.OnInterrupt = func(mm *Machine) { mm.ContextSwitch(1); mm.ContextSwitch(0) }
	v, _, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("context switching changed the answer: %d vs %d", v, want)
	}
	if m.Stats.Switches == 0 {
		t.Fatal("no switches recorded")
	}
}

// TestPublicRunMany: the root RunMany surface time-shares artifacts as
// hardware contexts and every tenant's result is solo-identical.
func TestPublicRunMany(t *testing.T) {
	ctx := context.Background()
	art, err := Build(ctx, demo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := art.Run(ctx, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, sched, err := RunMany(ctx, []*Artifact{art, art, art}, RunManyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Contexts != 3 || sched.TotalBeats == 0 {
		t.Fatalf("scheduler counters: %+v", sched)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("context %d: %v", i, r.Err)
		}
		if r.Exit != solo.Exit || r.Output != solo.Output || r.Stats != solo.Stats {
			t.Errorf("context %d diverges from the solo run", i)
		}
	}
}
