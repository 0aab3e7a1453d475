package core

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/vliw"
)

var runManySrcs = []string{
	`func main() int {
		var s int = 0
		for (var i int = 0; i < 400; i = i + 1) { s = s + i*i }
		print_i(s)
		return s & 255
	}`,
	`var a [512]float
	func main() int {
		for (var i int = 0; i < 512; i = i + 1) { a[i] = float(i) * 0.25 }
		var s float = 0.0
		for (var i int = 0; i < 512; i = i + 1) { s = s + a[i] }
		print_f(s)
		return int(s) & 1023
	}`,
	`func main() int {
		var x int = 3
		for (var i int = 0; i < 200; i = i + 1) { x = (x * 7 + 11) & 8191 }
		print_i(x)
		return x & 63
	}`,
}

func buildMany(t *testing.T, opts Options) []*Artifact {
	t.Helper()
	arts := make([]*Artifact, len(runManySrcs))
	for i, src := range runManySrcs {
		a, err := Build(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		arts[i] = a
	}
	return arts
}

// TestRunManyMatchesSolo: the batch entry point produces, for every
// artifact, exactly what a solo Artifact.Run produces — checked and on the
// certified fast path.
func TestRunManyMatchesSolo(t *testing.T) {
	opts := Options{Config: mach.Trace7(), Opt: opt.Default()}
	arts := buildMany(t, opts)
	for _, fast := range []bool{false, true} {
		solo := make([]ExitResult, len(arts))
		for i, a := range arts {
			r, err := a.Run(context.Background(), RunOptions{Tier: tierOf(fast)})
			if err != nil {
				t.Fatal(err)
			}
			solo[i] = r
		}
		rs, sched, err := RunMany(context.Background(), arts, RunManyOptions{Tier: tierOf(fast)})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r.Err != nil {
				t.Fatalf("fast=%v context %d: %v", fast, i, r.Err)
			}
			if r.Exit != solo[i].Exit || r.Output != solo[i].Output || r.Stats != solo[i].Stats {
				t.Errorf("fast=%v context %d diverges from solo run", fast, i)
			}
			if r.Tier != tierOf(fast) {
				t.Errorf("fast=%v context %d: Tier=%v", fast, i, r.Tier)
			}
		}
		if sched.Contexts != len(arts) || sched.TotalBeats == 0 {
			t.Errorf("fast=%v sched: %+v", fast, sched)
		}
	}
}

// TestRunManyOnPooledMachine: batches reuse one machine through ResetMany,
// including a repeated artifact sharing its decoded plan across contexts.
func TestRunManyOnPooledMachine(t *testing.T) {
	opts := Options{Config: mach.Trace7(), Opt: opt.Default()}
	arts := buildMany(t, opts)
	m := vliw.New(arts[0].Image())
	batch := []*Artifact{arts[0], arts[1], arts[0], arts[2]}
	var first []ManyResult
	for round := 0; round < 3; round++ {
		rs, _, err := RunManyOn(context.Background(), m, batch, RunManyOptions{Tier: vliw.TierFast})
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Exit != rs[2].Exit || rs[0].Output != rs[2].Output || rs[0].Stats != rs[2].Stats {
			t.Fatal("two contexts of the same artifact diverged")
		}
		if round == 0 {
			first = rs
			continue
		}
		for i := range rs {
			if rs[i].Exit != first[i].Exit || rs[i].Output != first[i].Output || rs[i].Stats != first[i].Stats {
				t.Fatalf("round %d context %d diverged on the pooled machine", round, i)
			}
		}
	}
}

// TestRunManyMixedConfigRejected: artifacts must share one machine target.
func TestRunManyMixedConfigRejected(t *testing.T) {
	a, err := Build(context.Background(), runManySrcs[0], Options{Config: mach.Trace7(), Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(context.Background(), runManySrcs[2], Options{Config: mach.Trace14(), Opt: opt.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunMany(context.Background(), []*Artifact{a, b}, RunManyOptions{}); err == nil {
		t.Fatal("RunMany accepted mixed machine configurations")
	}
	if _, _, err := RunMany(context.Background(), nil, RunManyOptions{}); err == nil {
		t.Fatal("RunMany accepted an empty batch")
	}
}

// TestRunManyPerContextFailure: a trapping tenant reports through its own
// ManyResult.Err while the rest of the batch completes.
func TestRunManyPerContextFailure(t *testing.T) {
	opts := Options{Config: mach.Trace7(), Opt: opt.Default()}
	good, err := Build(context.Background(), runManySrcs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Build(context.Background(), `
	func main() int {
		var d int = 0
		for (var i int = 0; i < 10; i = i + 1) { d = i - i }
		return 1 / d
	}`, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := good.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := RunMany(context.Background(), []*Artifact{good, bad}, RunManyOptions{})
	if err != nil {
		t.Fatalf("per-context trap must not fail the batch: %v", err)
	}
	if rs[1].Err == nil {
		t.Fatal("trapping context reported no error")
	}
	if rs[0].Err != nil || rs[0].Exit != want.Exit || rs[0].Output != want.Output || rs[0].Stats != want.Stats {
		t.Errorf("good context disturbed: %+v", rs[0])
	}
}

// TestMixedImageBatchKeepsCertifiedPlans: a plan belongs to its artifact, and
// the certified copy to the plan, so a batch of distinct programs run again on
// the same machine finds all of it: the first pass decodes each image and
// derives each certified copy once, and no later pass builds a plan. (While the
// machine kept one certified plan of its own, arming the second image's
// certificate threw the first's plan away, regions and all, on every pass.)
// Heat is the plan's too: a word each pass meets once gets its region in the
// second pass, and from the third on there is nothing left to build.
func TestMixedImageBatchKeepsCertifiedPlans(t *testing.T) {
	ctx := context.Background()
	opts := Options{Config: mach.Trace7(), Opt: opt.Default()}
	arts, others := buildMany(t, opts), buildMany(t, opts) // the solo runs must not warm the batch's plans
	m := new(vliw.Machine)
	for pass := 0; pass < 4; pass++ {
		rs, _, err := RunManyOn(ctx, m, arts, RunManyOptions{Tier: vliw.TierNative})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			solo, err := others[i].Run(ctx, RunOptions{Tier: vliw.TierNative})
			if err != nil || r.Err != nil {
				t.Fatal(err, r.Err)
			}
			if r.Exit != solo.Exit || r.Output != solo.Output || r.Stats != solo.Stats || r.Tier != vliw.TierNative {
				t.Errorf("pass %d, context %d diverges from the solo run", pass, i)
			}
		}
		plans, regions := m.Builds()
		switch {
		case pass == 0 && (plans != int64(2*len(arts)) || regions == 0):
			t.Errorf("the cold pass built %d plans and %d regions, want %d plans and some regions", plans, regions, 2*len(arts))
		case pass > 0 && plans != 0:
			t.Errorf("pass %d built %d plans, want none", pass, plans)
		case pass > 1 && regions != 0:
			t.Errorf("pass %d built %d regions, want none", pass, regions)
		}
	}
}
