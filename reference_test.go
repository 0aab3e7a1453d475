package trace

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/profile"
	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// TestReferenceGolden pins what the reference machines say about every
// ledger, examples and testdata program: the interpreter's exit value and a
// hash of its output, the scalar, scoreboard and two-wide scoreboard results
// on TRACE 7 and TRACE 28 (every speedup the paper claims is a ratio against
// one of them), and a hash of the exact edge profile the interpreter records.
// A rewrite of ir.Interp or of the baselines' timing must pass it unedited.
func TestReferenceGolden(t *testing.T) {
	progs := testmatrix.Programs(t, testmatrix.Ledger, testmatrix.Examples, testmatrix.Testdata)
	lines := make([]testmatrix.Lines, len(progs))
	t.Run("programs", func(t *testing.T) {
		for i, p := range progs {
			t.Run(p.Key(), func(t *testing.T) {
				t.Parallel()
				prog, err := lang.Compile(p.Src)
				if err != nil {
					t.Fatal(err)
				}
				key := p.Key()
				exit, out, err := (&ir.Interp{Prog: prog}).Run()
				lines[i].Add(key+"/interp", fmt.Sprintf("exit=%d out=%s err=%v", exit, digest(out), err))
				lines[i].Add(key+"/profile", profileDigest(profile.FromRun(prog)))
				for _, cfg := range []mach.Config{mach.Trace7(), mach.Trace28()} {
					sc, _, _, err := baseline.Scalar(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sb, _, _, err := baseline.Scoreboard(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sw, _, _, err := baseline.ScoreboardWide(prog, cfg, 2)
					if err != nil {
						t.Fatal(err)
					}
					lines[i].Add(fmt.Sprintf("%s/trace%d", key, cfg.OpsPerInstr()),
						fmt.Sprintf("scalar=%s scoreboard=%s wide2=%s", result(sc), result(sb), result(sw)))
				}
			})
		}
	})
	var got testmatrix.Lines
	for _, l := range lines {
		got = append(got, l...)
	}
	testmatrix.CheckGolden(t, "testdata/reference.golden", &got, nil)
}

func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

func result(r baseline.Result) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", r.Beats, r.Ops, r.FloatOps, r.Branches, r.MemRefs)
}

// profileDigest hashes every edge weight of a profile in a fixed order.
func profileDigest(p ir.Profile) string {
	var s string
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	edges := 0
	for _, name := range names {
		keys := make([][2]int, 0, len(p[name]))
		for e := range p[name] {
			keys = append(keys, e)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
		})
		for _, e := range keys {
			s += fmt.Sprintf("%s %d %d %g\n", name, e[0], e[1], p[name][e])
		}
		edges += len(keys)
	}
	return fmt.Sprintf("edges=%d hash=%s", edges, digest(s))
}
