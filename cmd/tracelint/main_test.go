package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/testmatrix"
)

// TestJSONGolden pins the -json -safety output shape: the structured
// findings and per-site safety verdicts for a fixed program under a fixed
// configuration must match the checked-in golden byte for byte. The build
// is deterministic (see TestParallelCompileDeterminism), so any diff here
// is a deliberate schema or analysis change — regenerate with -update.
func TestJSONGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/guarded.mf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testmatrix.Trace14.Cfg
	c := config{fmt.Sprintf("O0/%s", cfg.Name), cfg, testmatrix.O0.Opt}
	r, exit, err := lintOne(context.Background(), "testdata/guarded.mf", string(raw), c, true)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 0 {
		t.Fatalf("clean program produced exit contribution %d", exit)
	}
	if r.Safety == nil || r.Safety.CertLevel != "safe" {
		t.Fatalf("want cert level safe, got %+v", r.Safety)
	}
	got, err := json.MarshalIndent([]resultJSON{r}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testmatrix.CheckFile(t, "testdata/guarded.golden.json", append(got, '\n'))
}

// TestWarningsOnlyUnderVerbose pins the -v contract for warning-severity
// findings (the ordered-retire WAW overlap class): silent by default, and
// rendered with the per-check summary under -v — mirroring schedcheck's
// rule that warnings never block certification or the exit status.
func TestWarningsOnlyUnderVerbose(t *testing.T) {
	r := resultJSON{
		File: "x.mf", Config: "O2/TRACE 28",
		Warnings: 1,
		Findings: []findingJSON{{
			Check: "waw-overlap", Severity: "warning", Word: 3, Beat: 1, Unit: "ialu0.1",
			Func: "main", Line: 7,
			Msg: "mul writes i0.5 while another write to it is in flight",
		}},
	}

	var quiet bytes.Buffer
	printResult(&quiet, r.File, r.Config, r, false)
	if quiet.Len() != 0 {
		t.Errorf("warning printed without -v:\n%s", quiet.String())
	}

	var loud bytes.Buffer
	printResult(&loud, r.File, r.Config, r, true)
	out := loud.String()
	if !strings.Contains(out, "warning[waw-overlap] word=3 beat=1 unit=ialu0.1 (main:7)") {
		t.Errorf("-v output missing the rendered warning:\n%s", out)
	}
	if !strings.Contains(out, "1 findings (0 errors, 1 warnings)") {
		t.Errorf("-v output missing the per-check summary:\n%s", out)
	}

	// An error-severity finding prints regardless of -v.
	r.Findings[0].Severity = "error"
	r.Warnings, r.Errors = 0, 1
	quiet.Reset()
	printResult(&quiet, r.File, r.Config, r, false)
	if !strings.Contains(quiet.String(), "error[waw-overlap]") {
		t.Errorf("error finding suppressed without -v:\n%s", quiet.String())
	}
}

// TestJSONGoldenValid re-parses the golden file: whatever we promise
// tooling must itself round-trip as JSON.
func TestJSONGoldenValid(t *testing.T) {
	raw, err := os.ReadFile("testdata/guarded.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var rs []resultJSON
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatalf("golden file is not valid JSON: %v", err)
	}
	if len(rs) != 1 || rs[0].Safety == nil || len(rs[0].Safety.Sites) == 0 {
		t.Fatalf("golden file lost its shape: %+v", rs)
	}
}

// TestConfigsRefuseBadFlags: a -pairs or -O value no machine or level has is
// a usage error (main exits 2 with the message), never a panic in
// mach.NewConfig; -matrix names its own machines and levels.
func TestConfigsRefuseBadFlags(t *testing.T) {
	for _, c := range []struct {
		pairs, olevel int
		ideal         bool
		want          string
	}{
		{3, 2, false, "-pairs: mach: pairs must be 1, 2, or 4 (got 3)"},
		{0, 2, false, "-pairs: mach: pairs must be 1, 2, or 4 (got 0)"},
		{3, 2, true, "-pairs: mach: pairs must be 1, 2, or 4 (got 3)"},
		{4, 5, false, "-O: opt: level must be 0, 1, or 2 (got 5)"},
	} {
		_, err := configsFor(false, c.ideal, c.pairs, c.olevel)
		if err == nil || err.Error() != c.want {
			t.Errorf("-pairs %d -O %d -ideal=%t: error %v, want %q", c.pairs, c.olevel, c.ideal, err, c.want)
		}
	}
	if cs, err := configsFor(false, false, 2, 1); err != nil || len(cs) != 1 || cs[0].cfg.Pairs != 2 || cs[0].name != "O1/TRACE 14/200" {
		t.Errorf("-pairs 2 -O 1: %+v, %v", cs, err)
	}
	if cs, err := configsFor(true, false, 3, 5); err != nil || len(cs) != 9 {
		t.Errorf("-matrix: %d configurations, %v; want 9", len(cs), err)
	}
}
