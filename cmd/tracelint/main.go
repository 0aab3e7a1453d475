// Command tracelint statically verifies compiled MF programs against the
// TRACE's no-interlock schedule contract (internal/schedcheck): every
// functional unit, register-file port, and bus in every beat on every path,
// plus the in-flight-write dataflow the interlock-free pipelines assume.
//
// Usage:
//
//	tracelint [-pairs N] [-O level] [-ideal] [-matrix] [-skip cells] [-corpus] [-safety] [-json] [-v] prog.mf...
//
// Each argument is compiled and its linked image verified. With -matrix the
// file is checked across O0/O1/O2 at every machine width (Trace 7, 14, 28)
// instead of the single -pairs/-O configuration. With -corpus the arguments
// are go-fuzz corpus entries ("go test fuzz v1" + a quoted string) instead
// of plain source files; entries the frontend rejects are skipped, since a
// fuzz corpus legitimately holds invalid programs, and so are entries the
// compiler refuses for want of registers or schedule size. Elsewhere such a
// refusal is a failure, unless -skip names the cell as file:config (the
// file's base name and the configuration as printed, gen16.mf:O2/trace7).
//
// With -safety the value-range safety analysis (internal/safecheck) also
// runs on each clean image and reports, per guarded site — every load,
// store, divide, and indirect jump — whether its runtime guard is proven
// redundant (with the proven ranges) or why it is not. Safety verdicts are
// informational: an unproven site keeps its dynamic guard and never affects
// the exit status.
//
// With -json the findings — and, with -safety, the per-site verdicts — are
// emitted as one JSON array on stdout (one element per file × configuration)
// instead of text, for tooling to consume.
//
// Exit status is 1 if any image has an error-severity finding (a contract
// violation that corrupts state on the interlock-free hardware), 2 on usage
// or compile errors. Warnings (dead words, divide-unit occupancy overlaps)
// never affect the exit status; -v prints them with the per-check summary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/multiflow-repro/trace/internal/core"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/opt"
	"github.com/multiflow-repro/trace/internal/safecheck"
	"github.com/multiflow-repro/trace/internal/tsched"
)

var (
	pairs   = flag.Int("pairs", 4, "I-F board pairs (1, 2, or 4)")
	olevel  = flag.Int("O", 2, "optimization level (0-2)")
	ideal   = flag.Bool("ideal", false, "target the Figure-1 ideal VLIW (CFG and dataflow checks only)")
	matrix  = flag.Bool("matrix", false, "check O0/O1/O2 x Trace 7/14/28 instead of one configuration")
	corpus  = flag.Bool("corpus", false, "arguments are go-fuzz corpus entries, not source files")
	safety  = flag.Bool("safety", false, "also run the value-range safety analysis and report per-site guard verdicts")
	jsonOut = flag.Bool("json", false, "emit findings (and -safety verdicts) as a JSON array on stdout")
	verbose = flag.Bool("v", false, "print warnings and the per-check summary")
	skip    = flag.String("skip", "", "comma-separated `file:config` cells (e.g. gen16.mf:O2/trace7) whose capacity rejection is expected")
)

type config struct {
	name string
	cfg  mach.Config
	opt  opt.Options
}

// findingJSON is one schedcheck finding in -json output.
type findingJSON struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	Word     int    `json:"word"`
	Beat     int    `json:"beat"`
	Unit     string `json:"unit,omitempty"`
	Func     string `json:"func,omitempty"`
	Line     int    `json:"line,omitempty"`
	Msg      string `json:"msg"`
}

// siteJSON is one safety-analysis site verdict in -json output.
type siteJSON struct {
	Kind   string `json:"kind"`
	Word   int    `json:"word"`
	Beat   int    `json:"beat"`
	Unit   string `json:"unit"`
	Func   string `json:"func,omitempty"`
	Line   int    `json:"line,omitempty"`
	Proven bool   `json:"proven"`
	Detail string `json:"detail"`
}

// safetyJSON is the -safety section of one -json result.
type safetyJSON struct {
	Proven    int        `json:"proven"`
	Total     int        `json:"total"`
	Exhausted bool       `json:"exhausted"`
	CertLevel string     `json:"cert_level"`
	Sites     []siteJSON `json:"sites"`

	// For the text output only: the report (its sites and transfer count,
	// which repeats exactly) and the wall time, which does not.
	rep     *safecheck.Report
	Elapsed time.Duration `json:"-"`
}

// resultJSON is one file × configuration element of the -json array.
type resultJSON struct {
	File     string        `json:"file"`
	Config   string        `json:"config"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
	Findings []findingJSON `json:"findings"`
	Safety   *safetyJSON   `json:"safety,omitempty"`
}

// lintOne compiles one source under one configuration and collects the
// verification verdicts. The returned exit is the process exit contribution
// (1 when the image has error-severity findings).
func lintOne(ctx context.Context, path, src string, c config, withSafety bool) (resultJSON, int, error) {
	art, err := core.Build(ctx, src, core.Options{Config: c.cfg, Opt: c.opt})
	if err != nil {
		return resultJSON{}, 0, err
	}
	rep := art.Lint()
	r := resultJSON{File: path, Config: c.name, Findings: []findingJSON{}}
	for _, f := range rep.Findings {
		fj := findingJSON{
			Check: f.Check, Severity: f.Sev.String(), Word: f.Word, Beat: f.Beat,
			Unit: f.Unit, Func: f.Func, Line: f.Line, Msg: f.Msg,
		}
		r.Findings = append(r.Findings, fj)
	}
	r.Errors = len(rep.Errors())
	r.Warnings = len(rep.Warnings())
	if withSafety {
		start := time.Now()
		srep := art.Safety()
		sj := &safetyJSON{
			Proven: srep.Proven(), Total: srep.Total(), Exhausted: srep.Exhausted,
			Sites: []siteJSON{}, rep: srep, Elapsed: time.Since(start),
		}
		switch {
		case r.Errors > 0:
			sj.CertLevel = safecheck.CertNone.String()
		case srep.Exhausted || srep.Proven() == 0:
			sj.CertLevel = safecheck.CertResource.String()
		default:
			sj.CertLevel = safecheck.CertSafe.String()
		}
		for i := range srep.Sites {
			s := &srep.Sites[i]
			sj.Sites = append(sj.Sites, siteJSON{
				Kind: mach.OpName(s.Kind), Word: s.Word, Beat: s.Beat,
				Unit: s.Unit.String(), Func: s.Func, Line: s.Line,
				Proven: s.Proven, Detail: s.Detail,
			})
		}
		r.Safety = sj
	}
	exit := 0
	if r.Errors > 0 {
		exit = 1
	}
	return r, exit, nil
}

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracelint [flags] prog.mf...")
		os.Exit(2)
	}

	configs, err := configsFor(*matrix, *ideal, *pairs, *olevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
		os.Exit(2)
	}

	expected := strings.Split(*skip, ",")

	// SIGINT cancels the in-flight compile at the next pass boundary.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()

	exit := 0
	var results []resultJSON
	for _, path := range flag.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracelint:", err)
			os.Exit(2)
		}
		src := string(raw)
		if *corpus {
			var ok bool
			if src, ok = decodeCorpus(string(raw)); !ok {
				fmt.Fprintf(os.Stderr, "tracelint: %s: not a go-fuzz corpus entry\n", path)
				os.Exit(2)
			}
			if _, err := lang.Compile(src); err != nil {
				if *verbose && !*jsonOut {
					fmt.Printf("%s: skipped (frontend rejects it)\n", path)
				}
				continue
			}
		}
		for _, c := range configs {
			r, e, err := lintOne(ctx, path, src, c, *safety)
			if err != nil {
				if isCapacityReject(err) && (*corpus || slices.Contains(expected, filepath.Base(path)+":"+c.name)) {
					// A corpus program, or a configuration named by -skip,
					// honestly rejected on a narrow machine is a skip, exactly
					// as in the fuzz oracle.
					if !*jsonOut {
						fmt.Printf("%s [%s]: skipped (%v)\n", path, c.name, err)
					}
					continue
				}
				fmt.Fprintf(os.Stderr, "tracelint: %s [%s]: %v\n", path, c.name, err)
				os.Exit(2)
			}
			exit = max(exit, e)
			if *jsonOut {
				results = append(results, r)
				continue
			}
			printResult(os.Stdout, path, c.name, r, *verbose)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "tracelint:", err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}

// configsFor returns the configurations to check: O0/O1/O2 × Trace 7/14/28
// under -matrix, otherwise the one -pairs/-O machine. A flag value no machine
// or level has is an error, which main reports as a usage error.
func configsFor(matrix, ideal bool, pairs, olevel int) ([]config, error) {
	if matrix {
		var configs []config
		for _, lvl := range []int{0, 1, 2} {
			o, _ := opt.Level(lvl)
			for _, p := range []int{1, 2, 4} {
				configs = append(configs, config{fmt.Sprintf("O%d/trace%d", lvl, 7*p), mach.NewConfig(p), o})
			}
		}
		return configs, nil
	}
	if err := mach.CheckPairs(pairs); err != nil {
		return nil, fmt.Errorf("-pairs: %w", err)
	}
	o, err := opt.Level(olevel)
	if err != nil {
		return nil, fmt.Errorf("-O: %w", err)
	}
	cfg := mach.NewConfig(pairs)
	if ideal {
		cfg = mach.IdealConfig(pairs)
	}
	return []config{{fmt.Sprintf("O%d/%s", olevel, cfg.Name), cfg, o}}, nil
}

// printResult renders one file × configuration verdict as text: errors
// always, warnings and the summary under -v, and the per-site safety
// verdicts under -safety.
func printResult(w io.Writer, path, cname string, r resultJSON, verbose bool) {
	for _, f := range r.Findings {
		if f.Severity != "warning" {
			fmt.Fprintf(w, "%s [%s]: %s\n", path, cname, findingText(f))
		}
	}
	if verbose {
		for _, f := range r.Findings {
			if f.Severity == "warning" {
				fmt.Fprintf(w, "%s [%s]: %s\n", path, cname, findingText(f))
			}
		}
		fmt.Fprintf(w, "%s [%s]: %d findings (%d errors, %d warnings)\n",
			path, cname, len(r.Findings), r.Errors, r.Warnings)
	}
	if r.Safety == nil {
		return
	}
	s := r.Safety
	for _, site := range s.rep.Sites {
		if !site.Proven || verbose { // by default only the sites that keep their guards
			fmt.Fprintf(w, "%s [%s]: %s\n", path, cname, site.String())
		}
	}
	fmt.Fprintf(w, "%s [%s]: safety: %d/%d guarded sites proven (cert level %s; %d transfers, %s)\n",
		path, cname, s.Proven, s.Total, s.CertLevel, s.rep.Transfers, s.Elapsed.Round(10*time.Microsecond))
}

// findingText reconstructs schedcheck's text rendering from the JSON form.
func findingText(f findingJSON) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s] word=%d", f.Severity, f.Check, f.Word)
	if f.Beat >= 0 {
		fmt.Fprintf(&b, " beat=%d", f.Beat)
	}
	if f.Unit != "" {
		fmt.Fprintf(&b, " unit=%s", f.Unit)
	}
	if f.Func != "" {
		if f.Line > 0 {
			fmt.Fprintf(&b, " (%s:%d)", f.Func, f.Line)
		} else {
			fmt.Fprintf(&b, " (%s)", f.Func)
		}
	}
	fmt.Fprintf(&b, ": %s", f.Msg)
	return b.String()
}

// isCapacityReject mirrors the fuzz oracle's rule: the allocator refusing a
// program for want of registers or schedule size is a diagnosis, not a bug.
func isCapacityReject(err error) bool {
	var ep *tsched.ErrPressure
	var es *tsched.ErrScheduleSize
	return errors.As(err, &ep) || errors.As(err, &es)
}

// decodeCorpus extracts the source string from a go-fuzz v1 corpus entry.
func decodeCorpus(raw string) (string, bool) {
	lines := strings.SplitN(strings.TrimSpace(raw), "\n", 2)
	if len(lines) != 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return "", false
	}
	body := strings.TrimSpace(lines[1])
	if !strings.HasPrefix(body, "string(") || !strings.HasSuffix(body, ")") {
		return "", false
	}
	s, err := strconv.Unquote(body[len("string(") : len(body)-1])
	if err != nil {
		return "", false
	}
	return s, true
}
