package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/multiflow-repro/trace/internal/baseline"
	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/lang"
	"github.com/multiflow-repro/trace/internal/mach"
)

// The benchmark owns its inputs: the .mf sources are frozen copies, and each
// .expect beside one holds the exit value and output the reference IR
// interpreter gave for it, so the reference never comes from the compiler
// under test and later edits to internal/xp or the fuzz generator cannot
// change what is measured.
//
//go:embed programs/*.mf programs/*.expect
var programFS embed.FS

// program is one benchmark input with its expected result.
type program struct {
	name   string
	src    string
	exit   int32
	output string

	ir          *ir.Program // unoptimised IR, from lang.Compile
	scalarBeats int64       // beats on the scalar baseline machine
}

// parseExpect reads "exit N\n" followed by the program's output verbatim.
func parseExpect(data string) (int32, string, error) {
	head, out, ok := strings.Cut(data, "\n")
	num, found := strings.CutPrefix(head, "exit ")
	if !ok || !found {
		return 0, "", fmt.Errorf("want first line \"exit N\"")
	}
	v, err := strconv.ParseInt(num, 10, 32)
	if err != nil {
		return 0, "", err
	}
	return int32(v), out, nil
}

// reference interprets the unoptimised IR and runs the scalar baseline, and
// fails unless the two independent executions agree.
func reference(src string) (prog *ir.Program, exit int32, out string, scalar baseline.Result, err error) {
	prog, err = lang.Compile(src)
	if err != nil {
		return nil, 0, "", scalar, err
	}
	exit, out, err = (&ir.Interp{Prog: prog}).Run()
	if err != nil {
		return nil, 0, "", scalar, fmt.Errorf("ir.Interp: %w", err)
	}
	scalar, sexit, sout, err := baseline.Scalar(prog, mach.Trace28())
	if err != nil {
		return nil, 0, "", scalar, fmt.Errorf("baseline.Scalar: %w", err)
	}
	if sexit != exit || sout != out {
		return nil, 0, "", scalar, fmt.Errorf("ir.Interp (exit %d) and baseline.Scalar (exit %d) disagree", exit, sexit)
	}
	return prog, exit, out, scalar, nil
}

// loadPrograms reads the named programs and their expectations, and checks
// each expectation against a fresh reference interpretation.
func loadPrograms(names []string) ([]*program, error) {
	progs := make([]*program, len(names))
	for i, name := range names {
		src, err := programFS.ReadFile("programs/" + name + ".mf")
		if err != nil {
			return nil, err
		}
		want, err := programFS.ReadFile("programs/" + name + ".expect")
		if err != nil {
			return nil, err
		}
		p := &program{name: name, src: string(src)}
		if p.exit, p.output, err = parseExpect(string(want)); err != nil {
			return nil, fmt.Errorf("%s.expect: %w", name, err)
		}
		prog, exit, out, scalar, err := reference(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if exit != p.exit || out != p.output {
			return nil, fmt.Errorf("%s: reference interpretation (exit %d) no longer matches %s.expect (exit %d)", name, exit, name, p.exit)
		}
		p.ir, p.scalarBeats = prog, scalar.Beats
		progs[i] = p
	}
	return progs, nil
}

// allProgramNames lists every checked-in program.
func allProgramNames() []string {
	entries, _ := programFS.ReadDir("programs")
	var names []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".mf"); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// regenExpect rewrites dir/*.expect from the reference interpreter. It
// writes nothing for a program on which the interpreter and the scalar
// baseline disagree.
func regenExpect(dir string) error {
	for _, name := range allProgramNames() {
		src, err := os.ReadFile(filepath.Join(dir, name+".mf"))
		if err != nil {
			return err
		}
		_, exit, out, _, err := reference(string(src))
		if err != nil {
			return fmt.Errorf("%s: not written: %w", name, err)
		}
		data := fmt.Sprintf("exit %d\n%s", exit, out)
		if err := os.WriteFile(filepath.Join(dir, name+".expect"), []byte(data), 0o644); err != nil {
			return err
		}
	}
	return nil
}
