package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/tsched"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// wordCost is what one instruction word cost a run: how often it issued,
// the beats from its issue to the next word's, and how many of those beats
// the schedule did not plan (bank stalls, TLB traps, icache refills and
// interrupts). The rest are its issue beats.
type wordCost struct {
	runs, beats, stall int64
}

// beatProfile accounts a run's beats to the words that took them, through the
// machine's TraceFn hook. A word's refill (and an interrupt taken before it)
// is charged before the hook sees the word, its bank stall and data-TLB trap
// after; an instruction-TLB trap, charged before the hook too but counted with
// the data-TLB ones, goes to the word before. Setting the hook runs every
// word on the per-word path, which keeps every counter of the run as it is
// without the hook.
type beatProfile struct {
	m     *vliw.Machine
	words []wordCost
	cur   int   // the word the hook saw last; -1 before the first
	last  int64 // the beat it saw it at
	lead  int64 // refill + interrupt beats, as of that word
	after int64 // bank-stall + trap beats, as of that word
}

// profileBeats arms m's TraceFn to account beats per word of img.
func profileBeats(m *vliw.Machine, img *isa.Image) *beatProfile {
	p := &beatProfile{m: m, words: make([]wordCost, len(img.Instrs)), cur: -1}
	m.TraceFn = p.word
	return p
}

func (p *beatProfile) word(pc int, beat int64) {
	st := &p.m.Stats
	lead, after := st.RefillBeats+st.InterruptBeats, st.BankStalls+st.TrapBeats
	own, stall := lead-p.lead, lead-p.lead // this word's refill and interrupt
	if p.cur >= 0 {
		w := &p.words[p.cur]
		w.beats += beat - p.last - own
		w.stall += after - p.after
	} else {
		own, stall = beat, lead+after // what came before the first word is its
	}
	if pc >= 0 && pc < len(p.words) {
		w := &p.words[pc]
		w.runs++
		w.beats += own
		w.stall += stall
	}
	p.cur, p.last, p.lead, p.after = pc, beat, lead, after
}

// finish charges the last word up to the end of the run (its drain).
func (p *beatProfile) finish() {
	if p.cur < 0 || p.cur >= len(p.words) {
		return
	}
	st := &p.m.Stats
	w := &p.words[p.cur]
	w.beats += st.Beats - p.last
	w.stall += st.BankStalls + st.TrapBeats - p.after
}

// report prints the n words that took the most beats, with the function each
// is in and the source lines of its ops.
func (p *beatProfile) report(out io.Writer, n int, img *isa.Image, funcs []*tsched.FuncCode) {
	var total int64
	pcs := make([]int, 0, len(p.words))
	for pc, w := range p.words {
		total += w.beats
		if w.beats > 0 {
			pcs = append(pcs, pc)
		}
	}
	slices.SortStableFunc(pcs, func(a, b int) int { return cmp.Compare(p.words[b].beats, p.words[a].beats) })
	pcs = pcs[:min(n, len(pcs))]
	fmt.Fprintf(out, "beats by word (top %d of %d beats):\n", len(pcs), total)
	fmt.Fprintf(out, "  %6s  %-16s %10s %10s %10s %10s %6s  %s\n", "pc", "func", "runs", "beats", "issue", "stall", "share", "lines")
	for _, pc := range pcs {
		w := p.words[pc]
		fn, lines := sourceOf(pc, img, funcs)
		fmt.Fprintf(out, "  %6d  %-16s %10d %10d %10d %10d %5.1f%%  %s\n",
			pc, trunc(fn, 16), w.runs, w.beats, w.beats-w.stall, w.stall, 100*float64(w.beats)/float64(max(total, 1)), lines)
	}
}

// sourceOf names the function holding word pc and the source lines of its
// ops (FuncCode.Lines), ascending, without repeats.
func sourceOf(pc int, img *isa.Image, funcs []*tsched.FuncCode) (string, string) {
	for _, fc := range funcs {
		base, ok := img.FuncBase[fc.Name]
		if !ok || pc < base || pc >= base+len(fc.Instrs) {
			continue
		}
		var lines []int
		for _, l := range fc.Lines[pc-base] {
			if l > 0 && !slices.Contains(lines, int(l)) {
				lines = append(lines, int(l))
			}
		}
		slices.Sort(lines)
		s := make([]string, len(lines))
		for i, l := range lines {
			s[i] = fmt.Sprint(l)
		}
		return fc.Name, strings.Join(s, ",")
	}
	return "?", ""
}
