package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from outside
// the program. IDs are 1-based indexes into tracer.spans; parent 0 means a
// root span (one op).
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int
	track      int // display lane: one per concurrent client
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run and the traced run share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens an op span on a display lane.
func (t *tracer) root(name string, track int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), track: track})
	return len(t.spans)
}

// begin opens a span caused by parent.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	track := 0
	if parent > 0 {
		track = t.spans[parent-1].track
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, track: track})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = time.Since(t.t0)
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// mark returns the number of spans recorded so far, to delimit a phase.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans cover. Children of one span may overlap (two
// clients), so the covered part is the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans)+1)
	for i, s := range spans {
		children[s.parent] = append(children[s.parent], i)
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i+1]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, upto := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < upto {
				lo = upto
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTotals sums duration and self time by span name over spans[from:].
func layerTotals(spans []span, from int) (total, self map[string]time.Duration) {
	selfs := selfTimes(spans)
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		total[s.name] += s.end - s.start
		self[s.name] += selfs[i]
	}
	return total, self
}

// writeTrace writes the spans as Chrome/Perfetto trace-event JSON. Every
// event carries the id of the op (root span) it belongs to.
func (t *tracer) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(t.spans))
	op := make([]int, len(t.spans)+1)
	for i, s := range t.spans {
		op[i+1] = i + 1
		if s.parent > 0 {
			op[i+1] = op[s.parent]
		}
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.track, Args: map[string]int{"op": op[i+1], "parent": s.parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
