package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/multiflow-repro/trace/internal/serve"
	"github.com/multiflow-repro/trace/internal/vliw"
)

// Request classes of serve-hit, in the order of their share of the
// sequence. Out of every 100 requests 94 are memoised /run hits, 2 are /run
// with no_cache (the writes beside the reads), 2 are cached /compile and 2
// are cached /lint.
const (
	classHit = iota
	classNoCache
	classCompile
	classLint
	numClasses
)

var classNames = [numClasses]string{"hit", "nocache", "compile_hit", "lint_hit"}

// opHeader carries the client's span id to the server-side span.
const opHeader = "X-Bench-Op"

// clients is the number of closed-loop keep-alive connections: tracesrv's
// callers are RPC clients that wait for a reply, and the host has two
// processors.
const clients = 2

// noCachePrograms is how many of the hot set's last (smallest) programs
// take the no_cache requests.
const noCachePrograms = 4

// tierServer is one in-process tracesrv on a loopback listener with its hot
// set posted at one tier.
type tierServer struct {
	srv    *serve.Server
	http   *http.Server
	done   chan struct{} // closed when the accept loop has returned
	url    string
	bodies [numClasses][][]byte // request body per class and program
}

type serveSession struct {
	progs   []*program
	servers map[vliw.Tier]*tierServer
	conns   [clients]*http.Client
	totals  simTotals
	coldRun map[vliw.Tier]time.Duration // sum of the first /run of every program
}

// tracedHandler records a server-side span for requests that carry the
// client's span id.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(opHeader))
	if parent == 0 {
		t.h.ServeHTTP(w, r)
		return
	}
	t.tr.do("serve.ServeHTTP", parent, func() { t.h.ServeHTTP(w, r) })
}

// startServer starts a fresh server and marshals the request bodies the
// rounds replay against it.
func startServer(tr *tracer, progs []*program, tier vliw.Tier) (*tierServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts := &tierServer{srv: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	var h http.Handler = ts.srv
	if tr != nil {
		h = tracedHandler{h, tr}
	}
	ts.http = &http.Server{Handler: h}
	go func() {
		defer close(ts.done)
		ts.http.Serve(ln) // returns http.ErrServerClosed once stop() runs
	}()
	for k, p := range progs {
		run := serve.RunRequestOptions{Tier: tier}
		for class, v := range [numClasses]any{
			classHit:     serve.RunRequest{Source: p.src, Run: run},
			classNoCache: serve.RunRequest{Source: p.src, Run: serve.RunRequestOptions{Tier: tier, NoCache: true}},
			classCompile: serve.CompileRequest{Source: p.src},
			classLint:    serve.CompileRequest{Source: p.src},
		} {
			body, err := json.Marshal(v)
			if err != nil {
				ts.stop()
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			ts.bodies[class] = append(ts.bodies[class][:k], body)
		}
	}
	return ts, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (ts *tierServer) stop() {
	ts.http.Close()
	<-ts.done
}

// openServe starts one server per tier and posts the hot set to it at that
// tier, one client per processor, so that every timed request finds its
// artifact, its memoised result and its lint report cached.
func openServe(progs []*program, tr *tracer) (session, error) {
	s := &serveSession{progs: progs, servers: map[vliw.Tier]*tierServer{}, coldRun: map[vliw.Tier]time.Duration{}}
	for i := range s.conns {
		s.conns[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	for _, tier := range tiers {
		ts, err := startServer(tr, progs, tier)
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers[tier] = ts
		first := make([]posted, len(progs))
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := c; k < len(progs); k += clients {
					first[k] = s.post(ts, c, k)
				}
			}()
		}
		wg.Wait()
		for k, p := range progs {
			if first[k].err != nil {
				s.close()
				return nil, fmt.Errorf("posting %s at tier %v: %w", p.name, tier, first[k].err)
			}
			s.coldRun[tier] += first[k].firstRun
			if tier == vliw.TierChecked {
				st := first[k].run.Stats
				s.totals.add(p, vliw.Stats{Beats: st.Beats, Ops: st.Ops, Instrs: st.Instrs}, first[k].packed)
			}
		}
	}
	return s, nil
}

// posted is what the first requests for one program returned.
type posted struct {
	run      serve.RunResponse
	firstRun time.Duration // the cold /run: build, certify, translate, run
	packed   int64
	err      error
}

// post sends program k's first /run, /compile and /lint to a fresh server.
func (s *serveSession) post(ts *tierServer, client, k int) (out posted) {
	var raw []byte
	out.firstRun = timeIt(func() { raw, out.err = s.send(ts, client, classHit, k, 0) })
	if out.err != nil {
		return out
	}
	if out.err = json.Unmarshal(raw, &out.run); out.err != nil {
		return out
	}
	if out.run.CachedBuild || out.run.CachedResult {
		out.err = fmt.Errorf("first /run came from a cache")
		return out
	}
	if out.err = checkResult(s.progs[k], out.run.Exit, out.run.Output, nil); out.err != nil {
		return out
	}
	var comp serve.CompileResponse
	if raw, out.err = s.send(ts, client, classCompile, k, 0); out.err != nil {
		return out
	}
	if out.err = json.Unmarshal(raw, &comp); out.err != nil {
		return out
	}
	out.packed = comp.PackedBytes
	_, out.err = s.send(ts, client, classLint, k, 0)
	return out
}

var classPath = [numClasses]string{"/run", "/run", "/compile", "/lint"}

// send posts one request and returns the body of a 200 reply.
func (s *serveSession) send(ts *tierServer, client, class, k, op int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, ts.url+classPath[class], bytes.NewReader(ts.bodies[class][k]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := s.conns[client].Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", classPath[class], s.progs[k].name, resp.StatusCode, raw)
	}
	return raw, nil
}

// request is one entry of the fixed request sequence.
type request struct{ class, k int }

// sequence builds a round's n requests: exact class counts, the classes'
// programs in rotation, and the whole shuffled by the seeded source.
func (s *serveSession) sequence(n int, order *rand.Rand) []request {
	seq := make([]request, 0, n)
	rare := n / 50
	for i := range rare {
		seq = append(seq, request{classNoCache, len(s.progs) - 1 - i%min(noCachePrograms, len(s.progs))},
			request{classCompile, i % len(s.progs)}, request{classLint, i % len(s.progs)})
	}
	for i := 0; len(seq) < n; i++ {
		seq = append(seq, request{classHit, i % len(s.progs)})
	}
	order.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func (s *serveSession) round(tier vliw.Tier, n int, order *rand.Rand, rec *recorder, tr *tracer) {
	ts := s.servers[tier]
	seq := s.sequence(n, order)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(seq); i += clients {
				rq := seq[i]
				t0 := time.Now()
				op := tr.root("op:"+classNames[rq.class]+":"+s.progs[rq.k].name, c)
				raw, err := s.send(ts, c, rq.class, rq.k, op)
				if err == nil {
					err = s.verify(rq, tier, raw)
				}
				tr.end(op)
				rec.record(rq.class, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
}

// verify checks a reply against the program's expectation and against the
// cache flags its class must show.
func (s *serveSession) verify(rq request, tier vliw.Tier, raw []byte) error {
	p := s.progs[rq.k]
	switch rq.class {
	case classHit, classNoCache:
		var r serve.RunResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if err := checkResult(p, r.Exit, r.Output, nil); err != nil {
			return err
		}
		if r.Tier != tier || !r.CachedBuild || r.CachedResult != (rq.class == classHit) {
			return fmt.Errorf("%s %s: tier %v cached_build %t cached_result %t", classNames[rq.class], p.name, r.Tier, r.CachedBuild, r.CachedResult)
		}
	case classCompile:
		var r serve.CompileResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if !r.Cached {
			return fmt.Errorf("/compile %s: not cached", p.name)
		}
	case classLint:
		var r serve.LintResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if !r.Cached || !r.Clean {
			return fmt.Errorf("/lint %s: cached %t clean %t", p.name, r.Cached, r.Clean)
		}
	}
	return nil
}

func (s *serveSession) sim() simTotals { return s.totals }

func (s *serveSession) close() {
	for _, c := range s.conns {
		c.CloseIdleConnections()
	}
	for _, ts := range s.servers {
		ts.stop()
	}
}
