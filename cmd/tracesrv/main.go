// Command tracesrv serves the trace-scheduling compiler and the TRACE
// simulator over HTTP/JSON (see internal/serve): POST /compile, /run, and
// /lint compile-and-cache content-addressed artifacts; GET /metrics reports
// cache, admission, and latency counters; GET /healthz and /readyz are the
// liveness and readiness probes (readyz answers 503 once draining begins).
//
// A run that exceeds -run-timeout is checkpointed and answered with 202 and
// a resume token; POST /resume continues it under a fresh deadline. With
// -snapshot-dir the checkpoints also spill to disk, so tokens survive even
// a SIGKILL of the process: the next start re-indexes the directory.
//
// Usage:
//
//	tracesrv [-addr host:port] [-port-file path] [-cache-bytes N]
//	         [-snapshot-bytes N] [-snapshot-dir path]
//	         [-max-inflight N] [-compile-timeout d] [-run-timeout d]
//
// The server prints "tracesrv: listening on ADDR" once the socket is bound
// (and writes ADDR to -port-file if given), so scripts can bind port 0 and
// discover the ephemeral port. SIGTERM or SIGINT drains gracefully:
// /readyz flips to 503, in-flight requests finish (bounded by the drain
// timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/multiflow-repro/trace/internal/prof"
	"github.com/multiflow-repro/trace/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port)")
	portFile := flag.String("port-file", "", "write the bound address to this file once listening")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "artifact cache budget in bytes")
	snapshotBytes := flag.Int64("snapshot-bytes", 64<<20, "resume-snapshot store budget in bytes (negative disables checkpointing)")
	snapshotDir := flag.String("snapshot-dir", "", "spill resume snapshots to this directory (tokens survive restarts)")
	maxInflight := flag.Int("max-inflight", 64, "admitted requests before answering 429")
	compileTimeout := flag.Duration("compile-timeout", 30*time.Second, "per-request compile deadline")
	runTimeout := flag.Duration("run-timeout", 60*time.Second, "per-request simulation deadline")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown deadline")
	profiles := prof.Register()
	flag.Parse()

	srv := serve.New(serve.Config{
		CacheBytes:     *cacheBytes,
		MaxInflight:    *maxInflight,
		CompileTimeout: *compileTimeout,
		RunTimeout:     *runTimeout,
		SnapshotBytes:  *snapshotBytes,
		SnapshotDir:    *snapshotDir,
	})
	// One server per process here, so the global expvar namespace is safe;
	// /debug/vars interop for fleet scrapers.
	expvar.Publish("tracesrv", expvar.Func(func() any { return srv.Metrics().Snapshot() }))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesrv:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tracesrv:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("tracesrv: listening on %s\n", bound)
	// The profiles cover the serving life of the process, start to drained.
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesrv:", err)
		os.Exit(1)
	}

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		stopProfiles()
		fmt.Fprintln(os.Stderr, "tracesrv:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	// Flip /readyz to 503 first so load balancers stop routing here, then
	// let the in-flight requests finish.
	srv.StartDrain()
	fmt.Println("tracesrv: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = hs.Shutdown(dctx)
	stopProfiles()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "tracesrv: drain:", err)
		os.Exit(1)
	}
	fmt.Println("tracesrv: stopped")
}
