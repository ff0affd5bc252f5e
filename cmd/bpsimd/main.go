// Command bpsimd serves the branch-prediction engines over HTTP/JSON:
// simulation, sweeps, oracle selection, and per-address classification,
// speaking the versioned api/v1 wire schema with a content-addressed
// trace corpus behind it.
//
// Usage:
//
//	bpsimd -corpus /var/lib/bpsimd            # serve on localhost:8149
//	bpsimd -corpus ./corpus -workers 8 -sim-parallel 2
//	bpsimd -corpus ./corpus -debug-addr localhost:6060
//
// The service's contract is determinism: a request's payload bytes
// depend only on the request and the trace it names, never on worker
// budget or cache state. See internal/service for the mechanisms and
// the differential test that pins them.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"branchcorr/internal/obs"
	"branchcorr/internal/service"
)

// shutdownGrace bounds how long a SIGTERM waits for in-flight requests
// before open connections are closed hard.
const shutdownGrace = 10 * time.Second

// Connection timeouts, so a slow or stalled client cannot pin a
// connection (and its goroutine) indefinitely. The header deadline is
// tight; the whole-request deadline leaves room for the largest trace
// upload over a slow link. ReadTimeout bounds only the reading of the
// request: net/http lifts the read deadline once a handler reads the
// body to EOF, which every handler does before computing, so its expiry
// never cancels a request still computing (internal/service's
// TestReadTimeoutSparesCoalescedWaiter pins this). No write deadline: a
// cold oracle request may legitimately compute for longer than any
// fixed bound.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the API handler in an http.Server carrying the
// connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr        = flag.String("addr", "localhost:8149", "address to serve the v1 API on")
		corpusDir   = flag.String("corpus", "", "content-addressed trace store directory (required)")
		workers     = flag.Int("workers", 0, "concurrent request budget (0 = service default)")
		simParallel = flag.Int("sim-parallel", 0, "per-request engine worker budget (0 = service default)")
		maxN        = flag.Int("max-n", 0, "longest accepted workload trace (0 = service default)")
		defaultN    = flag.Int("default-n", 0, "workload trace length when a request omits n (0 = service default)")
		metrics     = flag.String("metrics", "", "write the process metrics snapshot (JSON) to this file at exit")
		debugAddr   = flag.String("debug-addr", "", "serve expvar, pprof, and /metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (all options are flags)", flag.Arg(0)))
	}
	if *corpusDir == "" {
		fatal(fmt.Errorf("need -corpus DIR (the trace store; created if absent)"))
	}

	// The process registry carries the wall clock so span histograms on
	// /debug endpoints hold real latencies. Payload metrics stay
	// deterministic regardless: the service strips histograms (the only
	// clock-bearing aggregate) from every response.
	reg := obs.Default()
	reg.SetClock(obs.SystemClock)
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bpsimd: debug server on http://%s/ (expvar, pprof, /metrics)\n", ds.Addr())
		defer ds.Close()
	}

	srv, err := service.New(service.Config{
		CorpusDir:     *corpusDir,
		Workers:       *workers,
		SimParallel:   *simParallel,
		MaxTraceN:     *maxN,
		DefaultTraceN: *defaultN,
		Registry:      reg,
	})
	if err != nil {
		fatal(err)
	}

	// Bind before announcing readiness, so a supervisor (or the CI smoke
	// test) can treat the stderr line as "the port is live".
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := newHTTPServer(srv.Handler())
	fmt.Fprintf(os.Stderr, "bpsimd: serving v1 API on http://%s/\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "bpsimd: shutting down")
		// Bound the drain: a stuck client must not keep the process
		// alive until the supervisor escalates to SIGKILL.
		sd, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(sd); err != nil {
			fmt.Fprintln(os.Stderr, "bpsimd: graceful shutdown:", err)
			_ = hs.Close()
		}
	}

	if *metrics != "" {
		if err := reg.WriteFile(*metrics); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpsimd:", err)
	os.Exit(1)
}
