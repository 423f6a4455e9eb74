// Command busyd is the busy-time scheduling daemon: an HTTP service
// sitting directly on the Solver API.
//
// Endpoints:
//
//	POST /v1/solve        solve one instance (JSON wire format)
//	POST /v1/solve/batch  solve a batch over the worker pool
//	POST /v1/stream       NDJSON online session: arrivals in, one
//	                      placement event per arrival out, live
//	                      competitive-ratio telemetry, close report;
//	                      ?resume=<session>&seq=<n> continues an
//	                      interrupted journaled session
//	GET  /v1/stream/journal  a session's hash-chained journal (NDJSON)
//	GET  /v1/algorithms   the algorithm registry
//	GET  /healthz         liveness
//	GET  /metrics         plain-text counters (Prometheus exposition)
//	GET  /debug/traces    last served root spans (?min_ms=&algorithm=&limit=)
//	GET  /debug/pprof     profiling (only with -pprof; mutex and block
//	                      profiles need -mutex-profile-fraction /
//	                      -block-profile-rate to be collected at all)
//
// Every response carries the Result.Certificate() verdict and the
// machine assignment, so clients can re-verify schedules locally.
//
// Every served request is traced into a bounded in-memory ring
// (-trace-ring) and the busyd_solve_phase_seconds histograms; a client
// that sends a W3C traceparent header additionally gets the span tree
// echoed in the response body. -slow-solve emits a structured log line
// with the per-phase breakdown for requests above the threshold.
//
// Usage:
//
//	busyd -addr :8080 -workers 0 -max-inflight 64 -max-jobs 10000
//	busyd -addr :8080 -algo first-fit
//	busyd -addr :8080 -journal /var/lib/busyd/journal.ndjson
//
// With -journal, stream sessions survive a daemon crash: restart busyd
// on the same file and clients resume with POST /v1/stream?resume=.
// A session commits whatever arrivals have queued since its last flush
// (up to 128) in one journal append and fsync, and acknowledges none of
// them before that append returns; flush size needs no tuning flag.
//
// SIGINT/SIGTERM drain gracefully: the listener closes immediately,
// in-flight solves get -drain-timeout to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		algo         = flag.String("algo", "", "pin a registered algorithm (default: auto dispatch)")
		workers      = flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		budget       = flag.Int64("budget", 0, "default busy-time budget for max-throughput requests")
		maxInFlight  = flag.Int("max-inflight", 256, "max concurrently admitted requests (0 = unlimited)")
		maxJobs      = flag.Int("max-jobs", 100000, "max jobs per instance (0 = unlimited)")
		maxBatch     = flag.Int("max-batch", 1024, "max requests per batch (0 = unlimited)")
		maxBody      = flag.Int64("max-body-bytes", 8<<20, "max request body bytes")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain bound")
		journalPath  = flag.String("journal", "", "durable stream journal file (default: in-memory, lost on exit)")
		reoptCache   = flag.Int("reopt-cache", 512, "reoptimization cache entries (0 = default 512, negative = disabled)")
		maxSessions  = flag.Int("max-closed-sessions", 4096, "closed stream sessions retained by the in-memory journal (0 = unbounded; ignored with -journal)")
		slowSolve    = flag.Duration("slow-solve", 0, "log a structured slow_solve line with a per-phase breakdown for requests at or above this duration (0 = off)")
		traceRing    = flag.Int("trace-ring", 0, "root spans retained for GET /debug/traces (0 = default 128)")
		pprofOn      = flag.Bool("pprof", false, "serve /debug/pprof (off by default)")
		mutexFrac    = flag.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex (0 = off)")
		blockRate    = flag.Int("block-profile-rate", 0, "sample blocking events of >= n ns for /debug/pprof/block (0 = off)")
		quiet        = flag.Bool("quiet", false, "suppress the per-request JSON log on stderr")
	)
	flag.Parse()

	// Contention profiling is opt-in and independent of -pprof mounting
	// the endpoints: the runtime collects either profile only when its
	// rate is set, so the serving path pays nothing by default.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	cfg := server.Config{
		Algorithm:    *algo,
		Workers:      *workers,
		Budget:       *budget,
		MaxInFlight:  *maxInFlight,
		MaxJobs:      *maxJobs,
		MaxBatch:     *maxBatch,
		MaxBodyBytes: *maxBody,
		DrainTimeout: *drainTimeout,
		ReoptCache:   *reoptCache,
		SlowSolve:    *slowSolve,
		TraceRing:    *traceRing,
		EnablePprof:  *pprofOn,
	}
	if !*quiet {
		// One JSON line per request / stream event. Stderr: stdout is
		// reserved for the machine-readable address announcement.
		cfg.RequestLog = os.Stderr
	}
	if *journalPath != "" {
		store, err := journal.OpenFileStore(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "busyd:", err)
			os.Exit(1)
		}
		defer func() {
			// The close error is the last chance to learn a buffered
			// journal write never reached disk; surface it even though
			// the process is exiting.
			if err := store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "busyd: closing journal:", err)
			}
		}()
		cfg.Journal = store
	} else {
		// The in-memory default is retention-capped: a long-lived daemon
		// must not grow without bound as finished streams accumulate.
		cfg.Journal = journal.NewMemStoreWithRetention(*maxSessions)
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "busyd:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind before announcing so `-addr 127.0.0.1:0` reports the port the
	// kernel actually chose. The one-line stdout announcement is a
	// machine-readable contract: scripts (CI's stream smoke test) parse
	// the address from it instead of guessing a free port up front.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "busyd:", err)
		os.Exit(1)
	}
	fmt.Printf("busyd: listening on %s\n", ln.Addr())
	log.Printf("busyd: listening on %s (workers=%d max-inflight=%d max-jobs=%d)",
		ln.Addr(), *workers, *maxInFlight, *maxJobs)
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, "busyd:", err)
		os.Exit(1)
	}
	log.Printf("busyd: drained and stopped")
}
