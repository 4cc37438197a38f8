// Command lruleakd is the long-running leakage-analysis job server: the
// repository's experiment grids (attack sweeps, transport stream
// sweeps, detection ROC sweeps) behind an HTTP/JSON API instead of a
// one-shot CLI.
//
// Usage:
//
//	lruleakd [-addr host:port] [-workers N] [-runners N] [-queue N]
//	         [-store-dir dir] [-max-job-wall dur]
//	         [-debug-addr host:port] [-quiet]
//
// A job's "attack", "stream" and "roc" sections are the root package's
// AttackSpec, StreamSpec and ROCSpec, whose json tags are the wire
// schema; every grid dimension is a name, as the CLI flags spell it.
// The server validates each spec up front (a bad spec is a 400 with
// field-level messages), rewrites names to one canonical spelling
// ("treeplru" → "Tree-PLRU"), and deduplicates submissions through a
// content-addressed result cache keyed by the SHA-256 of
// (ResultsVersion, kind, seed, canonical spec with defaults applied).
// It shards cells across one persistent engine worker pool shared by
// all jobs, streams per-cell progress, and renders reports with the
// same renderers the CLIs use — so a server-side run is byte-identical
// to the equivalent CLI run (and to the goldens under testdata/).
//
// API (all JSON unless noted):
//
//	POST   /v1/jobs                submit {"kind":"attack|stream|roc","seed":N,"<kind>":{...}}
//	GET    /v1/jobs                list jobs
//	GET    /v1/jobs/{id}           job status
//	GET    /v1/jobs/{id}/report    rendered report, text/plain (?wait=1 blocks until terminal)
//	GET    /v1/jobs/{id}/events    per-cell progress, NDJSON (?wait=1 follows)
//	POST   /v1/jobs/{id}/cancel    cancel (also DELETE /v1/jobs/{id})
//	GET    /healthz                liveness
//	GET    /metrics                runtime telemetry, Prometheus text exposition
//
// The /metrics body carries the job lifecycle counters
// (service_jobs_total{state=...}), dedup cache accounting, HTTP request
// counts and latency histograms by route, and the engine pool's
// per-cell instrumentation (engine_cell_wall_seconds,
// engine_cells_*_total, queue/busy gauges).
//
// With -store-dir set, completed reports persist to a crash-safe
// content-addressed store on disk: a restart on the same directory
// answers repeat submissions from the persisted report without
// re-executing a single engine cell (status carries "restored":true,
// /metrics counts service_store_hits_total). Corrupt or torn entries
// found at startup are quarantined into <dir>/corrupt/, never blocking
// boot; persistent write failure degrades the server to memory-only
// mode (logged, counted, surfaced in /healthz) instead of failing jobs.
//
// -max-job-wall caps (and defaults) every job's wall-clock budget; a
// spec may set its own tighter "deadline_ms". A job that outruns its
// budget stops at the next cell boundary in the distinct
// deadline_exceeded state (report endpoint answers 504).
//
// With -debug-addr set, a SECOND listener (bind it to loopback) serves
// net/http/pprof under /debug/pprof/ and mirrors /metrics, keeping
// profiling endpoints off the public API port.
//
// Example:
//
//	lruleakd -addr 127.0.0.1:7090 &
//	curl -s -X POST 127.0.0.1:7090/v1/jobs -d '{"kind":"attack","seed":7,
//	  "attack":{"victims":["ttable"],"policies":["treeplru"],"symbols":6}}'
//	curl -s '127.0.0.1:7090/v1/jobs/<id>/report?wait=1'
//	curl -s 127.0.0.1:7090/metrics | grep engine_cell_wall_seconds
//
// SIGINT/SIGTERM shut down cleanly: in-flight grids stop at their next
// cell boundary and the listener drains before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7090", "listen address")
		workers    = flag.Int("workers", 0, "persistent engine pool size shared by all jobs (0 = all cores)")
		runners    = flag.Int("runners", 0, "concurrent jobs (0 = pool size)")
		queue      = flag.Int("queue", 0, "accepted-job backlog before 503s (0 = 4096)")
		storeDir   = flag.String("store-dir", "", "durable result store directory; completed reports persist here and survive restarts (empty = memory-only)")
		maxJobWall = flag.Duration("max-job-wall", 0, "cap (and default) on every job's wall-clock budget, e.g. 2m (0 = unlimited)")
		debugAddr  = flag.String("debug-addr", "", "optional second listener serving /debug/pprof/ and /metrics (keep it on loopback)")
		quiet      = flag.Bool("quiet", false, "suppress the per-request access log")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lruleakd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "lruleakd: ", log.LstdFlags)
	cfg := service.Config{
		EngineWorkers: *workers,
		Runners:       *runners,
		QueueDepth:    *queue,
		MaxJobWall:    *maxJobWall,
		Logf:          logger.Printf,
	}
	if *storeDir != "" {
		// A store that cannot even be opened (mkdir failure, unreadable
		// directory) is a deployment error worth dying on; everything
		// after open is the degradation ladder's problem, not a crash.
		disk, err := store.OpenDisk(*storeDir, store.DiskOptions{Logf: logger.Printf})
		if err != nil {
			logger.Fatalf("store: open %s: %v", *storeDir, err)
		}
		st := disk.Scan()
		logger.Printf("store: %s (%d entries loaded, %d quarantined, %d temp files swept)",
			*storeDir, st.Loaded, st.Quarantined, st.TempsRemoved)
		cfg.Store = disk
	}
	svc := service.New(cfg)

	var handler http.Handler = svc
	if !*quiet {
		handler = accessLog(logger, svc)
	}
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers — without it one slow-loris client per worker
	// pins the listener forever.
	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on http://%s (engine workers: %d)", *addr, svc.Workers())

	// The debug listener is separate so pprof never rides on the public
	// API port. An explicit mux (not http.DefaultServeMux) keeps its
	// surface to exactly what is registered here.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("GET /metrics", svc.Registry())
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug listener: %v", err)
			}
		}()
		logger.Printf("debug listener on http://%s (/debug/pprof/, /metrics)", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("%v: shutting down", sig)
	case err := <-errc:
		logger.Printf("serve: %v", err)
		svc.Close()
		os.Exit(1)
	}

	// Stop accepting requests, then cancel every job: running grids
	// abort at their next cell boundary, so shutdown is prompt even
	// mid-sweep.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(ctx)
	}
	svc.Close()
	logger.Printf("bye")
}

// accessLog wraps the service with a one-line-per-request log.
func accessLog(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Printf("%s %s %.1fms", r.Method, r.URL.Path, float64(time.Since(start).Microseconds())/1000)
	})
}
