package service

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// telemetry is the server's runtime instrumentation: job lifecycle
// counters and gauges, dedup cache accounting, HTTP request counts and
// latency, plus the engine pool's cell-level hooks — all on one
// Registry, the body of GET /metrics.
type telemetry struct {
	reg    *metrics.Registry
	engine *engine.Telemetry

	jobs        *metrics.CounterVec // service_jobs_total{state}: state ENTRIES
	dedupHits   *metrics.Counter
	dedupMisses *metrics.Counter
	queued      *metrics.Gauge
	running     *metrics.Gauge
	httpReqs    *metrics.CounterVec   // service_http_requests_total{route,code}
	httpLat     *metrics.HistogramVec // service_http_request_seconds{route}

	// Durable result store accounting (all zero when no store is
	// configured): hits are submissions answered from a prior process
	// lifetime's persisted report, with zero engine cells executed.
	storeHits       *metrics.Counter
	storeMisses     *metrics.Counter
	storePersists   *metrics.Counter
	storePutRetries *metrics.Counter
	storePutFails   *metrics.Counter
	storeDegraded   *metrics.Gauge
}

func newTelemetry() *telemetry {
	reg := metrics.NewRegistry()
	return &telemetry{
		reg:    reg,
		engine: engine.NewTelemetry(reg),
		jobs: reg.CounterVec("service_jobs_total",
			"job lifecycle state entries (queued, running, done, failed, canceled)", "state"),
		dedupHits: reg.Counter("service_dedup_hits_total",
			"submissions joined onto an existing job with the same content key"),
		dedupMisses: reg.Counter("service_dedup_misses_total",
			"submissions that created a fresh job"),
		queued: reg.Gauge("service_jobs_queued",
			"jobs accepted and waiting for a runner"),
		running: reg.Gauge("service_jobs_running",
			"jobs currently executing on the engine pool"),
		httpReqs: reg.CounterVec("service_http_requests_total",
			"HTTP requests by route pattern and status code", "route", "code"),
		httpLat: reg.HistogramVec("service_http_request_seconds",
			"HTTP request latency by route pattern", nil, "route"),
		storeHits: reg.Counter("service_store_hits_total",
			"submissions served from the durable result store without executing a single engine cell"),
		storeMisses: reg.Counter("service_store_misses_total",
			"submissions whose content key had no usable persisted report"),
		storePersists: reg.Counter("service_store_persists_total",
			"completed reports durably written to the result store"),
		storePutRetries: reg.Counter("service_store_put_retries_total",
			"persist attempts retried after a transient store failure"),
		storePutFails: reg.Counter("service_store_put_failures_total",
			"store Put attempts that returned an error"),
		storeDegraded: reg.Gauge("service_store_degraded",
			"1 when persistent store failure flipped the server to memory-only mode"),
	}
}

// jobQueued accounts a fresh job entering the queue.
func (t *telemetry) jobQueued() {
	t.jobs.With(string(StatusQueued)).Inc()
	t.queued.Inc()
}

// jobRunning accounts the queued → running transition.
func (t *telemetry) jobRunning() {
	t.jobs.With(string(StatusRunning)).Inc()
	t.queued.Dec()
	t.running.Inc()
}

// jobFinished accounts a terminal transition from the given prior
// state (a job canceled while queued never ran).
func (t *telemetry) jobFinished(from, to Status) {
	t.jobs.With(string(to)).Inc()
	switch from {
	case StatusQueued:
		t.queued.Dec()
	case StatusRunning:
		t.running.Dec()
	}
}

// jobRestored accounts a job born done from a persisted report: it
// counts as a done job (the CI scrape's liveness signal) and a store
// hit, but never moves the queue/running gauges — it was never queued.
func (t *telemetry) jobRestored() {
	t.jobs.With(string(StatusDone)).Inc()
	t.storeHits.Inc()
}

func (t *telemetry) storeMiss() {
	t.storeMisses.Inc()
}

func (t *telemetry) storePersist() {
	t.storePersists.Inc()
}

func (t *telemetry) storePutFailure(retrying bool) {
	t.storePutFails.Inc()
	if retrying {
		t.storePutRetries.Inc()
	}
}

func (t *telemetry) storeDegrade() {
	t.storeDegraded.Set(1)
}

func (t *telemetry) dedup(hit bool) {
	if hit {
		t.dedupHits.Inc()
	} else {
		t.dedupMisses.Inc()
	}
}

// statusWriter captures the response code for the request counter. It
// forwards Flush so the NDJSON event stream keeps streaming through
// the instrumentation layer.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the route mux with request counting and latency
// observation, labeled by the mux's matched route pattern (so /v1/jobs/
// {id} variants aggregate under one label, not one series per job ID).
func (t *telemetry) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		t.httpLat.With(route).Observe(time.Since(start).Seconds())
		t.httpReqs.With(route, strconv.Itoa(sw.code)).Inc()
	})
}
