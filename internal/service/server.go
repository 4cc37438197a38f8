package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Config sizes the server.
type Config struct {
	// EngineWorkers is the persistent engine pool size shared by every
	// job's cells; <= 0 selects engine.DefaultWorkers().
	EngineWorkers int
	// Runners is how many jobs may execute concurrently (their cells
	// all land on the one shared pool); <= 0 selects the pool size.
	Runners int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs;
	// <= 0 selects 4096. A full queue rejects submissions with 503.
	QueueDepth int

	// Store, if set, is the durable result store: completed job
	// reports persist under their content key after render, and a
	// submission whose key is already persisted is answered as a job
	// born done — dedup across process lifetimes, zero engine cells.
	// The server owns the store once handed over and closes it in
	// Close. Nil runs memory-only.
	Store store.Store
	// MaxJobWall caps (and, for specs that set no deadline_ms,
	// defaults) every job's wall-clock budget; 0 = unlimited.
	MaxJobWall time.Duration
	// Logf, if set, receives operational notices (store degradation,
	// persist retries). The daemon passes its logger; nil is silent.
	Logf func(format string, args ...any)
}

// Server is the leakage-analysis job server: a job store, a runner
// pool draining the queue, and the persistent engine pool the runners
// shard their cells onto. It implements http.Handler.
type Server struct {
	cfg  Config
	pool *engine.Pool
	tel  *telemetry

	mu       sync.Mutex
	jobs     map[string]*Job // by ID
	byKey    map[string]*Job // latest attempt per content key
	attempts map[string]int  // submissions that created a job, per key
	order    []string        // IDs in creation order

	// storeDown flips once, when persist retries are exhausted: the
	// degradation ladder's memory-only rung. Writes stop (reads are
	// still attempted — a full disk usually keeps serving reads) and
	// healthz + /metrics surface the reason. Sticky until restart.
	storeDown   bool
	storeReason string

	queue  chan *Job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in HTTP instrumentation

	// exec runs a validated spec; replaced by tests to inject failures.
	exec func(*Spec, lruleak.RunOptions) string
	// retryBase is the first persist-retry delay (storeRetryBase);
	// tests shrink it.
	retryBase time.Duration
}

// storePutRetries is how many backoff retries a failed persist gets
// before the server degrades to memory-only mode.
const storePutRetries = 3

// storeRetryBase is the first persist-retry delay, doubling per attempt
// and capped at 2s.
const storeRetryBase = 50 * time.Millisecond

// New starts a server: the engine pool and the job runners come up
// immediately and live until Close.
func New(cfg Config) *Server {
	if cfg.EngineWorkers <= 0 {
		cfg.EngineWorkers = engine.DefaultWorkers()
	}
	if cfg.Runners <= 0 {
		cfg.Runners = cfg.EngineWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	tel := newTelemetry()
	s := &Server{
		cfg:       cfg,
		pool:      engine.NewPoolWithTelemetry(cfg.EngineWorkers, tel.engine),
		tel:       tel,
		jobs:      map[string]*Job{},
		byKey:     map[string]*Job{},
		attempts:  map[string]int{},
		queue:     make(chan *Job, cfg.QueueDepth),
		exec:      (*Spec).run,
		retryBase: storeRetryBase,
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", tel.reg)
	s.handler = tel.instrument(s.mux)
	s.wg.Add(cfg.Runners)
	for i := 0; i < cfg.Runners; i++ {
		go s.runner()
	}
	return s
}

// Workers reports the engine pool size (for logging and benches).
func (s *Server) Workers() int { return s.pool.Workers() }

// Close cancels every queued and running job, waits for the runners to
// drain, and releases the engine pool and the durable store. Running
// grids stop at their next cell boundary; completed cells keep their
// results but the jobs finish canceled. Reports persisted before the
// Close stay persisted — that is the point of the store.
func (s *Server) Close() {
	s.once.Do(func() {
		s.cancel()
		s.wg.Wait()
		s.mu.Lock()
		for _, j := range s.jobs {
			j.finish(StatusCanceled, "", "server shutdown")
		}
		s.mu.Unlock()
		s.pool.Close()
		if s.cfg.Store != nil {
			s.cfg.Store.Close()
		}
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Registry exposes the server's telemetry registry: the body of GET
// /metrics, and the hook point for additional process-level series
// (cmd/lruleakd mirrors it onto the debug listener).
func (s *Server) Registry() *metrics.Registry { return s.tel.reg }

// --- job lifecycle ---

// Submit validates a spec and answers it from the cheapest source
// that has it: an in-process job with the same content key (dedup
// join), the durable store (a previous process lifetime computed it —
// the job comes back born done, zero engine cells), or a fresh queued
// job. The bool reports a dedup/store hit. It is the programmatic
// core of POST /v1/jobs.
func (s *Server) Submit(spec Spec) (*Job, bool, error) {
	valid, fieldErrs := compile(spec)
	if len(fieldErrs) > 0 {
		return nil, false, &ValidationError{Fields: fieldErrs}
	}
	key := valid.key()

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.byKey[key]; ok {
		// Queued, running and done attempts are joinable: the job IS
		// the cache entry. Failed, canceled and deadline-expired
		// attempts are not — a resubmission retries with a fresh job
		// under the same key (and may still hit the store below, e.g.
		// a report persisted before an attempt that was canceled).
		if st := prev.Status(); !st.retryable() {
			s.tel.dedup(true)
			return prev, true, nil
		}
	}
	if j, ok := s.restoreLocked(key, valid); ok {
		return j, true, nil
	}
	s.attempts[key]++
	id := s.jobIDLocked(key)
	j := newJob(id, key, valid, s.tel)
	select {
	case s.queue <- j:
	default:
		s.attempts[key]--
		return nil, false, ErrQueueFull
	}
	s.tel.dedup(false)
	s.tel.jobQueued()
	s.jobs[id] = j
	s.byKey[key] = j
	s.order = append(s.order, id)
	return j, false, nil
}

// jobIDLocked allocates the next job ID for key: the key prefix, plus
// a retry suffix when earlier attempts exist. Caller holds s.mu and
// has already incremented s.attempts[key].
func (s *Server) jobIDLocked(key string) string {
	id := "j-" + key[:16]
	if n := s.attempts[key]; n > 1 {
		id = fmt.Sprintf("%s-r%d", id, n)
	}
	return id
}

// restoreLocked consults the durable store for a persisted report
// under key and, on a verified hit, registers a job born done serving
// it. Store read errors (including a quarantined-corrupt entry) are
// misses: the job recomputes, and determinism guarantees the rewrite
// is byte-identical. Caller holds s.mu.
func (s *Server) restoreLocked(key string, spec *Spec) (*Job, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	payload, err := s.cfg.Store.Get(key)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			s.logf("store: get %s: %v (recomputing)", key[:16], err)
		}
		s.tel.storeMiss()
		return nil, false
	}
	s.attempts[key]++
	id := s.jobIDLocked(key)
	j := newRestoredJob(id, key, spec, string(payload), s.tel)
	s.tel.jobRestored()
	s.jobs[id] = j
	s.byKey[key] = j
	s.order = append(s.order, id)
	return j, true
}

// logf forwards to Config.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// JobByID looks a job up.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job on the shared pool. Four exits: done with a
// rendered (and, when a store is configured, persisted) report,
// deadline_exceeded (the job's wall-clock budget ran out), canceled
// (job context or server shutdown), or failed — a panicking cell is
// recovered by the engine, re-raised after the grid drains, and
// caught here, so it takes down exactly one job, never the process or
// a sibling job's work.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	if d := s.jobDeadline(j); d > 0 {
		cancel()
		ctx, cancel = context.WithTimeout(s.ctx, d)
	}
	defer cancel()
	if !j.markRunning(cancel) {
		return // canceled while queued
	}
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("%v", r)
			if pe, ok := r.(*engine.PanicError); ok {
				msg = fmt.Sprintf("cell %q panicked: %v", pe.Job, pe.Value)
			}
			j.finish(StatusFailed, "", msg)
		}
	}()
	report := s.exec(j.Spec, lruleak.RunOptions{
		Pool:     s.pool,
		Context:  ctx,
		Progress: j.recordEvent,
	})
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			j.finish(StatusDeadline, "", fmt.Sprintf("deadline of %v exceeded", s.jobDeadline(j)))
		} else {
			j.finish(StatusCanceled, "", err.Error())
		}
		return
	}
	// Persist BEFORE marking done: once a client sees status done, the
	// report is already durable (or the server has degraded) — the
	// guarantee the crash-restart CI smoke leans on.
	s.persist(j.Key, report)
	j.finish(StatusDone, report, "")
}

// jobDeadline resolves a job's effective wall-clock budget: the spec's
// deadline_ms, capped by (or defaulting to) the server's MaxJobWall.
func (s *Server) jobDeadline(j *Job) time.Duration {
	d := time.Duration(j.Spec.DeadlineMS) * time.Millisecond
	if max := s.cfg.MaxJobWall; max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}

// persist durably stores a finished report under its content key,
// retrying transient failures with capped exponential backoff. When
// the retries are exhausted the server flips to memory-only mode:
// jobs keep succeeding from memory, the degradation is logged,
// counted in /metrics, and surfaced in healthz. Never called once
// degraded — Put storms on a dead disk would only slow every job.
func (s *Server) persist(key, report string) {
	if s.cfg.Store == nil || s.degradedStore() != "" {
		return
	}
	delay := s.retryBase
	var err error
	for attempt := 0; ; attempt++ {
		if err = s.cfg.Store.Put(key, []byte(report)); err == nil {
			s.tel.storePersist()
			return
		}
		if attempt >= storePutRetries {
			s.tel.storePutFailure(false)
			break
		}
		s.tel.storePutFailure(true)
		s.logf("store: put %s failed (attempt %d/%d), retrying in %v: %v",
			key[:16], attempt+1, storePutRetries+1, delay, err)
		select {
		case <-time.After(delay):
		case <-s.ctx.Done():
			return // shutting down; not a disk verdict
		}
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
	s.mu.Lock()
	if !s.storeDown {
		s.storeDown = true
		s.storeReason = err.Error()
		s.tel.storeDegrade()
		s.logf("store: degrading to memory-only mode after %d failed attempts: %v", storePutRetries+1, err)
	}
	s.mu.Unlock()
}

// degradedStore returns the degradation reason, or "" while healthy.
func (s *Server) degradedStore() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.storeDown {
		return ""
	}
	return s.storeReason
}

// ErrQueueFull rejects submissions when the backlog is at QueueDepth.
var ErrQueueFull = fmt.Errorf("service: job queue is full")

// ValidationError carries the field-level findings of a rejected spec.
type ValidationError struct {
	Fields []FieldError
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("service: invalid spec (%d field errors)", len(e.Fields))
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error  string       `json:"error"`
	Fields []FieldError `json:"fields,omitempty"`
}

type submitBody struct {
	JobView
	Dedup bool `json:"dedup"`
}

// maxSpecBytes caps a POST /v1/jobs body. Specs are small JSON
// documents (the conformance specs are under 200 bytes); the cap only
// keeps a hostile or broken client from making the server buffer an
// unbounded body.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	j, dedup, err := s.Submit(spec)
	switch err := err.(type) {
	case nil:
	case *ValidationError:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid spec", Fields: err.Fields})
		return
	default:
		// A full queue is a transient condition: tell well-behaved
		// clients when to come back instead of letting them hammer.
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if dedup {
		code = http.StatusOK
	}
	writeJSON(w, code, submitBody{JobView: j.View(), Dedup: dedup})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].View())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.View())
	}
}

// handleReport serves the rendered report. With ?wait=1 it blocks
// until the job is terminal (or the client goes away), which gives
// clients submit-then-fetch semantics without polling.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	switch st := j.Status(); st {
	case StatusDone:
		report, _ := j.Report()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, report)
	case StatusFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: j.Err()})
	case StatusCanceled:
		writeJSON(w, http.StatusGone, errorBody{Error: "job canceled: " + j.Err()})
	case StatusDeadline:
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "job " + j.Err()})
	default:
		writeJSON(w, http.StatusConflict, j.View())
	}
}

// handleHealthz is the liveness probe. The first line is always "ok" —
// a degraded store never makes the server unhealthy, it makes it
// memory-only — and the degradation, when present, is a second line a
// human or a probe regex can pick up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	if reason := s.degradedStore(); reason != "" {
		fmt.Fprintf(w, "store: degraded (memory-only): %s\n", reason)
	}
}

// handleEvents streams the job's per-cell progress as NDJSON. The
// snapshot so far is always written; with ?wait=1 the response keeps
// following new events until the job is terminal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	emit := func() {
		for _, ev := range j.Events()[next:] {
			enc.Encode(ev)
			next++
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit()
	if r.URL.Query().Get("wait") != "1" {
		return
	}
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-j.Done():
			emit()
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			emit()
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.View())
}
