package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/engine"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"   // a cell panicked or execution errored
	StatusCanceled Status = "canceled" // client cancel or server shutdown
	// StatusDeadline marks a job whose wall-clock budget (the spec's
	// deadline_ms, capped by the server's -max-job-wall) expired before
	// the grid finished. Distinct from canceled so clients and
	// telemetry can tell "you asked us to stop" from "it ran too long".
	StatusDeadline Status = "deadline_exceeded"
)

// terminal reports whether no further transition can happen.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled || s == StatusDeadline
}

// retryable reports whether a resubmission under the same content key
// should start a fresh attempt instead of joining this job: only done
// jobs are cache entries; failed, canceled and expired attempts are
// not results.
func (s Status) retryable() bool {
	return s == StatusFailed || s == StatusCanceled || s == StatusDeadline
}

// ProgressEvent is one serialized engine.Event: cell Index of the
// job's current engine grid finished as the Done'th of Total after
// WallMs host milliseconds. A job may run several grids back to back
// (the ROC sweep's positive and negative phases), so Done/Total are
// per-grid; Seq numbers the events job-wide.
type ProgressEvent struct {
	Seq    int     `json:"seq"`
	Index  int     `json:"index"`
	Done   int     `json:"done"`
	Total  int     `json:"total"`
	Name   string  `json:"name"`
	WallMs float64 `json:"wallMs"`
	// ElapsedNs is the cell's exact host wall time in nanoseconds
	// (WallMs is the same quantity rounded for human eyes).
	ElapsedNs int64 `json:"elapsed_ns"`
}

// Job is one submitted experiment: the unit of deduplication, caching,
// cancellation and failure isolation. All fields behind mu; the
// exported accessors snapshot under the lock.
type Job struct {
	ID   string // "j-" + first 16 hex digits of Key, plus a retry suffix
	Key  string // content address of (normalized spec, seed)
	Spec *Spec  // as compile returned it: validated, names canonical
	// tel is the owning server's telemetry; it accounts lifecycle
	// transitions.
	tel *telemetry

	mu        sync.Mutex
	status    Status
	restored  bool   // report loaded from the durable store, not computed
	report    string // rendered result; the cache payload
	errMsg    string // failure detail (panic value, execution error)
	events    []ProgressEvent
	cellsDone int
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while running
	done      chan struct{}      // closed on any terminal transition
}

func newJob(id, key string, spec *Spec, tel *telemetry) *Job {
	return &Job{
		ID: id, Key: key, Spec: spec, tel: tel,
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
}

// newRestoredJob builds a job that is born terminal: its report was
// loaded from the durable result store (a previous process lifetime
// computed it) rather than executed. It never visits the queue, so no
// queue/running gauges move for it.
func newRestoredJob(id, key string, spec *Spec, report string, tel *telemetry) *Job {
	j := newJob(id, key, spec, tel)
	j.status = StatusDone
	j.restored = true
	j.report = report
	j.finished = time.Now()
	close(j.done)
	return j
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Report returns the rendered report and whether it is available
// (only StatusDone jobs have one).
func (j *Job) Report() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.status == StatusDone
}

// Err returns the failure detail of a failed job.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Events snapshots the progress events recorded so far.
func (j *Job) Events() []ProgressEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ProgressEvent, len(j.events))
	copy(out, j.events)
	return out
}

// recordEvent appends one engine progress event. It is the job's
// engine.Options.Progress callback; the engine serializes calls.
func (j *Job) recordEvent(ev engine.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cellsDone++
	j.events = append(j.events, ProgressEvent{
		Seq: len(j.events), Index: ev.Index, Done: ev.Done, Total: ev.Total,
		Name: ev.Name, WallMs: float64(ev.Wall.Microseconds()) / 1000,
		ElapsedNs: ev.Wall.Nanoseconds(),
	})
}

// transitions; each returns false if the job was already terminal
// (e.g. canceled while the runner was finishing it), in which case the
// caller's result is discarded.

func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	j.tel.jobRunning()
	return true
}

func (j *Job) finish(st Status, report, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return false
	}
	j.tel.jobFinished(j.status, st)
	j.status = st
	j.report = report
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
	return true
}

// requestCancel moves a queued job straight to canceled, or signals a
// running job's context so its grid stops at the next cell boundary
// (the runner then finishes it as canceled). Terminal jobs are left
// alone. Reports whether anything changed.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.tel.jobFinished(StatusQueued, StatusCanceled)
		j.status = StatusCanceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		return true
	}
	if j.status == StatusRunning && j.cancel != nil {
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return true
	}
	j.mu.Unlock()
	return false
}

// JobView is the JSON status representation of a job.
type JobView struct {
	ID        string  `json:"id"`
	Key       string  `json:"key"`
	Kind      string  `json:"kind"`
	Seed      uint64  `json:"seed"`
	Status    Status  `json:"status"`
	Restored  bool    `json:"restored,omitempty"` // served from the durable store
	CellsDone int     `json:"cellsDone"`
	Error     string  `json:"error,omitempty"`
	WallMs    float64 `json:"wallMs,omitempty"`
}

// View snapshots the job for the status endpoints.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, Key: j.Key, Kind: j.Spec.Kind, Seed: j.Spec.Seed,
		Status: j.status, Restored: j.restored, CellsDone: j.cellsDone, Error: j.errMsg,
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.WallMs = float64(end.Sub(j.started).Microseconds()) / 1000
	}
	return v
}
