package engine

import (
	"time"

	"repro/internal/metrics"
)

// Telemetry is the engine's runtime instrumentation: per-cell lifecycle
// counters, a wall-time histogram, and load gauges, registered on a
// metrics.Registry (the daemon's /metrics surface). All hook methods
// are nil-receiver safe, so an uninstrumented run — the CLI default —
// pays a single nil check per hook and nothing else.
type Telemetry struct {
	dispatched *metrics.Counter
	completed  *metrics.Counter
	panicked   *metrics.Counter
	skipped    *metrics.Counter
	queueDepth *metrics.Gauge
	busy       *metrics.Gauge
	cellWall   *metrics.Histogram
}

// NewTelemetry registers the engine's instrument families on r and
// returns the hook set. Registering twice on one registry returns
// instruments backed by the same series.
func NewTelemetry(r *metrics.Registry) *Telemetry {
	return &Telemetry{
		dispatched: r.Counter("engine_cells_dispatched_total",
			"cells handed to a worker (skipped cells are not dispatched)"),
		completed: r.Counter("engine_cells_completed_total",
			"cells that ran to completion"),
		panicked: r.Counter("engine_cells_panicked_total",
			"cells whose job function panicked (recovered per cell)"),
		skipped: r.Counter("engine_cells_skipped_total",
			"cells skipped by context cancellation before starting"),
		queueDepth: r.Gauge("engine_queue_depth",
			"cells enqueued in Run calls and not yet started or skipped"),
		busy: r.Gauge("engine_workers_busy",
			"workers currently executing a cell"),
		cellWall: r.Histogram("engine_cell_wall_seconds",
			"per-cell host wall time", nil),
	}
}

func (t *Telemetry) enqueue(n int) {
	if t == nil {
		return
	}
	t.queueDepth.Add(int64(n))
}

// dispatch marks a cell leaving the queue for a worker.
func (t *Telemetry) dispatch() {
	if t == nil {
		return
	}
	t.queueDepth.Dec()
	t.dispatched.Inc()
	t.busy.Inc()
}

// done marks a dispatched cell finished, panicked or not.
func (t *Telemetry) done(wall time.Duration, panicked bool) {
	if t == nil {
		return
	}
	t.busy.Dec()
	if panicked {
		t.panicked.Inc()
	} else {
		t.completed.Inc()
	}
	t.cellWall.Observe(wall.Seconds())
}

// skip marks a cell that left the queue without running.
func (t *Telemetry) skip() {
	if t == nil {
		return
	}
	t.queueDepth.Dec()
	t.skipped.Inc()
}
