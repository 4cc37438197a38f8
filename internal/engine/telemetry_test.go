package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// TestPooledTelemetryCountsCells runs several grids over one
// instrumented pool (run under -race in CI) and asserts the lifecycle
// counters reconcile exactly with the results: every cell is
// dispatched and completed, the wall histogram saw every cell, and the
// load gauges return to zero.
func TestPooledTelemetryCountsCells(t *testing.T) {
	tel := NewTelemetry(metrics.NewRegistry())
	pool := NewPoolWithTelemetry(4, tel)
	defer pool.Close()

	total := 0
	for run := 0; run < 3; run++ {
		jobs := make([]Job[int], 24)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Name: fmt.Sprintf("run%d/cell%d", run, i),
				Seed: uint64(i),
				Run:  func(seed uint64) int { return int(seed) },
			}
		}
		results := Run(jobs, Options{Pool: pool})
		if len(results) != len(jobs) {
			t.Fatalf("run %d: %d results for %d jobs", run, len(results), len(jobs))
		}
		total += len(results)
	}

	if got := tel.dispatched.Value(); got != uint64(total) {
		t.Errorf("dispatched = %d, want %d", got, total)
	}
	if got := tel.completed.Value(); got != uint64(total) {
		t.Errorf("completed = %d, want %d", got, total)
	}
	if got := tel.cellWall.Count(); got != uint64(total) {
		t.Errorf("wall histogram count = %d, want %d", got, total)
	}
	if tel.panicked.Value() != 0 || tel.skipped.Value() != 0 {
		t.Errorf("panicked=%d skipped=%d, want 0/0", tel.panicked.Value(), tel.skipped.Value())
	}
	if tel.queueDepth.Value() != 0 || tel.busy.Value() != 0 {
		t.Errorf("queue depth=%d busy=%d, want 0/0", tel.queueDepth.Value(), tel.busy.Value())
	}
}

// Skipped cells are accounted as skips, never as dispatches, and the
// queue gauge still drains to zero.
func TestTelemetryCountsSkips(t *testing.T) {
	tel := NewTelemetry(metrics.NewRegistry())
	pool := NewPoolWithTelemetry(2, tel)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every cell is skipped

	jobs := make([]Job[int], 10)
	for i := range jobs {
		jobs[i] = Job[int]{Name: fmt.Sprintf("cell%d", i), Run: func(uint64) int { return 0 }}
	}
	results := Run(jobs, Options{Pool: pool, Context: ctx})
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("cell %s ran after cancel", r.Name)
		}
	}

	if tel.skipped.Value() != 10 || tel.dispatched.Value() != 0 {
		t.Errorf("skipped=%d dispatched=%d, want 10/0", tel.skipped.Value(), tel.dispatched.Value())
	}
	if tel.queueDepth.Value() != 0 {
		t.Errorf("queue depth = %d, want 0", tel.queueDepth.Value())
	}
}

// Panicking cells land in the panicked counter; completed counts only
// clean cells.
func TestTelemetryCountsPanics(t *testing.T) {
	tel := NewTelemetry(metrics.NewRegistry())
	pool := NewPoolWithTelemetry(1, tel)
	defer pool.Close()
	jobs := []Job[int]{
		{Name: "ok", Run: func(uint64) int { return 1 }},
		{Name: "boom", Run: func(uint64) int { panic("boom") }},
		{Name: "ok2", Run: func(uint64) int { return 2 }},
	}
	Run(jobs, Options{Pool: pool, ContainPanics: true})

	if tel.panicked.Value() != 1 || tel.completed.Value() != 2 {
		t.Errorf("panicked=%d completed=%d, want 1/2", tel.panicked.Value(), tel.completed.Value())
	}
	if tel.cellWall.Count() != 3 {
		t.Errorf("wall histogram count = %d, want 3 (panicked cells still timed)", tel.cellWall.Count())
	}
}
