package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine_cells_completed_total", "cells that ran to completion")
	c.Add(41)
	c.Inc()
	g := r.Gauge("engine_queue_depth", "jobs waiting")
	g.Set(7)
	g.Dec()
	h := r.Histogram("engine_cell_wall_seconds", "per-cell wall time", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.CounterVec("service_jobs_total", "jobs by terminal state", "state")
	v.With("done").Add(3)
	v.With("failed").Inc()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE engine_cells_completed_total counter\n",
		"engine_cells_completed_total 42\n",
		"# HELP engine_queue_depth jobs waiting\n",
		"engine_queue_depth 6\n",
		"# TYPE engine_cell_wall_seconds histogram\n",
		`engine_cell_wall_seconds_bucket{le="0.1"} 1` + "\n",
		`engine_cell_wall_seconds_bucket{le="1"} 2` + "\n",
		`engine_cell_wall_seconds_bucket{le="+Inf"} 3` + "\n",
		"engine_cell_wall_seconds_sum 5.55\n",
		"engine_cell_wall_seconds_count 3\n",
		`service_jobs_total{state="done"} 3` + "\n",
		`service_jobs_total{state="failed"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Families are sorted by name.
	if strings.Index(out, "engine_cell_wall_seconds") > strings.Index(out, "service_jobs_total") {
		t.Error("families not sorted by name")
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "a_total 1\n") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

// Re-registering a name hands back the live series, which is how the
// engine, service and benchmark tests read their instruments.
func TestRegistryReregistrationReadsSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_done_total", "").Add(5)
	r.CounterVec("http_requests_total", "", "route", "code").With("/v1/jobs", "200").Add(9)
	h := r.Histogram("lat_seconds", "", []float64{1})
	h.Observe(0.25)
	h.Observe(0.75)

	if got := r.Counter("jobs_done_total", "").Value(); got != 5 {
		t.Errorf("jobs_done_total = %d", got)
	}
	if got := r.CounterVec("http_requests_total", "", "route", "code").With("/v1/jobs", "200").Value(); got != 9 {
		t.Errorf("labeled series = %d", got)
	}
	again := r.Histogram("lat_seconds", "", []float64{1})
	if again.Count() != 2 || again.Sum() != 1 {
		t.Errorf("histogram: count=%d sum=%v, want 2/1", again.Count(), again.Sum())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("h_seconds", "", []float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 2000 {
		t.Fatalf("histogram count=%d sum=%v, want 8000/2000", h.Count(), h.Sum())
	}
}
