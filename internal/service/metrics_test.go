package service

// The /metrics surface, end to end: a real job through the HTTP API
// leaves the telemetry the scrape asserts on — job lifecycle counters,
// dedup accounting, HTTP latency series, and the engine pool's
// per-cell wall-time histogram. This is the in-process twin of the CI
// curl smoke.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const tinySpec = `{"kind":"attack","seed":3,"attack":{"victims":["ttable"],"policies":["treeplru"],"defenses":["none"],"symbols":2,"votes":1,"profilingRounds":1,"trials":4}}`

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// series extracts the value of one exposition line by exact series
// match (name plus label clause), failing if absent.
func series(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("series %q not in scrape:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", name, m[1], err)
	}
	return v
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{EngineWorkers: 2})

	// Run one real job, plus a dedup resubmission of the same spec.
	body, code := postJob(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if report, code := fetchReport(t, ts, body.ID); code != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", code, report)
	}
	if _, code := postJob(t, ts, tinySpec); code != http.StatusOK {
		t.Fatalf("dedup resubmit: HTTP %d, want 200", code)
	}

	out := scrape(t, ts.URL)

	if got := series(t, out, `service_jobs_total{state="done"}`); got != 1 {
		t.Errorf(`service_jobs_total{state="done"} = %v, want 1`, got)
	}
	if got := series(t, out, `service_jobs_total{state="queued"}`); got != 1 {
		t.Errorf(`service_jobs_total{state="queued"} = %v, want 1`, got)
	}
	if series(t, out, "service_dedup_hits_total") != 1 || series(t, out, "service_dedup_misses_total") != 1 {
		t.Error("dedup accounting off (want 1 hit, 1 miss)")
	}
	if series(t, out, "service_jobs_queued") != 0 || series(t, out, "service_jobs_running") != 0 {
		t.Error("load gauges did not drain to zero")
	}
	// The 4-cell grid landed in the engine histogram.
	if got := series(t, out, "engine_cell_wall_seconds_count"); got != 4 {
		t.Errorf("engine_cell_wall_seconds_count = %v, want 4", got)
	}
	if got := series(t, out, "engine_cells_completed_total"); got != 4 {
		t.Errorf("engine_cells_completed_total = %v, want 4", got)
	}
	// HTTP instrumentation: the submit route was hit twice (202 + 200),
	// and latency series exist labeled by route pattern, not job ID.
	if got := series(t, out, `service_http_requests_total{route="POST /v1/jobs",code="202"}`); got != 1 {
		t.Errorf("submit 202 count = %v, want 1", got)
	}
	if got := series(t, out, `service_http_requests_total{route="POST /v1/jobs",code="200"}`); got != 1 {
		t.Errorf("submit dedup 200 count = %v, want 1", got)
	}
	if got := series(t, out, `service_http_request_seconds_count{route="GET /v1/jobs/{id}/report"}`); got != 1 {
		t.Errorf("report latency count = %v, want 1", got)
	}

	// Re-registering the histogram reads the live series back.
	h := s.Registry().Histogram("engine_cell_wall_seconds", "", nil)
	if n, sum := h.Count(), h.Sum(); n != 4 || sum < 0 {
		t.Fatalf("cell wall histogram: count %d sum %v, want count 4 and sum >= 0", n, sum)
	}
}

// The NDJSON event stream carries elapsed_ns alongside the rounded
// wallMs, and it survives the instrumentation wrapper's statusWriter.
func TestEventsCarryElapsedNs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := postJob(t, ts, tinySpec)
	if report, code := fetchReport(t, ts, body.ID); code != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", code, report)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, body.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var fields map[string]any
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		ns, ok := fields["elapsed_ns"].(float64)
		if !ok || ns <= 0 {
			t.Fatalf("event %d: elapsed_ns = %v, want positive integer", i, fields["elapsed_ns"])
		}
	}
}
