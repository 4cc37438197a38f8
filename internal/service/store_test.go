package service

// Durability behavior of the server: restart conformance (a persisted
// report survives a process death and is served byte-identical with
// zero engine cells re-executed), persist retry/degradation under
// injected store faults, the per-job wall-clock deadline, and the
// queue-full Retry-After contract. Runs under -race in CI.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/store"
)

// openTestDisk opens a disk store on dir (optionally through a fault
// FS), failing the test on error. The returned store is owned — and
// closed — by the server it is handed to.
func openTestDisk(t *testing.T, dir string, fs store.FS) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(dir, store.DiskOptions{FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open disk store: %v", err)
	}
	return d
}

// statusOf fetches a job's status view.
func statusOf(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return v
}

// The restart conformance test — the durability tentpole end to end.
// Lifetime 1 computes the golden attack grid and persists it; lifetime
// 2, a fresh server on the same store directory, must answer the same
// submission byte-identical to testdata/attacksweep.golden with ZERO
// engine cells executed, proven three ways: an exec seam that counts
// invocations, the engine's own dispatch counter, and the store-hit
// counter in /metrics.
func TestRestartServesPersistedGoldenWithoutRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweeps are not -short")
	}
	dir := t.TempDir()
	spec := conformanceCases[0].spec // the attacksweep golden grid
	want := readGolden(t, "attacksweep")

	// Lifetime 1: compute, persist, die.
	s1, ts1 := newTestServer(t, Config{Store: openTestDisk(t, dir, nil)})
	body, code := postJob(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("lifetime 1 submit: HTTP %d", code)
	}
	report, code := fetchReport(t, ts1, body.ID)
	if code != http.StatusOK {
		t.Fatalf("lifetime 1 report: HTTP %d: %s", code, report)
	}
	if report != want {
		t.Fatal("lifetime 1 report diverges from attacksweep.golden")
	}
	ts1.Close()
	s1.Close() // also closes the disk store

	// Lifetime 2: same directory, fresh process state, execution banned.
	s2, ts2 := newTestServer(t, Config{Store: openTestDisk(t, dir, nil)})
	var execs int32
	s2.exec = func(*Spec, lruleak.RunOptions) string {
		atomic.AddInt32(&execs, 1)
		return "recomputed — durability broken"
	}
	body, code = postJob(t, ts2, spec)
	if code != http.StatusOK || !body.Dedup {
		t.Fatalf("restart submit: HTTP %d dedup=%v, want 200/true (store hit)", code, body.Dedup)
	}
	if !body.Restored || body.Status != StatusDone {
		t.Fatalf("restart submit: restored=%v status=%s, want true/done", body.Restored, body.Status)
	}
	report, code = fetchReport(t, ts2, body.ID)
	if code != http.StatusOK {
		t.Fatalf("restart report: HTTP %d", code)
	}
	if report != want {
		t.Errorf("restored report diverges from attacksweep.golden:\n--- got ---\n%s", report)
	}
	if n := atomic.LoadInt32(&execs); n != 0 {
		t.Errorf("restart executed the grid %d times, want 0", n)
	}
	out := scrape(t, ts2.URL)
	if got := series(t, out, "service_store_hits_total"); got != 1 {
		t.Errorf("service_store_hits_total = %v, want 1", got)
	}
	if got := series(t, out, "engine_cells_dispatched_total"); got != 0 {
		t.Errorf("engine_cells_dispatched_total = %v after restore, want 0", got)
	}
	if got := series(t, out, `service_jobs_total{state="done"}`); got != 1 {
		t.Errorf(`restored job missing from service_jobs_total{state="done"}: %v`, got)
	}
}

// The fast twin of the golden restart test: determinism means the
// persisted report equals the recomputed one, so lifetime 2's restored
// bytes must match lifetime 1's computed bytes exactly.
func TestRestartReportIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Store: openTestDisk(t, dir, nil)})
	body, _ := postJob(t, ts1, tinyAttack(11))
	computed, code := fetchReport(t, ts1, body.ID)
	if code != http.StatusOK {
		t.Fatalf("compute: HTTP %d", code)
	}

	s2, ts2 := newTestServer(t, Config{Store: openTestDisk(t, dir, nil)})
	s2.exec = func(*Spec, lruleak.RunOptions) string { return "MUST NOT RUN" }
	body, _ = postJob(t, ts2, tinyAttack(11))
	restored, code := fetchReport(t, ts2, body.ID)
	if code != http.StatusOK {
		t.Fatalf("restore: HTTP %d", code)
	}
	if restored != computed || computed == "" {
		t.Errorf("restored report differs from the computed one:\n--- restored ---\n%s--- computed ---\n%s",
			restored, computed)
	}
	// A key the store has never seen still computes.
	fresh, _ := postJob(t, ts2, tinyAttack(12))
	if r, code := fetchReport(t, ts2, fresh.ID); code != http.StatusOK || r != "MUST NOT RUN" {
		t.Errorf("novel key: HTTP %d %q, want the seam's output", code, r)
	}
}

// One transient Put failure must be retried and absorbed: the job
// finishes done, the entry lands on disk, and nothing degrades.
func TestPersistRetriesTransientPutFault(t *testing.T) {
	fs := store.NewFaultFS(nil)
	fs.FailWrites(1, 1, nil) // first write ENOSPCs; the retry's write succeeds
	disk := openTestDisk(t, t.TempDir(), fs)
	s, ts := newTestServer(t, Config{Store: disk})
	s.retryBase = time.Millisecond
	body, _ := postJob(t, ts, tinyAttack(21))
	if report, code := fetchReport(t, ts, body.ID); code != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", code, report)
	}
	keys, err := disk.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("store keys after retried persist: %v, %v (want 1 key)", keys, err)
	}
	out := scrape(t, ts.URL)
	if got := series(t, out, "service_store_put_retries_total"); got != 1 {
		t.Errorf("service_store_put_retries_total = %v, want 1", got)
	}
	if got := series(t, out, "service_store_persists_total"); got != 1 {
		t.Errorf("service_store_persists_total = %v, want 1", got)
	}
	if got := series(t, out, "service_store_degraded"); got != 0 {
		t.Errorf("service_store_degraded = %v after a recovered fault, want 0", got)
	}
}

// Persistent store failure must cost durability, never jobs: after the
// backoff ladder is exhausted the server flips to memory-only mode,
// says so in /metrics and /healthz, and stops hammering the dead disk.
func TestPersistentPutFailureDegradesToMemoryOnly(t *testing.T) {
	fs := store.NewFaultFS(nil)
	fs.FailCreates(store.ErrNoSpace) // every Put fails before writing a byte
	s, ts := newTestServer(t, Config{Store: openTestDisk(t, t.TempDir(), fs)})
	s.retryBase = time.Millisecond

	// The job itself must succeed from memory.
	body, _ := postJob(t, ts, tinyAttack(31))
	if report, code := fetchReport(t, ts, body.ID); code != http.StatusOK {
		t.Fatalf("report during disk failure: HTTP %d: %s", code, report)
	}
	out := scrape(t, ts.URL)
	if got := series(t, out, "service_store_degraded"); got != 1 {
		t.Fatalf("service_store_degraded = %v, want 1", got)
	}
	if got := series(t, out, "service_store_put_failures_total"); got != 4 {
		t.Errorf("service_store_put_failures_total = %v, want 4 (initial + 3 retries)", got)
	}

	// healthz stays ok (liveness) but carries the degradation.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(raw), "ok\n") {
		t.Fatalf("healthz while degraded: %d %q, want 200 starting with ok", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "degraded (memory-only)") {
		t.Errorf("healthz does not surface the degradation: %q", raw)
	}

	// Once degraded, later jobs skip the dead disk entirely: no new Put
	// attempts, no new failures — and they still finish.
	next, _ := postJob(t, ts, tinyAttack(32))
	if _, code := fetchReport(t, ts, next.ID); code != http.StatusOK {
		t.Fatal("server stopped running jobs after degrading")
	}
	out = scrape(t, ts.URL)
	if got := series(t, out, "service_store_put_failures_total"); got != 4 {
		t.Errorf("degraded server still hammering the disk: %v put failures, want 4", got)
	}
	if got := series(t, out, "service_store_persists_total"); got != 0 {
		t.Errorf("service_store_persists_total = %v on a dead disk, want 0", got)
	}
}

// deadlineSpec is a tiny attack spec carrying a deadline_ms field.
func deadlineSpec(seed, deadlineMS int) string {
	return fmt.Sprintf(`{"kind":"attack","seed":%d,"deadline_ms":%d,"attack":{"victims":["ttable"],"policies":["treeplru"],"defenses":["none"],"symbols":2,"votes":1,"profilingRounds":1}}`, seed, deadlineMS)
}

// A job that outruns its wall-clock budget must finish in the distinct
// deadline_exceeded state: 504 on the report, its own telemetry series,
// and a resubmission starts a fresh attempt (an expired run is not a
// cache entry). Exercised both ways the budget can arrive: the spec's
// deadline_ms and the server-wide MaxJobWall cap.
func TestJobDeadlineExceeded(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		spec string
	}{
		{"spec deadline_ms", Config{}, deadlineSpec(41, 30)},
		{"server max-job-wall", Config{MaxJobWall: 30 * time.Millisecond}, tinyAttack(42)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			s.exec = func(c *Spec, opt lruleak.RunOptions) string {
				<-opt.Context.Done() // a grid that never finishes in time
				return ""
			}
			body, code := postJob(t, ts, tc.spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", code)
			}
			report, code := fetchReport(t, ts, body.ID)
			if code != http.StatusGatewayTimeout {
				t.Fatalf("report after deadline: HTTP %d (%s), want 504", code, report)
			}
			v := statusOf(t, ts, body.ID)
			if v.Status != StatusDeadline {
				t.Fatalf("status %s, want %s", v.Status, StatusDeadline)
			}
			if !strings.Contains(v.Error, "deadline") {
				t.Errorf("error detail %q does not name the deadline", v.Error)
			}
			out := scrape(t, ts.URL)
			if got := series(t, out, `service_jobs_total{state="deadline_exceeded"}`); got != 1 {
				t.Errorf(`service_jobs_total{state="deadline_exceeded"} = %v, want 1`, got)
			}
			// Expired attempts retry rather than joining the husk.
			retry, code := postJob(t, ts, tc.spec)
			if code != http.StatusAccepted || retry.ID == body.ID {
				t.Fatalf("resubmit after deadline: HTTP %d id=%s (original %s), want a fresh 202",
					code, retry.ID, body.ID)
			}
		})
	}
}

// The deadline is an execution budget, not part of the experiment:
// specs differing only in deadline_ms share one content key (and one
// cached result), and a negative budget is a field-level 400.
func TestDeadlineExcludedFromContentKey(t *testing.T) {
	parse := func(s string) Spec {
		var sp Spec
		if err := json.Unmarshal([]byte(s), &sp); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a, errs := compile(parse(deadlineSpec(9, 0)))
	if errs != nil {
		t.Fatal(errs)
	}
	b, errs := compile(parse(deadlineSpec(9, 60000)))
	if errs != nil {
		t.Fatal(errs)
	}
	if a.key() != b.key() {
		t.Error("deadline_ms leaked into the content key")
	}
	if _, errs := compile(parse(deadlineSpec(9, -5))); len(errs) == 0 {
		t.Error("negative deadline_ms passed validation")
	}
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(deadlineSpec(9, -5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative deadline_ms: HTTP %d, want 400", resp.StatusCode)
	}
}

// A queue-full 503 must carry Retry-After so well-behaved clients back
// off instead of hammering.
func TestQueueFullSetsRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Runners: 1, QueueDepth: 1})
	block := make(chan struct{})
	var once sync.Once
	inner := s.exec
	s.exec = func(c *Spec, opt lruleak.RunOptions) string {
		<-block
		return inner(c, opt)
	}
	defer once.Do(func() { close(block) })

	postJob(t, ts, tinyAttack(51)) // occupies the runner
	deadline := time.Now().Add(5 * time.Second)
	for { // fills the queue once the runner picks job 1 up
		if _, code := postJob(t, ts, tinyAttack(52)); code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained into the runner")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinyAttack(53)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	once.Do(func() { close(block) })
}
