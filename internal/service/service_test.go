package service

// The service's test suite leans on the repo's central invariant:
// engine determinism makes a server-side run byte-identical to the CLI
// run that produced the goldens under ../../testdata, so those files
// are the service's conformance suite. The concurrency tests (dedup,
// cancel mid-grid, panic isolation, queue overflow) all run under
// -race in CI.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// goldenSeed matches determinism_test.go at the repo root: every
// pinned golden was rendered at seed 7.
const goldenSeed = 7

func readGolden(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	return string(raw)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJob submits raw spec JSON and decodes the submit response.
func postJob(t *testing.T, ts *httptest.Server, spec string) (submitBody, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var body submitBody
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return body, resp.StatusCode
}

// fetchReport blocks on ?wait=1 and returns the report body and code.
func fetchReport(t *testing.T, ts *httptest.Server, id string) (string, int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report?wait=1", ts.URL, id))
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	return string(raw), resp.StatusCode
}

// --- conformance: server-rendered reports == CLI goldens ---

// One spec per golden, written the way a client would write it. The
// pinned CLI goldens were produced by the same sweeps at Workers: 1;
// determinism makes the pooled server run byte-identical.
var conformanceCases = []struct {
	name, golden, spec string
}{
	{
		name:   "attack",
		golden: "attacksweep",
		spec:   `{"kind":"attack","seed":7,"attack":{"victims":["ttable"],"policies":["treeplru"],"symbols":6}}`,
	},
	{
		name:   "stream",
		golden: "streamsweep",
		spec:   `{"kind":"stream","seed":7,"stream":{"codecs":["none","hamming74"],"laneCounts":[4],"noiseThreads":[0,3],"payloadBytes":48}}`,
	},
	{
		name:   "roc",
		golden: "roc",
		spec:   `{"kind":"roc","seed":7}`,
	},
}

func TestServerReportsMatchCLIGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweeps are not -short")
	}
	_, ts := newTestServer(t, Config{})
	for _, tc := range conformanceCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			body, code := postJob(t, ts, tc.spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", code)
			}
			report, code := fetchReport(t, ts, body.ID)
			if code != http.StatusOK {
				t.Fatalf("report: HTTP %d: %s", code, report)
			}
			if want := readGolden(t, tc.golden); report != want {
				t.Errorf("server report diverges from %s.golden:\n--- got ---\n%s--- want ---\n%s",
					tc.golden, report, want)
			}
		})
	}
}

// Progress must have streamed: after a grid completes, the events
// endpoint replays one NDJSON line per cell.
func TestEventsStreamPerCell(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := postJob(t, ts, `{"kind":"attack","seed":3,"attack":{"victims":["ttable"],"policies":["treeplru"],"defenses":["none"],"symbols":2,"votes":1,"profilingRounds":1,"trials":4}}`)
	if report, code := fetchReport(t, ts, body.ID); code != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", code, report)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, body.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 { // 1 victim × 1 policy × 1 defense × 4 trials
		t.Fatalf("got %d event lines, want 4:\n%s", len(lines), raw)
	}
	for i, line := range lines {
		var ev ProgressEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event %d is not JSON: %v", i, err)
		}
		if ev.Seq != i || ev.Total != 4 {
			t.Errorf("event %d: seq=%d total=%d", i, ev.Seq, ev.Total)
		}
	}
}

// --- validation: 400 + field-level messages, never a panic ---

func TestValidationRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, spec, wantField string
	}{
		{"unknown kind", `{"kind":"nope","seed":1}`, "kind"},
		{"unknown victim", `{"kind":"attack","seed":1,"attack":{"victims":["caesar"]}}`, "attack.victims[0]"},
		{"unknown policy", `{"kind":"attack","seed":1,"attack":{"policies":["mru2"]}}`, "attack.policies[0]"},
		{"unknown defense", `{"kind":"attack","seed":1,"attack":{"defenses":["magic"]}}`, "attack.defenses[0]"},
		{"unknown probe", `{"kind":"attack","seed":1,"attack":{"probes":["d=x"]}}`, "attack.probes[0]"},
		{"unknown schedule", `{"kind":"attack","seed":1,"attack":{"schedules":["cooperative"]}}`, "attack.schedules[0]"},
		{"unknown cpu", `{"kind":"attack","seed":1,"attack":{"profiles":[{"cpu":"m1"}]}}`, "attack.profiles[0].cpu"},
		{"non-power-of-two sets", `{"kind":"attack","seed":1,"attack":{"profiles":[{"cpu":"sandy","l1Sets":48}]}}`, "attack.profiles[0].l1Sets"},
		{"zero ways", `{"kind":"attack","seed":1,"attack":{"profiles":[{"cpu":"sandy","l1Ways":0}]}}`, "attack.profiles[0].l1Ways"},
		// 8 is a legal power of two but too small for the T-table victim
		// (16 sets); the constructor's panic must come back as a 400.
		{"geometry breaks victim", `{"kind":"attack","seed":1,"attack":{"victims":["ttable"],"profiles":[{"cpu":"sandy","l1Sets":8}]}}`, "attack.victims[0]"},
		{"geometry breaks default victims", `{"kind":"attack","seed":1,"attack":{"profiles":[{"cpu":"sandy","l1Sets":4}]}}`, "attack.victims"},
		{"negative symbols", `{"kind":"attack","seed":1,"attack":{"symbols":-3}}`, "attack.symbols"},
		{"unknown codec", `{"kind":"stream","seed":1,"stream":{"codecs":["turbo"]}}`, "stream.codecs[0]"},
		{"zero lanes", `{"kind":"stream","seed":1,"stream":{"laneCounts":[0]}}`, "stream.laneCounts[0]"},
		{"zero-cycle point", `{"kind":"stream","seed":1,"stream":{"points":[{"tr":0,"ts":8000}]}}`, "stream.points[0].tr"},
		{"oversized payload", `{"kind":"stream","seed":1,"stream":{"payloadBytes":1000000}}`, "stream.payloadBytes"},
		{"negative threshold", `{"kind":"roc","seed":1,"roc":{"thresholds":[-0.5]}}`, "roc.thresholds[0]"},
		{"wrong section", `{"kind":"roc","seed":1,"attack":{}}`, "kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			found := false
			for _, fe := range body.Fields {
				if fe.Field == tc.wantField {
					found = true
					if fe.Message == "" {
						t.Errorf("field %s has no message", fe.Field)
					}
				}
			}
			if !found {
				t.Errorf("no error for field %q in %+v", tc.wantField, body.Fields)
			}
		})
	}
}

// The content key must not care how defaults are spelled: omitting a
// dimension and writing its documented default are the same grid.
func TestContentKeyCanonicalizesDefaults(t *testing.T) {
	parse := func(s string) Spec {
		var sp Spec
		if err := json.Unmarshal([]byte(s), &sp); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a, errs := compile(parse(`{"kind":"attack","seed":9,"attack":{"victims":["ttable"]}}`))
	if errs != nil {
		t.Fatal(errs)
	}
	b, errs := compile(parse(`{"kind":"attack","seed":9,"attack":{"victims":["ttable"],"symbols":8,"votes":4,"profilingRounds":8,"trials":1}}`))
	if errs != nil {
		t.Fatal(errs)
	}
	if a.key() != b.key() {
		t.Error("explicit defaults hash differently from omitted defaults")
	}
	c, _ := compile(parse(`{"kind":"attack","seed":10,"attack":{"victims":["ttable"]}}`))
	if a.key() == c.key() {
		t.Error("different seeds share a content key")
	}
}

// --- concurrency: dedup, cancel, panic isolation (run with -race) ---

// tinyAttack is a sub-second single-cell job for the concurrency tests.
func tinyAttack(seed int) string {
	return fmt.Sprintf(`{"kind":"attack","seed":%d,"attack":{"victims":["ttable"],"policies":["treeplru"],"defenses":["none"],"symbols":2,"votes":1,"profilingRounds":1}}`, seed)
}

func TestDedupReturnsCachedResult(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var execs int32
	inner := s.exec
	s.exec = func(c *compiledSpec, opt lruleak.RunOptions) string {
		atomic.AddInt32(&execs, 1)
		return inner(c, opt)
	}

	// 32 concurrent submissions of one spec must join a single job.
	const clients = 32
	ids := make([]string, clients)
	reports := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, code := postJob(t, ts, tinyAttack(1))
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("client %d: HTTP %d", i, code)
				return
			}
			ids[i] = body.ID
			reports[i], _ = fetchReport(t, ts, body.ID)
		}()
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d landed on job %s, client 0 on %s", i, ids[i], ids[0])
		}
		if reports[i] != reports[0] || reports[i] == "" {
			t.Fatalf("client %d read a different report", i)
		}
	}
	if n := atomic.LoadInt32(&execs); n != 1 {
		t.Errorf("spec executed %d times for %d submissions, want 1", n, clients)
	}

	// A post-completion resubmission is a pure cache hit: HTTP 200 (not
	// 202), dedup flag set, report immediately available.
	body, code := postJob(t, ts, tinyAttack(1))
	if code != http.StatusOK || !body.Dedup || body.Status != StatusDone {
		t.Errorf("resubmit: HTTP %d dedup=%v status=%s, want 200/true/done", code, body.Dedup, body.Status)
	}
	if n := atomic.LoadInt32(&execs); n != 1 {
		t.Errorf("cache hit re-executed the spec (%d executions)", n)
	}

	// A different seed is a different job.
	other, _ := postJob(t, ts, tinyAttack(2))
	if other.ID == ids[0] {
		t.Error("different seed deduplicated onto the same job")
	}
}

func TestCancelMidGridKeepsServerAlive(t *testing.T) {
	// Two engine workers and a 64-cell grid make the job slow enough to
	// cancel deterministically after its first cell completes.
	_, ts := newTestServer(t, Config{EngineWorkers: 2})
	slow := `{"kind":"attack","seed":5,"attack":{"victims":["ttable"],"policies":["treeplru"],"defenses":["none"],"symbols":16,"votes":2,"profilingRounds":4,"trials":64}}`
	body, code := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	// Wait for the first completed cell, then cancel mid-grid.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, body.ID))
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.CellsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%s/cancel", ts.URL, body.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	report, code := fetchReport(t, ts, body.ID)
	if code != http.StatusGone {
		t.Fatalf("report after cancel: HTTP %d (%s), want 410", code, report)
	}
	var final JobView
	r2, _ := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, body.ID))
	json.NewDecoder(r2.Body).Decode(&final)
	r2.Body.Close()
	if final.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", final.Status)
	}
	if final.CellsDone < 1 || final.CellsDone >= 64 {
		t.Errorf("cellsDone %d after mid-grid cancel; completed cells keep results, rest abort", final.CellsDone)
	}

	// The server must still run fresh jobs after the cancel.
	after, _ := postJob(t, ts, tinyAttack(6))
	if report, code := fetchReport(t, ts, after.ID); code != http.StatusOK {
		t.Fatalf("post-cancel job: HTTP %d (%s)", code, report)
	}

	// And a resubmission of the canceled spec retries as a new attempt
	// rather than returning the canceled husk.
	retry, code := postJob(t, ts, slow)
	if code != http.StatusAccepted || retry.ID == body.ID {
		t.Fatalf("resubmit of canceled spec: HTTP %d id=%s (original %s)", code, retry.ID, body.ID)
	}
	// Cancel it too; this test doesn't need the full grid again.
	http.Post(fmt.Sprintf("%s/v1/jobs/%s/cancel", ts.URL, retry.ID), "", nil)
}

// A panicking job must fail alone: sibling jobs in flight finish, the
// server keeps serving, and the panic surfaces as that job's error.
func TestPanicInOneJobLeavesSiblingsIntact(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	inner := s.exec
	s.exec = func(c *compiledSpec, opt lruleak.RunOptions) string {
		if c.seed == 666 {
			panic("injected: invalid config reached a constructor")
		}
		return inner(c, opt)
	}

	var wg sync.WaitGroup
	results := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := i + 1
			if i == 3 {
				seed = 666
			}
			body, _ := postJob(t, ts, tinyAttack(seed))
			_, results[i] = fetchReport(t, ts, body.ID)
		}()
	}
	wg.Wait()
	for i, code := range results {
		want := http.StatusOK
		if i == 3 {
			want = http.StatusInternalServerError
		}
		if code != want {
			t.Errorf("job %d: HTTP %d, want %d", i, code, want)
		}
	}

	// The failed job reports its panic, and the server is still alive.
	body, _ := postJob(t, ts, tinyAttack(666))
	var v JobView
	resp, _ := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, body.ID))
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if v.Status != StatusFailed && v.Status != StatusQueued && v.Status != StatusRunning {
		t.Errorf("resubmitted panicking spec: status %s", v.Status)
	}
	if report, code := fetchReport(t, ts, body.ID); code != http.StatusInternalServerError {
		t.Errorf("panicking job report: HTTP %d (%s)", code, report)
	} else if !strings.Contains(report, "injected") {
		t.Errorf("failure detail lost: %s", report)
	}
	healthy, _ := postJob(t, ts, tinyAttack(7))
	if _, code := fetchReport(t, ts, healthy.ID); code != http.StatusOK {
		t.Error("server unhealthy after panics")
	}
}

// A real constructor panic (not just an exec-seam one) must also fail
// only its job. The victim constructor's sets requirement is a genuine
// panic site; compile validation normally rejects the geometry, so the
// test injects the sabotage past it through the exec seam — the way a
// latent constructor bug would reach a running daemon.
func TestCellPanicFailsJobNotProcess(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	inner := s.exec
	s.exec = func(c *compiledSpec, opt lruleak.RunOptions) string {
		if c.seed == 31337 {
			bad := c.attack
			small := lruleak.SandyBridge()
			small.L1Sets = 2 // ttable needs >= 16; NewTTable panics
			bad.Profiles = []lruleak.Profile{small}
			return lruleak.RenderAttackSweep(lruleak.AttackSweep(bad, c.seed, opt))
		}
		return inner(c, opt)
	}
	body, _ := postJob(t, ts, tinyAttack(31337))
	report, code := fetchReport(t, ts, body.ID)
	if code != http.StatusInternalServerError {
		t.Fatalf("sabotaged job: HTTP %d (%s), want 500", code, report)
	}
	healthy, _ := postJob(t, ts, tinyAttack(8))
	if _, code := fetchReport(t, ts, healthy.ID); code != http.StatusOK {
		t.Error("server died with the panicking cell")
	}
}

func TestQueueOverflowRejectsWith503(t *testing.T) {
	s, ts := newTestServer(t, Config{Runners: 1, QueueDepth: 1})
	block := make(chan struct{})
	var once sync.Once
	inner := s.exec
	s.exec = func(c *compiledSpec, opt lruleak.RunOptions) string {
		<-block
		return inner(c, opt)
	}
	defer once.Do(func() { close(block) })

	// First job occupies the runner, second fills the queue; what the
	// third gets back must be 503, not a hang or a dropped job.
	postJob(t, ts, tinyAttack(1))
	// Wait until the runner has picked up job 1 (queue empty again).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, code := postJob(t, ts, tinyAttack(2)); code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained into the runner")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code := postJob(t, ts, tinyAttack(3)); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", code)
	}
	once.Do(func() { close(block) })
}

// A body over maxSpecBytes is refused with 413 before it is buffered,
// even when it would decode to a valid spec; a normal spec still gets
// through.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	padded := strings.Repeat(" ", 2<<20) + tinyAttack(1)
	if _, code := postJob(t, ts, padded); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: HTTP %d, want 413", code)
	}
	if _, code := postJob(t, ts, tinyAttack(1)); code != http.StatusAccepted {
		t.Fatalf("normal spec after oversized one: HTTP %d, want 202", code)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/j-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(raw)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, raw)
	}
}
