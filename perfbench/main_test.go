package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The metric tables in main.go and BENCHMARK.json must agree, or the
// result would not carry what the benchmark declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, main.go %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), main.go %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, main.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, main.go %s", i, w.Name, workloads[i])
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 12}}
	if got := covered(iv, 0, 10); got != 3+5 {
		t.Errorf("covered = %d, want 8", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

func TestSpeedFactor(t *testing.T) {
	var s speed
	if f := s.factor(); f != 1 {
		t.Errorf("factor with no samples = %v, want 1", f)
	}
	s.sample(2)
	if len(s.samples) != 2 || s.samples[0] <= 0 || s.samples[1] <= 0 {
		t.Fatalf("samples = %v, want two positive CPU times", s.samples)
	}
	if f := s.factor(); f != refNominalMs/median(s.samples) {
		t.Errorf("factor = %v, want %v", f, refNominalMs/median(s.samples))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.95); got != 4.8 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
}

// assertNothingLeft checks what a daemon-jobs run must not leave
// behind: its temp store directory, its listener's port, and the
// server's goroutines.
func assertNothingLeft(t *testing.T, r *run, goroutines int) {
	t.Helper()
	if r.lastDir == "" || r.lastAddr == "" {
		t.Fatal("the run never started its daemon")
	}
	if _, err := os.Stat(r.lastDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp dir %s still exists (%v)", r.lastDir, err)
	}
	ln, err := net.Listen("tcp", r.lastAddr)
	if err != nil {
		t.Errorf("port %s is still taken: %v", r.lastAddr, err)
	} else {
		ln.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left, %d before the run:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

func daemonConfig(root string) config {
	return config{root: root, workload: "daemon-jobs", seed: 5, seconds: 1}
}

func TestDaemonCleansUpAfterCompletedRun(t *testing.T) {
	g := runtime.NumGoroutine()
	var out bytes.Buffer
	r, err := execute(context.Background(), daemonConfig(".."), &out)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted < 4 {
		t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
	}
	assertNothingLeft(t, r, g)
}

func TestDaemonCleansUpAfterFailedCheck(t *testing.T) {
	root := t.TempDir()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "testdata", "attacksweep.golden"), []byte("wrong\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := runtime.NumGoroutine()
	var out bytes.Buffer
	if code := benchmain(context.Background(), daemonConfig(root), &out); code == 0 {
		t.Error("a failed golden check exited 0")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result does not report the failed check:\n%s", out.String())
	}
	r, _ := execute(context.Background(), daemonConfig(root), &out)
	if r.failed == 0 {
		t.Error("the wrong golden was not counted as a failure")
	}
	assertNothingLeft(t, r, g)
}

func TestDaemonCleansUpAfterDeadline(t *testing.T) {
	g := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	cfg := daemonConfig("..")
	cfg.seconds = 30
	var out bytes.Buffer
	r, err := execute(ctx, cfg, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the deadline", err)
	}
	assertNothingLeft(t, r, g)
}

func TestDaemonCleansUpAfterSignal(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		// os/signal's delivery goroutine, started by the first Notify,
		// lives for the rest of the process.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		g := runtime.NumGoroutine()
		timer := time.AfterFunc(500*time.Millisecond, func() { syscall.Kill(os.Getpid(), sig) })
		cfg := daemonConfig("..")
		cfg.seconds = 30
		var out bytes.Buffer
		r, err := execute(ctx, cfg, &out)
		timer.Stop()
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want cancellation", sig, err)
		}
		assertNothingLeft(t, r, g)
		if code := benchmain(ctx, cfg, &out); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: an interrupted run exited %d or printed a result", sig, code)
		}
	}
}

// A traced grid run reports every per-layer metric finite, and its cell
// spans account for the grid's wall time the way engine.busy_frac says.
func TestTracedGridRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a grid workload")
	}
	cfg := config{root: "..", workload: "leakage-board", seed: 2, seconds: 1, trace: true}
	var out bytes.Buffer
	r, err := execute(context.Background(), cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("failed %d of %d checks", r.failed, r.attempted)
	}
	if err := r.printResult(); err != nil {
		t.Fatal(err)
	}
	if b := r.layer["engine.busy_frac"]; b <= 0 || b > 1.05 {
		t.Errorf("engine.busy_frac = %v, want in (0, 1]", b)
	}
	for _, m := range []string{"replacement.touch_ns", "hier.load_ns", "sched.handoff_ns", "leakage.eval_ms", "trace.self_ms.cell"} {
		if r.layer[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, r.layer[m])
		}
	}
}
