// Command perfbench is the repository's benchmark. It runs one workload
// in one process through the same root-package sweeps, renderers and
// service the CLIs and lruleakd use, checks every output, and prints
// one JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload roc-detect --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, from spans recorded around
// each layer's calls plus the ladder probes, and the spans are written
// to .bench_build/perfbench/. BENCHMARK.json at the repository root
// lists the workloads, the reason each was chosen, and the metrics.
//
// The end-to-end times are process CPU time, not wall time: other
// guests on a shared host stretch wall time by as much as twice from
// one run to the next. CPU time leaves out the time the host ran
// something else; the slowdown that remains, of the CPU itself, is
// measured between operations with a fixed reference kernel, and
// setup_s and op_cpu_ms are scaled by it to the reference host (see
// speed). Wall times and the unscaled CPU times are printed beside
// them.
//
// The process starts no child process. Every exit path — a completed
// run, a failed check, the run deadline, SIGINT or SIGTERM — closes
// what the workload opened (the daemon workload's listener, server and
// store) and removes its temporary directory before exiting.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/engine"
)

// runDeadline bounds a whole run, set-up included, below the 180 s a
// run may take; past it the run is abandoned and exits non-zero.
const runDeadline = 170 * time.Second

type config struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// engineWorkers is the engine pool size of every workload: one worker
// per CPU, as the CLIs default to.
var engineWorkers = runtime.NumCPU()

// run is one benchmark run: its checks, its metrics and, when traced,
// its spans.
type run struct {
	cfg   config
	ctx   context.Context
	start time.Time
	out   io.Writer
	tr    *tracer

	attempted, failed int
	e2e, layer        map[string]float64
	// setupSpeed and speed sample the host's speed between the set-ups
	// and between the timed operations; setup_s and op_cpu_ms are
	// scaled to the reference host by them.
	setupSpeed, speed speed
	// rss is the resident set, sampled after every engine cell of the
	// timed window (grid workloads) or every job (daemon-jobs).
	rss []float64

	// The daemon workload's last listener address and temp dir, kept
	// so a test can check both are gone after the run.
	lastAddr, lastDir string
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics a result carries, with their
// units; BENCHMARK.json lists the same names (the package test checks).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"replacement.touch_ns", "ns"},
	{"replacement.fill_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"cache.batch_ns_per_access", "ns"},
	{"hier.loadbatch_ns_per_access", "ns"},
	{"hier.load_ns", "ns"},
	{"workload.next_ns", "ns"},
	{"sched.handoff_ns", "ns"},
	{"sched.goroutines_after_run", "count"},
	{"attack.run_ms.none", "ms"},
	{"attack.run_ms.plcache", "ms"},
	{"attack.run_ms.plcache-fix", "ms"},
	{"attack.run_ms.randomfill", "ms"},
	{"attack.run_ms.dawg", "ms"},
	{"leakage.enumerate_ms", "ms"},
	{"leakage.eval_ms", "ms"},
	{"engine.cell_p50_ms", "ms"},
	{"engine.cell_tail_ms", "ms"},
	{"engine.busy_frac", "frac"},
	{"service.submit_ms", "ms"},
	{"service.report_wait_ms", "ms"},
	{"service.dedup_hit_frac", "frac"},
	{"service.rejected", "count"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.put_failures", "count"},
	{"metrics.scrape_ms", "ms"},
	{"metrics.scrape_bytes", "bytes"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.self_ms.grid", "ms"},
	{"trace.self_ms.cell", "ms"},
	{"trace.self_ms.submit", "ms"},
	{"trace.self_ms.report_wait", "ms"},
	{"trace.self_ms.store", "ms"},
	{"trace.self_ms.scrape", "ms"},
}

var workloads = []string{"roc-detect", "stream-sched", "leakage-board", "daemon-jobs"}

func main() {
	var cfg config
	flag.StringVar(&cfg.root, "root", ".", "repository root (holds testdata/ and BENCHMARK.json)")
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	os.Exit(benchmain(ctx, cfg, os.Stdout))
}

// benchmain runs one workload and prints its result; it returns the
// exit code. The result line is printed only for a run that finished.
func benchmain(ctx context.Context, cfg config, stdout io.Writer) int {
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s) and --seconds >= 1\n", strings.Join(workloads, ", "))
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	r, err := execute(ctx, cfg, out)
	if err != nil {
		// The last line says the run was abandoned, so no earlier JSON
		// line can be taken for a result.
		fmt.Fprintf(out, "aborted: %v\n", err)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := r.printResult(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// execute runs the workload and, for a traced run, the ladder probes.
// It returns an error, and no result, when the run could not finish:
// the context ended (deadline or signal), the workload could not start,
// or the program panicked.
func execute(ctx context.Context, cfg config, out io.Writer) (r *run, err error) {
	r = &run{cfg: cfg, ctx: ctx, start: time.Now(), out: out,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	steal0, total0 := cpuSteal()
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := r.printHeader(); err != nil {
		return r, err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if cfg.workload == "daemon-jobs" {
		err = r.runDaemon()
	} else {
		err = r.runGrid(grids[cfg.workload])
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return r, err
	}
	r.e2e["rss_mb"] = median(r.rss)
	fs, f := r.setupSpeed.factor(), r.speed.factor()
	fmt.Fprintf(out, "host ref_kernel_p50_ms=%.3f,%.3f samples=%d,%d speed_factor=%.4f,%.4f raw setup_cpu_s=%.4f op_cpu_ms=%.3f\n",
		median(r.setupSpeed.samples), median(r.speed.samples), len(r.setupSpeed.samples), len(r.speed.samples),
		fs, f, r.e2e["setup_s"], r.e2e["op_cpu_ms"])
	r.e2e["setup_s"] *= fs
	r.e2e["op_cpu_ms"] *= f
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor gave other guests: the usual cause of
		// one run reading slower than its neighbours.
		fmt.Fprintf(out, "host cpu_steal_frac=%.4f\n", float64(steal1-steal0)/float64(total1-total0))
	}
	if r.tr != nil {
		r.runProbes()
		if err := ctx.Err(); err != nil {
			return r, err
		}
		path := filepath.Join(cfg.root, ".bench_build", "perfbench",
			fmt.Sprintf("spans-%s-seed%d.ndjson", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return r, err
		}
		if err := r.tr.write(path); err != nil {
			return r, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans %s\n", path)
	}
	return r, nil
}

// opts is the engine configuration of every grid: the run's pool, its
// context (cancellation at cell boundaries), and contained panics, so
// a crashing cell fails its check instead of the process.
func (r *run) opts(pool *engine.Pool, progress func(engine.Event)) lruleak.RunOptions {
	return lruleak.RunOptions{Pool: pool, Context: r.ctx, ContainPanics: true, Progress: progress}
}

// moreSetups reports whether to set up again after k set-ups taking
// the given wall seconds: at least three, so setup_s is a median, and
// more while they have taken under eight seconds, up to 32, so a cheap
// set-up is sampled often enough for its medians to hold still.
func moreSetups(k int, walls []float64) bool {
	return k < 3 || (k < 32 && sum(walls) < 8)
}

// minReps is the fewest timed repetitions: a traced run needs one
// traced and one untraced.
func (r *run) minReps() int {
	if r.tr != nil {
		return 2
	}
	return 1
}

// safeRender calls render, turning a panic into an error.
func safeRender(render func() string) (s string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return render(), nil
}

// check counts one checked operation, and a failure when !ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *run) checkGolden(name, got string, err error) {
	want, rerr := os.ReadFile(filepath.Join(r.cfg.root, "testdata", name+".golden"))
	r.check(err == nil && rerr == nil && got == string(want),
		"render at seed %d differs from testdata/%s.golden (%v, %v)", goldenSeed, name, err, rerr)
}

func (r *run) printRender(phase string, seed uint64, render string, wall time.Duration) {
	fmt.Fprintf(r.out, "render workload=%s phase=%s seed=%d wall_ms=%.1f sha256=%x\n",
		r.cfg.workload, phase, seed, ms(wall), sha256.Sum256([]byte(render)))
}

// memPerOp reports the allocation volume and GC cycles of a timed
// window per operation (grid repetition or daemon job).
func (r *run) memPerOp(before, after runtime.MemStats, ops int) {
	n := float64(max(ops, 1))
	r.layer["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n
	r.layer["runtime.gc_cycles_per_op"] = float64(after.NumGC-before.NumGC) / n
}

// printHeader prints the run's header record: where and what it ran.
func (r *run) printHeader() error {
	why, err := workloadWhy(r.cfg.root, r.cfg.workload)
	if err != nil {
		return err
	}
	h := map[string]any{
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"commit":         commit(),
		"seed":           r.cfg.seed,
		"engine_workers": engineWorkers,
		"workload":       r.cfg.workload,
		"why":            why,
		"seconds":        r.cfg.seconds,
		"trace":          r.cfg.trace,
	}
	b, err := json.Marshal(map[string]any{"header": h})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%s\n", b)
	return nil
}

// workloadWhy reads the workload's recorded reason from BENCHMARK.json.
func workloadWhy(root, name string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return "", err
	}
	var b struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range b.Workloads {
		if w.Name == name {
			return w.Why, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json has no workload %q", name)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuSteal returns the machine's steal and total CPU time in ticks from
// /proc/stat, or zeros where it is unavailable.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// residentMB is the process's resident set (VmRSS), or the Go runtime's
// total obtained memory where /proc is unavailable.
func residentMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// printResult prints the summary lines and, last, the result object.
func (r *run) printResult() error {
	defs, vals := endToEnd, r.e2e
	if r.cfg.trace {
		defs, vals = perLayer, r.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := vals[d.name] // a layer the workload does not call reads 0
		if v != v || v > 1e300 || v < -1e300 {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(r.out, "metric %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	frac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(r.out, "metric %-30s %14.6g %s\n", "failed_frac", frac, "frac")
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%s\n", b)
	return nil
}
