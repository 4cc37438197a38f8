package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// Job is one independent experiment cell: a name for progress
// reporting, the seed from which the cell derives all randomness, and
// the function that runs it. The function builds its own simulated
// machine, so cells share no mutable state.
type Job[T any] struct {
	Name string
	Seed uint64
	Run  func(seed uint64) T
}

// Result pairs a job's output with its identity and wall-time cost.
type Result[T any] struct {
	Name  string
	Seed  uint64
	Value T
	// Wall is the host wall time the job took (not simulated cycles).
	Wall time.Duration
	// Err is non-nil when the job did not produce a Value: a
	// *PanicError when the job function panicked, or the context error
	// when the run was cancelled before this job executed. Completed
	// jobs keep Err == nil regardless of what happened to their
	// siblings, so a grid that is partially cancelled or partially
	// crashed still carries every finished cell's result.
	Err error
}

// PanicError is the recovered panic of one job, carrying the job's
// identity and the goroutine stack captured at the panic site. Run
// re-raises it after the pool drains unless Options.ContainPanics is
// set, so non-daemon callers keep fail-fast semantics while a server
// can treat a crashing job as that job's failure alone.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job %q panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// Event is one progress notification: job Index just finished as the
// Done'th of Total, after Wall host time.
type Event struct {
	Index, Done, Total int
	Name               string
	Wall               time.Duration
}

// Options tunes an engine run. The zero value runs on all cores with no
// progress reporting, fail-fast on panic, and no cancellation.
type Options struct {
	// Workers is the pool size; <= 0 selects DefaultWorkers().
	// Ignored when Pool is set (the pool's size governs).
	Workers int
	// Progress, if set, is called once per completed job. Calls are
	// serialized (never concurrent) but arrive in completion order,
	// which under parallelism is not submission order.
	Progress func(Event)
	// Context, if non-nil, cancels the run at cell boundaries: jobs
	// already executing finish normally and keep their results, jobs
	// not yet started return immediately with Err set to the context's
	// error. Run never blocks on a cancelled context — in particular
	// the job feeder bails out instead of waiting on workers that have
	// stopped draining.
	Context context.Context
	// ContainPanics keeps a panicking job from taking the process (or
	// its sibling jobs) down: the panic is recovered inside the worker,
	// recorded as the job's Result.Err (*PanicError), and the run
	// continues. When false — the CLI default — panics are still
	// recovered per job so siblings complete, but Run re-raises the
	// first one (in submission order) after the pool drains, preserving
	// fail-fast behavior on the caller's goroutine.
	ContainPanics bool
	// Pool, if set, runs the jobs on a shared persistent worker pool —
	// the daemon configuration, whose pool also carries the telemetry.
	// When nil, Run starts a pool of Workers goroutines (capped at the
	// job count) and closes it before returning.
	Pool *Pool
}

// WorkersEnv is the environment variable that overrides the default
// worker count (useful for CI and for the cmd/ binaries' default).
const WorkersEnv = "LRULEAK_WORKERS"

// DefaultWorkers returns the pool size used when Options.Workers <= 0:
// the LRULEAK_WORKERS environment variable if set and positive,
// otherwise GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv(WorkersEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return DefaultWorkers()
}

// Run executes jobs over the worker pool and returns one Result per
// job, in submission order. The output is independent of the worker
// count provided each job is deterministic in its seed.
//
// A job that panics never takes its siblings down: the panic is
// recovered and recorded as that job's Result.Err. Unless
// Options.ContainPanics is set, Run re-raises the first recorded panic
// (submission order) once every in-flight job has finished.
//
// When Options.Context is cancelled, jobs that have not started yet are
// skipped with Err set to the context error; jobs already executing run
// to completion and keep their results.
func Run[T any](jobs []Job[T], opts Options) []Result[T] {
	out := make([]Result[T], len(jobs))
	if len(jobs) == 0 {
		return out
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewPool(min(opts.workers(), len(jobs)))
		defer pool.Close()
	}
	tel := pool.tel
	tel.enqueue(len(jobs))

	var mu sync.Mutex // serializes Progress calls and the done counter
	done := 0
	finish := func(i int, wall time.Duration) {
		if opts.Progress == nil {
			return
		}
		mu.Lock()
		done++
		opts.Progress(Event{Index: i, Done: done, Total: len(jobs), Name: jobs[i].Name, Wall: wall})
		mu.Unlock()
	}
	// Each index reaches exactly one runOne or skip call, so out needs
	// no locking.
	skip := func(i int) {
		tel.skip()
		out[i] = Result[T]{Name: jobs[i].Name, Seed: jobs[i].Seed, Err: ctx.Err()}
	}
	// runOne executes job i, or skips it when the run was cancelled
	// after the job was handed to a worker but before it started.
	runOne := func(i int) {
		if ctx.Err() != nil {
			skip(i)
			return
		}
		tel.dispatch()
		start := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					out[i].Err = &PanicError{Job: jobs[i].Name, Value: r, Stack: debug.Stack()}
				}
			}()
			out[i].Value = jobs[i].Run(jobs[i].Seed)
		}()
		wall := time.Since(start)
		_, panicked := out[i].Err.(*PanicError)
		tel.done(wall, panicked)
		out[i].Name, out[i].Seed, out[i].Wall = jobs[i].Name, jobs[i].Seed, wall
		finish(i, wall)
	}
	pool.run(len(jobs), ctx, runOne, skip)

	if !opts.ContainPanics {
		for i := range out {
			if pe, ok := out[i].Err.(*PanicError); ok {
				panic(pe)
			}
		}
	}
	return out
}

// Values strips the bookkeeping from a result slice, preserving order.
func Values[T any](rs []Result[T]) []T {
	out := make([]T, len(rs))
	for i, r := range rs {
		out[i] = r.Value
	}
	return out
}

// RunTrials fans one experiment out over trials repetitions. Trial i
// runs f(i, seeds[i]) where the seeds are split deterministically from
// root (see Seeds), and the per-trial results come back in trial order.
func RunTrials[T any](name string, root uint64, trials int, f func(trial int, seed uint64) T, opts Options) []Result[T] {
	seeds := Seeds(root, trials)
	jobs := make([]Job[T], trials)
	for i := range jobs {
		i := i
		jobs[i] = Job[T]{
			Name: fmt.Sprintf("%s/trial=%d", name, i),
			Seed: seeds[i],
			Run:  func(seed uint64) T { return f(i, seed) },
		}
	}
	return Run(jobs, opts)
}

// StderrProgress returns a Progress callback that writes one line per
// completed job to w (pass os.Stderr), for the cmd/ binaries.
func StderrProgress(w io.Writer) func(Event) {
	return func(ev Event) {
		fmt.Fprintf(w, "[%d/%d] %-40s %8.1fms\n",
			ev.Done, ev.Total, ev.Name, float64(ev.Wall.Microseconds())/1000)
	}
}
