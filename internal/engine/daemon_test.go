package engine

// Daemon-safety behavior of Run: panic containment, cell-boundary
// cancellation, and the persistent Pool. These are the contracts
// internal/service's job server rests on, so they are tested here at
// the engine layer (and again end to end in the service tests), all
// exercised under -race in CI.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// panicJobs builds n jobs where job `bad` panics and every other job
// returns its own index.
func panicJobs(n, bad int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Name: "ok", Seed: uint64(i), Run: func(uint64) int {
			if i == bad {
				panic("boom")
			}
			return i
		}}
	}
	jobs[bad].Name = "bad"
	return jobs
}

func TestPanicContainedLeavesSiblingsIntact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rs := Run(panicJobs(32, 7), Options{Workers: workers, ContainPanics: true})
		for i, r := range rs {
			if i == 7 {
				var pe *PanicError
				if !errors.As(r.Err, &pe) {
					t.Fatalf("workers=%d: job 7 Err = %v, want *PanicError", workers, r.Err)
				}
				if pe.Job != "bad" || pe.Value != "boom" || len(pe.Stack) == 0 {
					t.Errorf("workers=%d: panic error %q/%v missing identity or stack", workers, pe.Job, pe.Value)
				}
				if !strings.Contains(pe.Error(), "boom") {
					t.Errorf("workers=%d: Error() hides the panic value: %s", workers, pe.Error())
				}
				continue
			}
			if r.Err != nil || r.Value != i {
				t.Errorf("workers=%d: sibling %d got (%d, %v), want (%d, nil)", workers, i, r.Value, r.Err, i)
			}
		}
	}
}

func TestPanicReRaisedByDefault(t *testing.T) {
	var finished int32
	jobs := panicJobs(16, 3)
	for i := range jobs {
		run := jobs[i].Run
		jobs[i].Run = func(s uint64) int {
			v := run(s)
			atomic.AddInt32(&finished, 1)
			return v
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run swallowed the panic without ContainPanics")
		}
		pe, ok := r.(*PanicError)
		if !ok || pe.Value != "boom" {
			t.Fatalf("re-raised %v, want *PanicError wrapping \"boom\"", r)
		}
		// Fail-fast is for the caller; siblings still ran to completion
		// (the daemon property the re-raise must not undo).
		if got := atomic.LoadInt32(&finished); got != 15 {
			t.Errorf("%d siblings finished before the re-raise, want 15", got)
		}
	}()
	Run(jobs, Options{Workers: 4})
}

func TestCancelAtCellBoundaries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 64
	var started int32
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Name: "cell", Run: func(uint64) int {
			if atomic.AddInt32(&started, 1) == 4 {
				cancel() // cancel mid-grid, from inside a running cell
			}
			time.Sleep(time.Millisecond)
			return i + 1
		}}
	}
	rs := Run(jobs, Options{Workers: 4, Context: ctx})
	var done, skipped int
	for i, r := range rs {
		switch {
		case r.Err == nil && r.Value == i+1:
			done++
		case errors.Is(r.Err, context.Canceled) && r.Value == 0:
			skipped++
		default:
			t.Fatalf("job %d: Value=%d Err=%v", i, r.Value, r.Err)
		}
	}
	if done < 4 {
		t.Errorf("only %d cells completed; the 4 in-flight cells must keep their results", done)
	}
	if skipped == 0 {
		t.Error("no cell was skipped by the cancel")
	}
	if done+skipped != n {
		t.Errorf("done %d + skipped %d != %d", done, skipped, n)
	}
}

// A cancelled context must never leave the feeder blocked handing a
// task to a pool whose workers have stopped draining. The run must
// return promptly even when cancellation races job completion.
func TestCancelledRunReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run even starts
	start := time.Now()
	rs := Run(testJobs(1000), Options{Workers: 2, Context: ctx})
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled run took %v", d)
	}
	for i, r := range rs {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d ran after pre-cancel: %+v", i, r)
		}
	}
}

func TestPoolRunsAndIsDeterministic(t *testing.T) {
	jobs := testJobs(64)
	want := Run(jobs, Options{Workers: 1})
	p := NewPool(4)
	defer p.Close()
	if p.Workers() != 4 {
		t.Fatalf("pool size %d", p.Workers())
	}
	for round := 0; round < 3; round++ {
		got := Run(jobs, Options{Pool: p})
		for i := range got {
			if got[i].Value != want[i].Value || got[i].Name != want[i].Name || got[i].Seed != want[i].Seed {
				t.Fatalf("round %d job %d: pooled result %+v != serial %+v", round, i, got[i], want[i])
			}
		}
	}
}

// Concurrent Run calls may share one pool (the service runs several
// jobs at once); results must stay per-call correct.
func TestPoolSharedByConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	jobs := testJobs(32)
	want := Run(jobs, Options{Workers: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Run(jobs, Options{Pool: p})
			for i := range got {
				if got[i].Value != want[i].Value {
					t.Errorf("job %d diverged under pool sharing", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A panic on a pool worker must not kill the worker: later runs on the
// same pool still execute.
func TestPoolSurvivesJobPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	rs := Run(panicJobs(8, 2), Options{Pool: p, ContainPanics: true})
	if _, ok := rs[2].Err.(*PanicError); !ok {
		t.Fatalf("job 2 Err = %v", rs[2].Err)
	}
	after := Run(testJobs(8), Options{Pool: p})
	for i, r := range after {
		if r.Err != nil {
			t.Fatalf("post-panic run job %d failed: %v", i, r.Err)
		}
	}
}
