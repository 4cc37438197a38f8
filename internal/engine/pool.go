package engine

import (
	"context"
	"sync"
)

// Pool is a persistent worker pool. Run starts a transient one per call
// unless Options.Pool supplies a shared one; a long-running job server
// shares one across every grid, so its worker count bounds the whole
// process and its telemetry sees every cell.
//
// A pool may serve several Run calls concurrently; their cells simply
// interleave over the same workers. Determinism is preserved for the
// same reason it holds within one Run: every job builds its own machine
// from its seed, so results cannot depend on which worker (or which
// interleaving) executed which cell.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
	size  int
	once  sync.Once
	tel   *Telemetry
}

// NewPool starts a pool of n persistent workers (n <= 0 selects
// DefaultWorkers()). Close releases them.
func NewPool(n int) *Pool { return NewPoolWithTelemetry(n, nil) }

// NewPoolWithTelemetry is NewPool with instrumentation attached: every
// Run on the pool records through tel. A nil tel yields an
// uninstrumented pool.
func NewPoolWithTelemetry(n int, tel *Telemetry) *Pool {
	if n <= 0 {
		n = DefaultWorkers()
	}
	p := &Pool{tasks: make(chan func()), size: n, tel: tel}
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.size }

// Close stops accepting work, waits for in-flight tasks to finish, and
// releases the workers. Safe to call more than once.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.tasks) })
	p.wg.Wait()
}

// run dispatches n indexed tasks onto the pool and blocks until each
// has either executed or been skipped. On context cancellation the
// feeder stops immediately (it never blocks on a pool that has stopped
// draining) and skip is called for every index not yet handed to a
// worker; exec itself is responsible for skipping indices that were
// queued before the cancel but start after it.
func (p *Pool) run(n int, ctx context.Context, exec, skip func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	i := 0
feed:
	for ; i < n; i++ {
		task := i
		select {
		case p.tasks <- func() { defer wg.Done(); exec(task) }:
		case <-ctx.Done():
			break feed
		}
	}
	for ; i < n; i++ {
		skip(i)
		wg.Done()
	}
	wg.Wait()
}
