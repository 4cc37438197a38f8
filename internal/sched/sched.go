package sched

import (
	"fmt"
	"iter"
	"runtime/debug"

	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/timing"
)

// Mode selects the core-sharing setting.
type Mode int

// Sharing settings.
const (
	// SMT runs all threads as simultaneous hyper-threads.
	SMT Mode = iota
	// TimeSliced runs threads under round-robin quanta.
	TimeSliced
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SMT:
		return "hyper-threaded"
	case TimeSliced:
		return "time-sliced"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a Machine.
type Config struct {
	Hier *hier.Hierarchy
	TSC  *timing.TSC
	RNG  *rng.Rand
	Mode Mode

	// Quantum is the time-slice length in cycles (default 1e6, roughly a
	// 0.3 ms tick at 3.8 GHz — scaled down from Linux's ~4 ms so that
	// experiments with Tr up to 10^8 cycles stay fast; the ratio of Tr
	// to quantum is what shapes Figure 6).
	Quantum uint64
	// SMTJitter is the relative amplitude of per-action latency jitter
	// under SMT (default 0.35).
	SMTJitter float64
}

// FlushCost is the charged latency of a clflush in cycles, matching the
// F+R(mem) encode costs of Table V being dominated by the flush reaching
// memory.
const FlushCost = 150

// ctxSwitch is the context-switch cost in cycles.
const ctxSwitch = 2000

func (c *Config) fillDefaults() {
	if c.Quantum == 0 {
		c.Quantum = 1_000_000
	}
	if c.SMTJitter == 0 {
		c.SMTJitter = 0.35
	}
}

type thread struct {
	name string
	req  int
	idx  int // position in Machine.threads, the scheduler's tie-break
	fn   func(*Env)

	// next resumes the thread's coroutine until its next charge (or its
	// end); stop unwinds a parked coroutine. Both are nil until started.
	next func() (uint64, bool)
	stop func()
	done bool

	// readyWall is, under SMT, the wall time at which the thread's most
	// recent action completes (i.e. when it may issue its next action).
	readyWall uint64
	// pendingBusy is, under time-slicing, the portion of the thread's
	// current action not yet consumed by its slices.
	pendingBusy uint64
	// wallNow is the thread-visible current time, updated before resume.
	wallNow uint64
}

// killSentinel unwinds a parked program when its machine closes.
type killSentinel struct{}

// ThreadPanic is what Run raises when a program panics. The program's
// coroutine stack is gone by the time Run's caller recovers, so the
// stack captured at the panic site travels with the value.
type ThreadPanic struct {
	Thread string
	Value  any
	Stack  []byte
}

func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("sched: thread %q panicked: %v\n%s", p.Thread, p.Value, p.Stack)
}

// Unwrap returns the original panic value when it was an error.
func (p *ThreadPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// Machine owns the threads and the shared hierarchy and advances time.
//
// Each program runs as an iter.Pull coroutine: the scheduler resumes it
// with next, and charge parks it by yielding the action's cost. The hot
// path is charge: every simulated action suspends the acting program
// for its cycle cost. A coroutine switch costs several times the
// simulated cache access itself, so charge applies the cost inline and
// only parks when the scheduling decision could actually change
// (another thread is further behind, the time slice or the wall limit
// is exhausted, or the machine was stopped). The action order, and
// therefore every RNG draw and cache update, is bit-identical to the
// park-on-every-action implementation; the determinism and golden
// tests pin this.
type Machine struct {
	cfg     Config
	threads []*thread
	clock   uint64 // time-sliced core clock; under SMT, max of readyWalls
	limit   uint64 // Run's wall-clock limit, visible to charge's fast path
	// sliceEnd is the end of the current time slice (time-sliced mode),
	// visible to charge so a short action can be consumed inline.
	sliceEnd uint64
	ran      bool
	stopped  bool
}

// New creates a machine. RNG must be non-nil. Hier and TSC may be nil
// for programs that model their memory system outside the shared
// hierarchy (the scheduled key-recovery attack drives its Target
// adapters directly and charges latencies through Busy); such programs
// must not call Access, Flush, Measure or MeasureSingle.
func New(cfg Config) *Machine {
	if cfg.RNG == nil {
		panic("sched: Config requires RNG")
	}
	cfg.fillDefaults()
	return &Machine{cfg: cfg}
}

// AddThread registers a program. req is the requestor id used for cache
// counter attribution. Threads must be added before Run.
func (m *Machine) AddThread(name string, req int, fn func(*Env)) {
	if m.ran {
		panic("sched: AddThread after Run")
	}
	m.threads = append(m.threads, &thread{name: name, req: req, idx: len(m.threads), fn: fn})
}

// Run advances simulated time until every thread finishes or the given
// wall-time limit (in cycles) is reached, then reaps all threads. It may be
// called once per Machine. A panicking program makes Run panic with a
// *ThreadPanic after every other thread has been reaped.
func (m *Machine) Run(limit uint64) {
	if m.ran {
		panic("sched: Run called twice")
	}
	m.ran = true
	m.limit = limit
	defer m.close()
	switch m.cfg.Mode {
	case SMT:
		m.runSMT(limit)
	case TimeSliced:
		m.runTimeSliced(limit)
	default:
		panic(fmt.Sprintf("sched: unknown mode %d", int(m.cfg.Mode)))
	}
}

// Now returns the machine's idea of elapsed time: the core clock under
// time-slicing, or the furthest hardware-thread wall clock under SMT.
func (m *Machine) Now() uint64 {
	if m.cfg.Mode == TimeSliced {
		return m.clock
	}
	var max uint64
	for _, t := range m.threads {
		if t.readyWall > max {
			max = t.readyWall
		}
	}
	return max
}

func (m *Machine) start(t *thread) {
	t.next, t.stop = iter.Pull(func(yield func(uint64) bool) {
		defer func() {
			if r := recover(); r != nil && r != (killSentinel{}) {
				panic(&ThreadPanic{Thread: t.name, Value: r, Stack: debug.Stack()})
			}
		}()
		t.fn(&Env{m: m, t: t, yield: yield})
	})
}

// step resumes t (starting it if necessary) until it parks with the
// cost of its current action, or finishes (done).
func (m *Machine) step(t *thread) (cycles uint64, done bool) {
	t.wallNow = m.threadNow(t)
	if t.next == nil {
		m.start(t)
	}
	cycles, ok := t.next()
	return cycles, !ok
}

func (m *Machine) threadNow(t *thread) uint64 {
	if m.cfg.Mode == TimeSliced {
		return m.clock
	}
	return t.readyWall
}

// runSMT resumes the runnable thread whose clock is furthest behind.
// Action costs (including the SMT jitter draw) are applied by charge at
// the moment each action completes; a thread only parks — and control
// only returns here — when it is no longer the thread this loop would
// pick, so a burst of consecutive actions by one hyper-thread costs one
// coroutine switch instead of one per action.
func (m *Machine) runSMT(limit uint64) {
	for {
		// Pick the runnable thread whose clock is furthest behind.
		var t *thread
		for _, c := range m.threads {
			if c.done {
				continue
			}
			if t == nil || c.readyWall < t.readyWall {
				t = c
			}
		}
		if t == nil || t.readyWall >= limit || m.stopped {
			return
		}
		if _, done := m.step(t); done {
			t.done = true
		}
	}
}

// wouldResumeSMT reports whether the SMT scheduler's pick — the
// lowest-indexed runnable thread with the smallest readyWall — would be
// t again. charge's fast path keeps t running exactly when this holds,
// which reproduces runSMT's selection order action for action.
func (m *Machine) wouldResumeSMT(t *thread) bool {
	for _, c := range m.threads {
		if c == t || c.done {
			continue
		}
		if c.readyWall < t.readyWall || (c.readyWall == t.readyWall && c.idx < t.idx) {
			return false
		}
	}
	return true
}

func (m *Machine) runTimeSliced(limit uint64) {
	if len(m.threads) == 0 {
		return
	}
	owner := 0
	m.sliceEnd = m.clock + m.cfg.Quantum
	rotate := func() {
		for i := 1; i <= len(m.threads); i++ {
			n := (owner + i) % len(m.threads)
			if !m.threads[n].done {
				if n != owner {
					m.clock += ctxSwitch
				}
				owner = n
				break
			}
		}
		m.sliceEnd = m.clock + m.cfg.Quantum
	}
	for m.clock < limit && !m.stopped {
		t := m.threads[owner]
		if t.done {
			allDone := true
			for _, c := range m.threads {
				if !c.done {
					allDone = false
					break
				}
			}
			if allDone {
				return
			}
			rotate()
			continue
		}
		if t.pendingBusy == 0 {
			cycles, done := m.step(t)
			if done {
				t.done = true
				continue
			}
			t.pendingBusy = cycles
			if t.pendingBusy == 0 {
				t.pendingBusy = 1 // every action takes at least a cycle
			}
		}
		run := t.pendingBusy
		if avail := m.sliceEnd - m.clock; run > avail {
			run = avail
		}
		m.clock += run
		t.pendingBusy -= run
		if m.clock >= m.sliceEnd {
			rotate()
		}
	}
}

// close unwinds every started thread; stopping a finished one is a no-op.
func (m *Machine) close() {
	for _, t := range m.threads {
		if t.stop != nil {
			t.stop()
		}
	}
}

// Env is the interface a simulated program uses to act on the machine.
// All methods must be called from the program's own coroutine.
type Env struct {
	m     *Machine
	t     *thread
	yield func(uint64) bool
}

// charge accounts c cycles of CPU time to the program. This is the
// simulator's hottest function: it runs once per simulated action,
// hundreds of millions of times per sweep.
//
// Fast path: the cost is applied inline — including the SMT jitter
// draw, taken at exactly the point in the global RNG order where the
// scheduler used to take it — and the program simply keeps running
// whenever the scheduler would have picked this same thread again
// (SMT: still the furthest-behind thread; time-sliced: the action fits
// inside the current slice). Only when the scheduling decision could
// change does the coroutine yield the cost back to the scheduler loop,
// so the coroutine-switch cost is paid per interleaving point, not per
// action. The resulting action order is
// identical to parking on every action.
func (e *Env) charge(c uint64) {
	m, t := e.m, e.t
	if m.cfg.Mode == SMT {
		// Apply the jittered cost exactly as runSMT's collection point
		// used to: same condition, same float arithmetic, same draw.
		cost := float64(c)
		if m.cfg.SMTJitter > 0 && c > 0 {
			// float64() stops a fused multiply-add (see rng.Float64).
			cost *= 1 + float64(m.cfg.SMTJitter*m.cfg.RNG.Float64())
		}
		t.readyWall += uint64(cost + 0.5)
		t.wallNow = t.readyWall
		if !m.stopped && t.readyWall < m.limit && m.wouldResumeSMT(t) {
			return
		}
	} else {
		n := c
		if n == 0 {
			n = 1 // every action takes at least a cycle
		}
		if !m.stopped && m.clock+n < m.sliceEnd && m.clock+n < m.limit {
			m.clock += n
			t.wallNow = m.clock
			return
		}
	}
	if !e.yield(c) {
		panic(killSentinel{})
	}
}

// Name returns the thread's name.
func (e *Env) Name() string { return e.t.name }

// Requestor returns the thread's cache-attribution id.
func (e *Env) Requestor() int { return e.t.req }

// Now returns the thread's current wall-clock time in cycles. Reading it is
// free (the cost of rdtsc pacing reads is folded into the loop bodies that
// use them).
func (e *Env) Now() uint64 { return e.t.wallNow }

// requireHier makes misuse of a hierarchy-less machine diagnosable:
// the construction is legal (see New), but memory actions are not.
func (e *Env) requireHier() *hier.Hierarchy {
	h := e.m.cfg.Hier
	if h == nil {
		panic("sched: " + e.t.name + " issued a memory action on a machine built without a Hier")
	}
	return h
}

// Access performs a load and blocks for its latency.
func (e *Env) Access(a mem.Addr) {
	e.charge(uint64(e.requireHier().Load(a, e.t.req).Latency))
}

// Flush evicts the physical line from the whole hierarchy (clflush). The
// invalidation takes effect when the instruction completes — i.e. after the
// flush latency has elapsed — so a flush+reload loop leaves the line absent
// only for the brief window between the flush completing and the reload.
func (e *Env) Flush(a mem.Addr) {
	h := e.requireHier()
	e.charge(FlushCost)
	h.Flush(a.PhysLine)
}

// Busy consumes c cycles of CPU time without touching memory — the "do
// nothing" busy-wait of Algorithm 3.
func (e *Env) Busy(c uint64) {
	if c > 0 {
		e.charge(c)
	}
}

// BusyUntil spins until the thread's wall clock reaches deadline.
func (e *Env) BusyUntil(deadline uint64) {
	if now := e.Now(); deadline > now {
		e.charge(deadline - now)
	}
}

// Measure runs the pointer-chase probe against target, charging the
// serialized chain's cost, and returns the observation.
func (e *Env) Measure(c *timing.Chaser, target mem.Addr) timing.Measurement {
	meas := c.Measure(target)
	e.charge(uint64(meas.Observed))
	return meas
}

// MeasureSingle runs the naive single-access rdtscp measurement.
func (e *Env) MeasureSingle(c *timing.Chaser, target mem.Addr) timing.Measurement {
	meas := c.MeasureSingle(target)
	e.charge(uint64(meas.Observed))
	return meas
}

// RNG returns a generator the program may use (shared with the machine; all
// use is serialized by construction).
func (e *Env) RNG() *rng.Rand { return e.m.cfg.RNG }

// StopAll asks the machine to halt once the calling thread suspends:
// experiments end when their measurement thread has what it needs, even if
// sender or noise threads would spin forever. The request takes effect at
// the thread's next charge, so callers should simply return after it.
func (e *Env) StopAll() { e.m.stopped = true }
