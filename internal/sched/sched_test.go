package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/uarch"
)

func rig(mode Mode, seed uint64) (*Machine, *mem.System, *mem.AddressSpace) {
	prof := uarch.SandyBridge()
	h := hier.New(hier.Config{Profile: prof, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	r := rng.New(seed)
	m := New(Config{Hier: h, TSC: timing.NewTSC(prof, r.Split()), RNG: r, Mode: mode})
	sys := mem.NewSystem(64)
	return m, sys, sys.NewAddressSpace()
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil deps")
		}
	}()
	New(Config{})
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	m, _, as := rig(SMT, 1)
	a := as.Resolve(as.Alloc(1))
	n := 0
	m.AddThread("t", 0, func(e *Env) {
		for i := 0; i < 10; i++ {
			e.Access(a)
			n++
		}
	})
	m.Run(1 << 40)
	if n != 10 {
		t.Errorf("thread performed %d accesses, want 10", n)
	}
}

func TestRunTwicePanics(t *testing.T) {
	m, _, _ := rig(SMT, 1)
	m.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run(100)
}

func TestAddThreadAfterRunPanics(t *testing.T) {
	m, _, _ := rig(SMT, 1)
	m.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.AddThread("late", 0, func(e *Env) {})
}

func TestLimitStopsInfiniteLoop(t *testing.T) {
	m, _, as := rig(SMT, 2)
	a := as.Resolve(as.Alloc(1))
	n := 0
	m.AddThread("spin", 0, func(e *Env) {
		for {
			e.Access(a)
			n++
		}
	})
	m.Run(100_000)
	if n == 0 {
		t.Fatal("thread never ran")
	}
	// An L1 hit takes >= 4 cycles, so at most limit/4 accesses fit.
	if n > 100_000/4 {
		t.Errorf("%d accesses exceed the wall-time budget", n)
	}
}

func TestDeterminismSMT(t *testing.T) {
	trace := func(seed uint64) []uint64 {
		m, _, as := rig(SMT, seed)
		a := as.Resolve(as.Alloc(1))
		b := as.Resolve(as.Alloc(1))
		var out []uint64
		m.AddThread("A", 0, func(e *Env) {
			for i := 0; i < 50; i++ {
				e.Access(a)
				out = append(out, e.Now())
			}
		})
		m.AddThread("B", 1, func(e *Env) {
			for i := 0; i < 50; i++ {
				e.Access(b)
				out = append(out, e.Now()|1<<63)
			}
		})
		m.Run(1 << 40)
		return out
	}
	t1, t2 := trace(7), trace(7)
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestSMTThreadsInterleave(t *testing.T) {
	m, _, as := rig(SMT, 3)
	a := as.Resolve(as.Alloc(1))
	b := as.Resolve(as.Alloc(1))
	var order []byte
	m.AddThread("A", 0, func(e *Env) {
		for i := 0; i < 100; i++ {
			e.Access(a)
			order = append(order, 'A')
		}
	})
	m.AddThread("B", 1, func(e *Env) {
		for i := 0; i < 100; i++ {
			e.Access(b)
			order = append(order, 'B')
		}
	})
	m.Run(1 << 40)
	// Under SMT the two streams must interleave finely, not run back to
	// back: count alternations.
	alt := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			alt++
		}
	}
	if alt < 50 {
		t.Errorf("only %d alternations in 200 actions; SMT interleaving broken", alt)
	}
}

func TestTimeSlicedRunsInQuanta(t *testing.T) {
	m, _, as := rig(TimeSliced, 4)
	a := as.Resolve(as.Alloc(1))
	b := as.Resolve(as.Alloc(1))
	var order []byte
	m.AddThread("A", 0, func(e *Env) {
		for {
			e.Access(a)
			order = append(order, 'A')
		}
	})
	m.AddThread("B", 1, func(e *Env) {
		for {
			e.Access(b)
			order = append(order, 'B')
		}
	})
	m.Run(5_000_000) // five quanta
	// Within a quantum only one thread runs: alternations are rare.
	alt := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			alt++
		}
	}
	if alt > 10 {
		t.Errorf("%d alternations; time-sliced threads should run in long runs", alt)
	}
	if len(order) == 0 {
		t.Fatal("nothing ran")
	}
	// Both threads must have run.
	var sawA, sawB bool
	for _, c := range order {
		sawA = sawA || c == 'A'
		sawB = sawB || c == 'B'
	}
	if !sawA || !sawB {
		t.Errorf("sawA=%v sawB=%v", sawA, sawB)
	}
}

func TestBusyUntilAdvancesClock(t *testing.T) {
	m, _, _ := rig(SMT, 5)
	var reached uint64
	m.AddThread("t", 0, func(e *Env) {
		e.BusyUntil(50_000)
		reached = e.Now()
	})
	m.Run(1 << 40)
	if reached < 50_000 {
		t.Errorf("Now() after BusyUntil(50000) = %d", reached)
	}
}

func TestLongSleepCheapInTimeSliced(t *testing.T) {
	// A receiver spinning 10^8 cycles must not take 10^8 scheduler
	// events. We can't count events directly, but the test completing
	// quickly (and the other thread making progress) is the behaviour.
	m, _, as := rig(TimeSliced, 6)
	a := as.Resolve(as.Alloc(1))
	senderOps := 0
	m.AddThread("sleeper", 0, func(e *Env) {
		e.Busy(100_000_000)
	})
	m.AddThread("sender", 1, func(e *Env) {
		for {
			e.Access(a)
			e.Busy(10_000)
			senderOps++
		}
	})
	m.Run(100_000_000)
	if senderOps < 1000 {
		t.Errorf("sender made only %d ops while sleeper slept", senderOps)
	}
}

func TestFlushCharged(t *testing.T) {
	m, _, as := rig(SMT, 7)
	a := as.Resolve(as.Alloc(1))
	var after uint64
	m.AddThread("t", 0, func(e *Env) {
		e.Access(a)
		e.Flush(a)
		after = e.Now()
	})
	m.Run(1 << 40)
	if after < 150 {
		t.Errorf("flush cost not charged: Now()=%d", after)
	}
}

func TestMeasureThroughEnv(t *testing.T) {
	prof := uarch.SandyBridge()
	h := hier.New(hier.Config{Profile: prof, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	r := rng.New(8)
	tsc := timing.NewTSC(prof, r.Split())
	m := New(Config{Hier: h, TSC: tsc, RNG: r, Mode: SMT})
	sys := mem.NewSystem(64)
	as := sys.NewAddressSpace()
	ch := timing.NewChaser(h, as, 63, 0, 0, tsc)
	target := as.Resolve(as.LinesForSet(64, 5, 1)[0])
	var hit, miss float64
	m.AddThread("recv", 0, func(e *Env) {
		ch.WarmUp()
		e.Access(target)
		hit = e.Measure(ch, target).Observed
		h.L1().Flush(target.PhysLine)
		miss = e.Measure(ch, target).Observed
	})
	m.Run(1 << 40)
	if hit == 0 || miss == 0 {
		t.Fatal("measurements did not run")
	}
	if miss <= hit {
		t.Errorf("miss (%v) not slower than hit (%v)", miss, hit)
	}
}

func TestRequestorAttribution(t *testing.T) {
	m, _, as := rig(SMT, 9)
	a := as.Resolve(as.Alloc(1))
	b := as.Resolve(as.Alloc(1))
	m.AddThread("zero", 0, func(e *Env) { e.Access(a); e.Access(a) })
	m.AddThread("one", 1, func(e *Env) { e.Access(b) })
	m.Run(1 << 40)
	l1 := m.cfg.Hier.L1()
	if got := l1.RequestorStats(0).Accesses; got != 2 {
		t.Errorf("requestor 0 accesses = %d", got)
	}
	if got := l1.RequestorStats(1).Accesses; got != 1 {
		t.Errorf("requestor 1 accesses = %d", got)
	}
}

func TestModeString(t *testing.T) {
	if SMT.String() != "hyper-threaded" || TimeSliced.String() != "time-sliced" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestEnvIdentity(t *testing.T) {
	m, _, _ := rig(SMT, 10)
	var name string
	var req int
	m.AddThread("sender", 3, func(e *Env) {
		name, req = e.Name(), e.Requestor()
	})
	m.Run(1 << 40)
	if name != "sender" || req != 3 {
		t.Errorf("identity = %q/%d", name, req)
	}
}

func TestNoGoroutineLeakAfterLimit(t *testing.T) {
	// Threads parked in infinite loops must be reaped by Run's cleanup:
	// stopping a parked coroutine unwinds it with the kill sentinel.
	before := runtime.NumGoroutine()
	defer waitGoroutines(t, before)
	m, _, as := rig(SMT, 11)
	a := as.Resolve(as.Alloc(1))
	m.AddThread("spin1", 0, func(e *Env) {
		for {
			e.Access(a)
		}
	})
	m.AddThread("spin2", 1, func(e *Env) {
		for {
			e.Busy(100)
		}
	})
	m.Run(50_000)

	// Five spinning threads, thread i charging 100·(i+1) cycles per
	// action. The limit, and in the second case a StopAll, end the run
	// while the chain of threads that resumed one another (chainModel)
	// is at least 3 deep, so several of the threads reaped have yielded
	// their way back to Run rather than been parked by it.
	spin := func(limit uint64, stopThread, stopAt int) program {
		p := program{threads: make([]threadProg, 5), limit: limit, seed: 11}
		for i := range p.threads {
			costs := make([]uint64, 5000)
			for k := range costs {
				costs[k] = uint64(100 * (i + 1))
			}
			p.threads[i] = threadProg{costs: costs, stopAt: -1}
		}
		if stopThread >= 0 {
			p.threads[stopThread].stopAt = stopAt
		}
		return p
	}
	for _, c := range []struct {
		name string
		p    program
	}{
		{"limit", spin(100_000, -1, 0)},
		{"stop", spin(1<<40, 4, 20)},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if chain := checkReference(t, c.p); chain.endDepth < 3 {
				t.Fatalf("the run ended with a chain %d deep, want at least 3", chain.endDepth)
			}
			waitGoroutines(t, before)
		})
	}
}

func TestTimeSlicedDeterminism(t *testing.T) {
	trace := func() []byte {
		m, _, as := rig(TimeSliced, 12)
		a := as.Resolve(as.Alloc(1))
		var order []byte
		m.AddThread("A", 0, func(e *Env) {
			for {
				e.Access(a)
				order = append(order, 'A')
				e.Busy(5000)
			}
		})
		m.AddThread("B", 1, func(e *Env) {
			for {
				e.Busy(3000)
				order = append(order, 'B')
			}
		})
		m.Run(10_000_000)
		return order
	}
	a, b := trace(), trace()
	if string(a) != string(b) {
		t.Error("time-sliced runs with identical seeds diverged")
	}
}

// waitGoroutines fails t unless the goroutine count returns to want.
// Reaped coroutines exit synchronously; the short grace period covers
// engine workers that are still returning.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-want)
		}
		time.Sleep(time.Millisecond)
	}
}

var errBoom = errors.New("boom")

// explode is the panicking program; its name must survive into the
// stack that Run's caller sees.
func explode(e *Env) {
	for i := 0; i < 5; i++ {
		e.Busy(10)
	}
	panic(errBoom)
}

// panicMachine adds explode after spinners siblings that spin forever,
// so they are parked mid-loop when the panic unwinds Run. Under SMT
// the spinners start first, so explode is resumed by a sibling.
func panicMachine(mode Mode, spinners int) *Machine {
	m := New(Config{RNG: rng.New(1), Mode: mode})
	for i := range spinners {
		m.AddThread(fmt.Sprint("spin", i), i, func(e *Env) {
			for {
				e.Busy(10)
			}
		})
	}
	m.AddThread("bad", spinners, explode)
	return m
}

func TestProgramPanicIsContained(t *testing.T) {
	for _, mode := range []Mode{SMT, TimeSliced} {
		t.Run(mode.String(), func(t *testing.T) {
			checkPanicContained(t, mode, 1)
			// Three threads: under SMT, spin0 resumes spin1, which
			// resumes bad, so the panic crosses two coroutines that
			// resumed one another on its way to Run.
			t.Run("threads=3", func(t *testing.T) { checkPanicContained(t, mode, 2) })
		})
	}
}

// checkPanicContained runs panicMachine(mode, spinners) bare and as an
// engine cell: the panic must reach the caller as a *ThreadPanic naming
// bad and holding its stack, with every thread reaped.
func checkPanicContained(t *testing.T, mode Mode, spinners int) {
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			tp, ok := recover().(*ThreadPanic)
			if !ok {
				t.Fatal("Run did not raise a *ThreadPanic on its caller")
			}
			if tp.Thread != "bad" || !errors.Is(tp, errBoom) {
				t.Errorf("panic = %q/%v, want bad/boom", tp.Thread, tp.Value)
			}
			if !strings.Contains(tp.Error(), `thread "bad"`) || !strings.Contains(string(tp.Stack), "sched.explode") {
				t.Errorf("panic does not name the thread or keep its stack:\n%s", tp.Error())
			}
		}()
		panicMachine(mode, spinners).Run(1 << 40)
	}()
	waitGoroutines(t, before)

	jobs := []engine.Job[int]{
		{Name: "machine", Run: func(uint64) int { panicMachine(mode, spinners).Run(1 << 40); return 0 }},
		{Name: "sibling", Run: func(uint64) int { return 42 }},
	}
	rs := engine.Run(jobs, engine.Options{Workers: 2, ContainPanics: true})
	var pe *engine.PanicError
	if !errors.As(rs[0].Err, &pe) || !strings.Contains(pe.Error(), `thread "bad"`) {
		t.Errorf("machine cell Err = %v, want a *PanicError naming thread \"bad\"", rs[0].Err)
	}
	if rs[1].Err != nil || rs[1].Value != 42 {
		t.Errorf("sibling cell = (%d, %v), want (42, nil)", rs[1].Value, rs[1].Err)
	}
	waitGoroutines(t, before)
}
