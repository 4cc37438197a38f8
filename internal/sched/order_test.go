package sched

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// This file checks the SMT scheduler against a reference that is a
// plain loop: pick the runnable thread with the lowest readyWall (the
// lowest index wins ties), run its program up to its next action, and
// apply that action's jittered cost with charge's float arithmetic and
// RNG draw. The machine must produce the same per-action (thread, Now)
// trace and leave the shared generator at the same point, however it
// moves control between the threads' coroutines.

// program is one seeded SMT scenario: the threads' action lists, the
// wall-time limit handed to Run and the seed of the shared generator.
type program struct {
	threads []threadProg
	limit   uint64
	seed    uint64
}

// threadProg is one thread's program: it issues Busy(costs[k]) for
// each k in order and returns after the last one (or earlier, see
// stopReturns).
type threadProg struct {
	costs []uint64
	// stopAt is the action before which the thread calls StopAll
	// (-1: never). With stopReturns the thread then returns at once;
	// otherwise it goes on to issue action stopAt.
	stopAt      int
	stopReturns bool
}

// action is one trace entry: the acting thread and its Now at issue.
type action struct {
	thread int
	now    uint64
}

// genProgram derives a scenario from seed: 1–6 threads, Busy costs of
// 1–5000 cycles with some long waits, threads that return early,
// sometimes a StopAll from a random thread at a random action, and a
// random limit (sometimes none).
func genProgram(seed uint64) program {
	r := rng.New(seed)
	p := program{threads: make([]threadProg, 1+r.Intn(6)), seed: r.Uint64()}
	var span uint64
	for i := range p.threads {
		n := 1 + r.Intn(120)
		if r.Bool(0.3) {
			n = 1 + r.Intn(8) // returns early
		}
		costs := make([]uint64, n)
		var sum uint64
		for k := range costs {
			if r.Bool(0.05) {
				costs[k] = 10_000 + r.Uint64n(200_000) // a long wait
			} else {
				costs[k] = 1 + r.Uint64n(5000)
			}
			sum += costs[k]
		}
		span = max(span, sum+sum/2) // jitter stretches a cost by < 35%
		p.threads[i] = threadProg{costs: costs, stopAt: -1}
	}
	if r.Bool(0.5) {
		t := &p.threads[r.Intn(len(p.threads))]
		t.stopAt = r.Intn(len(t.costs))
		t.stopReturns = r.Bool(0.5)
	}
	switch r.Intn(3) {
	case 0:
		p.limit = ^uint64(0)
	case 1:
		p.limit = 1 + r.Uint64n(span/4+1)
	default:
		p.limit = 1 + r.Uint64n(span)
	}
	return p
}

// runMachine runs p on a Machine and returns its trace and the shared
// generator's next output after Run.
func runMachine(p program) ([]action, uint64) {
	r := rng.New(p.seed)
	m := New(Config{RNG: r, Mode: SMT})
	var trace []action
	for i, tp := range p.threads {
		m.AddThread(fmt.Sprint("t", i), i, func(e *Env) {
			for k, c := range tp.costs {
				if k == tp.stopAt {
					e.StopAll()
					if tp.stopReturns {
						return
					}
				}
				trace = append(trace, action{i, e.Now()})
				e.Busy(c)
			}
		})
	}
	m.Run(p.limit)
	return trace, r.Uint64()
}

// Handoff branches, as classified by chainModel.
const (
	resumeNew    = iota // the pick is not on the chain: resume it
	unwindOne           // the pick is the running thread's resumer
	unwindMany          // the pick is further up the chain
	finishNested        // a thread resumed by a sibling returned
	toRunLimit          // the limit ended the run with a thread resumed by a sibling
	toRunStop           // StopAll ended the run with a thread resumed by a sibling
	nBranches
)

var branchNames = [nBranches]string{"resume new", "unwind one level", "unwind several levels",
	"resumed thread finishing", "unwind to Run on limit", "unwind to Run on stop"}

// chainModel follows, from the reference's pick sequence alone, the
// chain of coroutines that hand the core to one another: Run resumes
// the first thread, a thread whose action makes another thread the
// pick resumes that thread itself, and a thread whose pick is already
// on the chain (or who may not pick anyone) yields to its resumer. It
// counts the handoff branches the sequence takes.
type chainModel struct {
	stack  []int // threads on the chain, the one Run resumed first
	counts [nBranches]int
	// endDepth is the chain's length when nothing more may run.
	endDepth int
}

// pick records that thread p runs next.
func (c *chainModel) pick(p int) {
	top := len(c.stack) - 1
	if top >= 0 && c.stack[top] == p {
		return // the running thread keeps the core
	}
	if i := slices.Index(c.stack, p); i >= 0 {
		if top-i == 1 {
			c.counts[unwindOne]++
		} else {
			c.counts[unwindMany]++
		}
		c.stack = c.stack[:i+1]
		return
	}
	c.counts[resumeNew]++
	c.stack = append(c.stack, p)
}

// finish records that the running thread returned.
func (c *chainModel) finish() {
	if len(c.stack) > 1 {
		c.counts[finishNested]++
	}
	c.stack = c.stack[:len(c.stack)-1]
}

// end records that nothing more may run; every thread on the chain
// yields in turn until control is back in Run.
func (c *chainModel) end(stopped bool) {
	c.endDepth = len(c.stack)
	if len(c.stack) > 1 {
		if stopped {
			c.counts[toRunStop]++
		} else {
			c.counts[toRunLimit]++
		}
	}
	c.stack = nil
}

// reference runs p as a plain loop and returns the trace, the shared
// generator's next output and the chain's branch record.
func reference(p program) ([]action, uint64, chainModel) {
	r := rng.New(p.seed)
	jitter := 0.35 // Config's default SMTJitter
	n := len(p.threads)
	ready := make([]uint64, n)
	pc := make([]int, n)
	done := make([]bool, n)
	stopped := false
	var trace []action
	var chain chainModel
	for {
		t := -1
		for i := range n {
			if !done[i] && (t < 0 || ready[i] < ready[t]) {
				t = i
			}
		}
		if t < 0 || ready[t] >= p.limit || stopped {
			chain.end(stopped && t >= 0)
			return trace, r.Uint64(), chain
		}
		chain.pick(t)
		tp, k := &p.threads[t], pc[t]
		if k == tp.stopAt {
			stopped = true
			if tp.stopReturns {
				done[t] = true
				chain.finish()
				continue
			}
		}
		if k == len(tp.costs) {
			done[t] = true
			chain.finish()
			continue
		}
		trace = append(trace, action{t, ready[t]})
		cost := float64(tp.costs[k])
		cost *= 1 + float64(jitter*r.Float64())
		ready[t] += uint64(cost + 0.5)
		pc[t]++
	}
}

// checkReference fails t unless the machine and the reference agree on
// p, and returns the reference's chain record.
func checkReference(t testing.TB, p program) chainModel {
	t.Helper()
	got, gotNext := runMachine(p)
	want, wantNext, chain := reference(p)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("action %d: machine ran thread %d at %d, reference thread %d at %d",
				i, got[i].thread, got[i].now, want[i].thread, want[i].now)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("machine ran %d actions, reference %d", len(got), len(want))
	}
	if gotNext != wantNext {
		t.Fatalf("shared generator diverged: next output %#x, reference %#x", gotNext, wantNext)
	}
	return chain
}

// TestSMTMatchesReferenceOrder runs seeded random programs through the
// machine and the reference, and requires the programs together to take
// every handoff branch.
func TestSMTMatchesReferenceOrder(t *testing.T) {
	var total [nBranches]int
	for seed := uint64(1); seed <= 400; seed++ {
		p := genProgram(seed)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			chain := checkReference(t, p)
			for b, n := range chain.counts {
				total[b] += n
			}
		})
	}
	for b, n := range total {
		t.Logf("%s: %d", branchNames[b], n)
		if n == 0 {
			t.Errorf("no program took the %q branch", branchNames[b])
		}
	}
}

func FuzzSMTReferenceOrder(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkReference(t, genProgram(seed))
	})
}
