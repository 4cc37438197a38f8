package main

import (
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/leakage"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/uarch"
	"repro/internal/victim"
	"repro/internal/workload"
)

// The ladder probes time one layer at a time by calling its public
// functions from outside. Every nanosecond-scale probe sizes its call
// count to probeBatch (see perOp); every millisecond-scale probe runs
// for at least probeTotal (see perCall).
const (
	probeBatch = 20 * time.Millisecond
	probeTotal = 300 * time.Millisecond
	// streamLen is the access-stream length the memory-system probes
	// cycle over: long enough to exceed the L1 and L2, short enough to
	// build in milliseconds.
	streamLen = 1 << 16
	// pairSlice is the benign pair's time slice in references, as in
	// the ROC sweep's benign co-runs (scaled to the stream length).
	pairSlice = 4096
)

// accessStream is the access stream a memory-system probe replays: one
// address and requestor per access, cut into runs of one requestor (the
// unit LoadBatch and AccessBatchStats take).
type accessStream struct {
	addrs []mem.Addr
	reqs  []cache.Request
	runs  [][2]int // [start, end) of each single-requestor run
}

func (s *accessStream) add(a mem.Addr, req int) {
	n := len(s.addrs)
	if len(s.runs) == 0 || s.reqs[n-1].Requestor != req {
		s.runs = append(s.runs, [2]int{n, n})
	}
	s.addrs = append(s.addrs, a)
	s.reqs = append(s.reqs, cache.Request{PhysLine: a.PhysLine, LinearLine: a.VirtLine, Requestor: req})
	s.runs[len(s.runs)-1][1] = n + 1
}

// benignPairStream is roc-detect's stream: two Figure 9 suite
// benchmarks time-sliced on one core, their address spaces apart, as
// the ROC sweep's negative samples run them.
func benignPairStream(seed uint64) (*accessStream, []workload.Generator) {
	gens := []workload.Generator{workload.SuiteBenchmark(0, seed), workload.SuiteBenchmark(1, seed^0x9e3779b9)}
	s := &accessStream{}
	for i := 0; i < streamLen; i++ {
		p := (i / pairSlice) % 2
		l := gens[p].Next().Addr/64 + uint64(p)<<26
		s.add(mem.Addr{Virt: l * 64, Phys: l * 64, VirtLine: l, PhysLine: l}, p)
	}
	return s, gens
}

// channelStream is stream-sched's stream: the Algorithm 1 covert
// channel at the stream sweep's operating point. Each symbol the sender
// touches the shared line 0 for a 1 bit, then the receiver walks its
// ways+1 lines of the target set.
func channelStream(seed uint64) *accessStream {
	setup := core.NewSetup(core.Config{Algorithm: core.Alg1SharedMemory, Mode: sched.SMT, Tr: 2000, Ts: 8000, Seed: seed})
	r := rng.New(seed)
	s := &accessStream{}
	for len(s.addrs) < streamLen {
		if r.Float64() < 0.5 {
			s.add(setup.SenderLine, core.ReqSender)
		}
		for _, l := range setup.ReceiverLines {
			s.add(l, core.ReqReceiver)
		}
	}
	return s
}

func l1Cache() *cache.Cache {
	p := uarch.SandyBridge()
	return cache.New(cache.Config{Name: "L1", Sets: p.L1Sets, Ways: p.L1Ways, LineSize: p.LineSize, Policy: replacement.TreePLRU})
}

func newHier() *hier.Hierarchy {
	return hier.New(hier.Config{Profile: uarch.SandyBridge(), L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
}

// runProbes fills the ladder's per-layer metrics. The memory-system
// rungs replay the stream of the workload being traced: the channel
// for stream-sched, the benign suite pair otherwise (roc-detect's, and
// the ladder's default).
func (r *run) runProbes() {
	seed := r.cfg.seed
	pair, gens := benignPairStream(seed)
	s := pair
	if r.cfg.workload == "stream-sched" {
		s = channelStream(seed)
	}
	n := len(s.reqs)

	// workload: one generator reference.
	r.layer["workload.next_ns"] = perOp(probeBatch, func(k int) {
		for i := 0; i < k; i++ {
			gens[(i/pairSlice)%2].Next()
		}
	})

	// replacement: the SetArray updates an L1 makes for this stream,
	// hits as Touch and misses as Fill, recorded from a cache pass.
	c := l1Cache()
	var touches, fills [][2]int
	for _, req := range s.reqs {
		res := c.Access(req)
		op := [2]int{c.SetIndex(req.PhysLine), res.Way}
		if res.Hit {
			touches = append(touches, op)
		} else {
			fills = append(fills, op)
		}
	}
	sa := replacement.NewSetArray(replacement.TreePLRU, c.Sets(), c.Ways(), nil)
	replay := func(ops [][2]int, f func(set, way int)) float64 {
		if len(ops) == 0 {
			return 0
		}
		return perOp(probeBatch, func(k int) {
			for i := 0; i < k; i++ {
				op := ops[i%len(ops)]
				f(op[0], op[1])
			}
		})
	}
	r.layer["replacement.touch_ns"] = replay(touches, sa.Touch)
	r.layer["replacement.fill_ns"] = replay(fills, sa.Fill)

	// cache: one Access, and AccessBatchStats per single-requestor run.
	c = l1Cache()
	r.layer["cache.access_ns"] = perOp(probeBatch, func(k int) {
		for i := 0; i < k; i++ {
			c.Access(s.reqs[i%n])
		}
	})
	out := make([]cache.Result, n)
	var st cache.Stats
	var perReq []cache.Stats
	r.layer["cache.batch_ns_per_access"] = perOp(probeBatch, func(k int) {
		for i := 0; i < k; i++ {
			run := s.runs[i%len(s.runs)]
			c.AccessBatchStats(s.reqs[run[0]:run[1]], out[run[0]:run[1]], &st, &perReq)
		}
	}) / (float64(n) / float64(len(s.runs)))

	// hier: one Load, and LoadBatch per single-requestor run.
	h := newHier()
	r.layer["hier.load_ns"] = perOp(probeBatch, func(k int) {
		for i := 0; i < k; i++ {
			j := i % n
			h.Load(s.addrs[j], s.reqs[j].Requestor)
		}
	})
	hres := make([]hier.Result, n)
	r.layer["hier.loadbatch_ns_per_access"] = perOp(probeBatch, func(k int) {
		for i := 0; i < k; i++ {
			run := s.runs[i%len(s.runs)]
			h.LoadBatch(s.addrs[run[0]:run[1]], s.reqs[run[0]].Requestor, hres[run[0]:run[1]])
		}
	}) / (float64(n) / float64(len(s.runs)))

	r.schedProbe(seed)

	// attack: one key-recovery run per defense, as the ROC sweep's
	// positive samples call it.
	v, err := victim.ByName("ttable", uarch.SandyBridge().L1Sets)
	if err != nil {
		panic(err) // a built-in victim at the built-in geometry
	}
	for _, def := range attack.Defenses() {
		r.layer["attack.run_ms."+def.String()] = perCall(probeTotal, func(i int) {
			s := seed + uint64(i)
			attack.Run(attack.Config{Victim: v, Defense: def, Policy: replacement.TreePLRU, Seed: s},
				victim.DemoSecret(v, 4, s))
		})
	}

	// leakage: one exhaustive state-space enumeration (Tree-PLRU at 16
	// ways, the board's largest exhaustive row) and one leaderboard
	// cell (Tree-PLRU, 8 ways, no defense).
	r.layer["leakage.enumerate_ms"] = perCall(probeTotal, func(int) {
		leakage.Enumerate(replacement.TreePLRU, 16, leakage.Options{})
	})
	r.layer["leakage.eval_ms"] = perCall(probeTotal, func(i int) {
		leakage.Eval(leakage.Config{Policy: replacement.TreePLRU, Ways: 8, Defense: attack.DefenseNone, Seed: seed + uint64(i)})
	})
}

// schedProbe times scheduler handoffs on a two-thread SMT machine whose
// threads are forced to alternate: each thread's every action makes it
// the one further ahead, so every action parks it and resumes the
// other. A near-zero jitter keeps the 1-cycle actions at 1 cycle. It
// also reports how many of the machine's goroutines are still alive
// the moment Run returns.
func (r *run) schedProbe(seed uint64) {
	var left int
	r.layer["sched.handoff_ns"] = perOp(probeBatch, func(k int) {
		before := runtime.NumGoroutine()
		m := sched.New(sched.Config{RNG: rng.New(seed), Mode: sched.SMT, SMTJitter: 1e-12})
		for t := 0; t < 2; t++ {
			m.AddThread("spin", t, func(e *sched.Env) {
				for {
					e.Busy(1)
				}
			})
		}
		// Each thread advances one cycle per action, so k actions
		// between them end at cycle k/2; the still-running threads are
		// reaped by Run.
		m.Run(uint64(k/2) + 1)
		left = runtime.NumGoroutine() - before
	})
	r.layer["sched.goroutines_after_run"] = float64(left)
}
