package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/replacement"
	"repro/internal/rng"
)

// This file reproduces the Table I study of Section IV-C: the probability
// that line 0 is evicted by the receiver's access pattern under PLRU
// policies, as a function of the initial condition of the set and the
// number of loop iterations.
//
// Sequence 1 (Algorithm 1 sending m=0): access lines 0..8 in order.
// Sequence 2 (Algorithm 2 sending m=1, hyper-threaded): access lines 0..7
// in order with the sender's line x (= line 8) randomly inserted after each
// element with probability 1/2 (at least once per pass).

// InitCond is the warm-up condition of the target set before the measured
// loop.
type InitCond int

// Initial conditions of Table I.
const (
	// InitRandom warms the set with accesses to lines 0..7 and other
	// lines in random order.
	InitRandom InitCond = iota
	// InitSequential warms the set with Sequence 2 passes (in-order
	// access with random insertions), the condition the paper recommends
	// the receiver establish.
	InitSequential
)

// String names the condition.
func (c InitCond) String() string {
	if c == InitRandom {
		return "random"
	}
	return "sequential"
}

// Sequence identifies the measured access pattern.
type Sequence int

// Access sequences of Table I.
const (
	Seq1 Sequence = 1
	Seq2 Sequence = 2
)

// EvictionStudyConfig parameterizes the Table I simulation.
type EvictionStudyConfig struct {
	Policy replacement.Kind
	Ways   int // default 8
	// Trials per (condition, sequence, iteration) cell; default 10000 to
	// match the paper.
	Trials int
	Seed   uint64
}

// maxIterations bounds the study loop; the paper reports 1, 2, 3 and >= 8.
const maxIterations = 8

func (c EvictionStudyConfig) withDefaults() EvictionStudyConfig {
	if c.Ways == 0 {
		c.Ways = 8
	}
	if c.Trials == 0 {
		c.Trials = 10_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// EvictionStudyResult holds P(line 0 evicted) per iteration (1-indexed:
// Prob[0] is after the first pass).
type EvictionStudyResult struct {
	Cfg  EvictionStudyConfig
	Init InitCond
	Seq  Sequence
	Prob []float64
}

// singleSetCache builds a one-set cache so physical line i is "line i" of
// the studied set.
func singleSetCache(cfg EvictionStudyConfig) *cache.Cache {
	return cache.New(cache.Config{
		Name: "study", Sets: 1, Ways: cfg.Ways, LineSize: 64,
		Policy: cfg.Policy,
	})
}

// appendLine appends one study access (requestor 0, plain load).
func appendLine(reqs []cache.Request, line int) []cache.Request {
	return append(reqs, cache.Request{PhysLine: uint64(line)})
}

// appendSequence1 materializes Sequence 1: lines 0..ways in order.
func appendSequence1(reqs []cache.Request, ways int) []cache.Request {
	for i := 0; i <= ways; i++ {
		reqs = appendLine(reqs, i)
	}
	return reqs
}

// appendSequence2 materializes one Sequence 2 pass: lines 0..ways-1 in
// order, inserting line x (= line `ways`) after each with probability
// 1/2, at least once per pass.
func appendSequence2(reqs []cache.Request, ways int, r *rng.Rand) []cache.Request {
	forced := r.Intn(ways)
	inserted := false
	for i := 0; i < ways; i++ {
		reqs = appendLine(reqs, i)
		if r.Bool(0.5) {
			reqs = appendLine(reqs, ways)
			inserted = true
		} else if !inserted && i == forced {
			reqs = appendLine(reqs, ways)
			inserted = true
		}
	}
	return reqs
}

// appendWarmUp materializes the initial condition.
func appendWarmUp(reqs []cache.Request, cond InitCond, ways int, r *rng.Rand) []cache.Request {
	switch cond {
	case InitRandom:
		// Random accesses over lines 0..ways (the set's lines plus
		// line x), enough to fill and scramble the set.
		for i := 0; i < ways*5; i++ {
			reqs = appendLine(reqs, r.Intn(ways+1))
		}
	case InitSequential:
		// Two passes of Sequence 2.
		reqs = appendSequence2(reqs, ways, r)
		reqs = appendSequence2(reqs, ways, r)
	}
	return reqs
}

// RunEvictionStudy measures P(line 0 evicted) after each loop iteration of
// the given sequence under the given initial condition. One cache is
// built for the whole study and returned to power-on state between
// trials — at the paper's 10,000 trials per cell, per-trial machine
// construction used to dominate the study's allocation profile.
//
// Each trial phase is materialized into a request buffer and executed
// through cache.AccessBatch: the study is the hottest per-access loop in
// the repo (Table I alone is ~1.5M accesses per run) and the batch path
// cuts its per-access dispatch. Materializing a phase before running it
// is only faithful when the cache draws no randomness of its own between
// accesses, so the Random policy is rejected; Table I studies the
// deterministic policies only.
func RunEvictionStudy(cfg EvictionStudyConfig, cond InitCond, seq Sequence) EvictionStudyResult {
	cfg = cfg.withDefaults()
	if seq != Seq1 && seq != Seq2 {
		panic(fmt.Sprintf("core: unknown sequence %d", int(seq)))
	}
	if cfg.Policy == replacement.Random {
		panic("core: the eviction study does not run the Random policy: its victim draws between accesses would break the materialized access sequence")
	}
	r := rng.New(cfg.Seed ^ uint64(cond)<<8 ^ uint64(seq)<<16 ^ uint64(cfg.Policy)<<24)
	evicted := make([]int, maxIterations)
	c := singleSetCache(cfg)

	// Sequence 1 is draw-free: compile it once, replay per iteration.
	var seq1 []cache.Request
	if seq == Seq1 {
		seq1 = appendSequence1(nil, cfg.Ways)
	}
	buf := make([]cache.Request, 0, 5*cfg.Ways+8)
	for trial := 0; trial < cfg.Trials; trial++ {
		c.Reset()
		buf = appendWarmUp(buf[:0], cond, cfg.Ways, r)
		c.AccessBatch(buf, nil)
		for it := 0; it < maxIterations; it++ {
			batch := seq1
			if seq == Seq2 {
				buf = appendSequence2(buf[:0], cfg.Ways, r)
				batch = buf
			}
			c.AccessBatch(batch, nil)
			if !c.Contains(0) {
				evicted[it]++
			}
		}
	}

	res := EvictionStudyResult{Cfg: cfg, Init: cond, Seq: seq, Prob: make([]float64, maxIterations)}
	for i, n := range evicted {
		res.Prob[i] = float64(n) / float64(cfg.Trials)
	}
	return res
}

// TableICell identifies one data cell of Table I.
type TableICell struct {
	Init   InitCond
	Policy replacement.Kind
	Seq    Sequence
	// Iteration is 1, 2, 3 or 8 (standing for ">= 8").
	Iteration int
	Prob      float64
}

// TableISpec identifies one eviction study of the Table I grid (one
// (condition, policy, sequence) triple, which yields four table cells —
// iterations 1, 2, 3 and >= 8).
type TableISpec struct {
	Init   InitCond
	Policy replacement.Kind
	Seq    Sequence
}

// String names the spec for progress reporting.
func (sp TableISpec) String() string {
	return fmt.Sprintf("tableI/%v/%v/seq%d", sp.Init, sp.Policy, int(sp.Seq))
}

// TableISpecs enumerates the full Table I grid in the paper's row
// order. The paper reports a single LRU column for both sequences (they
// agree); both are emitted.
func TableISpecs() []TableISpec {
	var specs []TableISpec
	for _, cond := range []InitCond{InitRandom, InitSequential} {
		for _, pol := range []replacement.Kind{replacement.TrueLRU, replacement.TreePLRU, replacement.BitPLRU} {
			for _, seq := range []Sequence{Seq1, Seq2} {
				specs = append(specs, TableISpec{Init: cond, Policy: pol, Seq: seq})
			}
		}
	}
	return specs
}

// RunTableISpec runs one grid study and expands it into its four table
// cells. All randomness derives from seed (RunEvictionStudy mixes in
// the spec itself), so the studies are independent and can execute in
// any order or in parallel.
func RunTableISpec(sp TableISpec, trials int, seed uint64) []TableICell {
	res := RunEvictionStudy(EvictionStudyConfig{
		Policy: sp.Policy, Trials: trials, Seed: seed,
	}, sp.Init, sp.Seq)
	cells := make([]TableICell, 0, 4)
	for _, it := range []int{1, 2, 3, 8} {
		cells = append(cells, TableICell{
			Init: sp.Init, Policy: sp.Policy, Seq: sp.Seq,
			Iteration: it, Prob: res.Prob[it-1],
		})
	}
	return cells
}
