// Package perf is the GEM5 substitute behind Figure 9: it runs the
// synthetic SPEC-like workloads through the paper's simulated memory system
// (64 KiB 8-way L1D at 4 cycles, 2 MiB 16-way L2 at 8 cycles, 50 ns main
// memory) with different L1D replacement policies and reports the L1D miss
// rate and a cycles-per-instruction estimate.
//
// The CPU model is deliberately simple — a fixed base CPI plus a partially
// overlapped miss penalty — because Figure 9's claim is relative: swapping
// Tree-PLRU for FIFO or Random moves the L1D miss rate slightly and the CPI
// by under ~2%. A pipeline model's absolute numbers would still not match
// GEM5's; the ratio structure is what we reproduce.
package perf

import (
	"math"

	"repro/internal/cache"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Config parameterizes one Figure 9 run.
type Config struct {
	// Policy is the L1D replacement policy under test.
	Policy replacement.Kind
	// Instructions simulated per benchmark (one memory reference is
	// issued every memRefEvery instructions).
	Instructions int
	// Seed drives the Random policy's victim choice.
	Seed uint64
}

// Figure 9's GEM5 memory-system parameters.
const (
	l1Sets, l1Ways, l1Lat = 128, 8, 4   // 64 KiB 8-way
	l2Sets, l2Ways, l2Lat = 2048, 16, 8 // 2 MiB 16-way
	memLat                = 100         // 50 ns at the simulated 2 GHz
	baseCPI               = 0.6         // out-of-order core issuing ~1.7 IPC at best
	// memRefEvery is the instruction distance between memory
	// references, a typical load/store density.
	memRefEvery = 3
	// overlap is the fraction of a miss penalty hidden by out-of-order
	// execution and MLP.
	overlap = 0.6
)

// Result is one bar of Figure 9.
type Result struct {
	Benchmark   string
	Policy      replacement.Kind
	L1DMissRate float64
	L2MissRate  float64
	CPI         float64
}

// RunBenchmark executes one workload under one policy.
func RunBenchmark(gen workload.Generator, cfg Config) Result {
	r := rng.New(cfg.Seed)
	l1 := cache.New(cache.Config{
		Name: "L1D", Sets: l1Sets, Ways: l1Ways, LineSize: 64,
		Policy: cfg.Policy, RNG: r,
	})
	l2 := cache.New(cache.Config{
		Name: "L2", Sets: l2Sets, Ways: l2Ways, LineSize: 64,
		Policy: replacement.TreePLRU, RNG: r,
	})

	cycles := baseCPI * float64(cfg.Instructions)
	refs := cfg.Instructions / memRefEvery

	// The reference stream is generator-driven — the addresses never
	// depend on cache outcomes — so each chunk runs as one L1 batch and
	// one L2 batch over the L1 misses, gathered in record order. The L2
	// is Tree-PLRU and never draws from the shared generator, so running
	// the L1 pass ahead of the L2 pass reorders no draws even under a
	// Random L1 policy, and the CPI accumulates over the misses in
	// record order (float addition does not commute). L1 hits are fully
	// pipelined in the base CPI.
	const chunk = 4096
	reqs := make([]cache.Request, chunk)
	res := make([]cache.Result, chunk)
	for done := 0; done < refs; {
		n := min(chunk, refs-done)
		for i := 0; i < n; i++ {
			reqs[i].PhysLine = gen.Next().Addr / 64
		}
		l1.AccessBatch(reqs[:n], res[:n])
		m := 0
		for i := 0; i < n; i++ {
			if !res[i].Hit {
				reqs[m] = reqs[i]
				m++
			}
		}
		l2.AccessBatch(reqs[:m], res[:m])
		for j := 0; j < m; j++ {
			penalty := float64(l2Lat - l1Lat)
			if !res[j].Hit {
				penalty += memLat
			}
			// float64() stops a fused multiply-add (see rng.Float64).
			cycles += float64(penalty * (1 - overlap))
		}
		done += n
	}
	return Result{
		Benchmark:   gen.Name(),
		Policy:      cfg.Policy,
		L1DMissRate: l1.Stats().MissRate(),
		L2MissRate:  l2.Stats().MissRate(),
		CPI:         cycles / float64(cfg.Instructions),
	}
}

// Normalized returns each policy's metric divided by the first policy's
// (the paper normalizes to Tree-PLRU); results[p][b] is policy p on
// benchmark b. cpi selects CPI (true) or L1D miss rate (false).
func Normalized(results [][]Result, cpi bool) [][]float64 {
	if len(results) == 0 {
		return nil
	}
	norm := make([][]float64, len(results))
	for p := range results {
		norm[p] = make([]float64, len(results[p]))
		for b := range results[p] {
			var base, v float64
			if cpi {
				base, v = results[0][b].CPI, results[p][b].CPI
			} else {
				base, v = results[0][b].L1DMissRate, results[p][b].L1DMissRate
			}
			if base == 0 {
				norm[p][b] = 1
			} else {
				norm[p][b] = v / base
			}
		}
	}
	return norm
}

// GeoMean returns the geometric mean of xs (the summary bar of Figure 9).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
