package lruleak

// The ratio-pinned benchmarks. Each pair of sibling sub-benchmarks is
// compared inside one run by cmd/benchdiff -require, so the pins are
// immune to the runner's absolute speed. The paper's results
// themselves are pinned as testdata/ goldens, not here.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/metrics"
	"repro/internal/replacement"
)

// speedupVariants enumerates the worker counts of the parallel-speedup
// benchmarks. The workers=all variant is meaningless on a single-core
// runner — the "parallel" run is the serial run plus pool overhead, and
// publishing its 1.0x ratio misled a whole baseline — so it is skipped
// there, and every variant records the worker count that actually ran
// plus GOMAXPROCS so the bench output is self-describing.
func speedupVariants(b *testing.B, run func(b *testing.B, workers int)) {
	procs := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", procs}} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.name == "workers=all" && procs == 1 {
				b.Skip("GOMAXPROCS=1: workers=all would be the workers=1 run; skipping the meaningless 1.0x ratio")
			}
			run(b, bc.workers)
			b.ReportMetric(float64(bc.workers), "workers")
			b.ReportMetric(float64(procs), "gomaxprocs")
		})
	}
}

// BenchmarkTableIVParallelSpeedup is the engine's headline number: the
// same full Table IV sweep at one worker and at all cores. On a
// multi-core runner the ns/op ratio between the two sub-benches is the
// wall-time speedup (>= 2x expected: the sweep's two heavyweight Zen
// cells run concurrently instead of back to back).
func BenchmarkTableIVParallelSpeedup(b *testing.B) {
	speedupVariants(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			cells := TableIV(32, 2, uint64(i+1), RunOptions{Workers: workers})
			if len(cells) != 8 {
				b.Fatal("table shape")
			}
		}
	})
}

// BenchmarkSweepParallelSpeedup scales further than Table IV: a 24-cell
// profile × policy grid, where the engine's speedup approaches the core
// count because the cells are uniform.
func BenchmarkSweepParallelSpeedup(b *testing.B) {
	spec := SweepSpec{
		Policies: []ReplacementKind{TreePLRU, BitPLRU, FIFO, Random},
		MsgBits:  16, Repeats: 1,
	}
	speedupVariants(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			cells := Sweep(spec, uint64(i+1), RunOptions{Workers: workers})
			if len(cells) != 24 {
				b.Fatalf("sweep has %d cells", len(cells))
			}
		}
	})
}

// BenchmarkMetricsOverhead prices the engine's per-cell telemetry: the
// same many-small-cell grid on a persistent pool, uninstrumented vs
// instrumented. The cells are deliberately tiny (~µs of xorshift work
// into a local buffer) so the per-cell hooks — a handful of atomic
// adds plus a histogram observe — are as visible as they can ever be;
// real experiment cells are orders of magnitude heavier. CI
// pins telemetry=on to >= 0.8x the telemetry=off sibling via
// cmd/benchdiff -require, a box-speed-immune guard that the hooks stay
// in the noise.
func BenchmarkMetricsOverhead(b *testing.B) {
	const cells = 256
	jobs := make([]engine.Job[uint64], cells)
	for i := range jobs {
		jobs[i] = engine.Job[uint64]{
			Name: fmt.Sprintf("cell%d", i),
			Seed: uint64(i + 1),
			Run: func(seed uint64) uint64 {
				var buf [64]uint64
				x := seed
				for k := 0; k < 2048; k++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					buf[k&63] += x
				}
				return x
			},
		}
	}
	run := func(b *testing.B, pool *engine.Pool) uint64 {
		var sink uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range engine.Run(jobs, engine.Options{Pool: pool}) {
				sink ^= res.Value
			}
		}
		return sink
	}

	b.Run("telemetry=off", func(b *testing.B) {
		pool := engine.NewPool(0)
		defer pool.Close()
		run(b, pool)
		b.ReportMetric(cells, "cells")
	})
	b.Run("telemetry=on", func(b *testing.B) {
		reg := metrics.NewRegistry()
		tel := engine.NewTelemetry(reg)
		pool := engine.NewPoolWithTelemetry(0, tel)
		defer pool.Close()
		run(b, pool)
		completed := reg.Counter("engine_cells_completed_total", "").Value()
		timed := reg.Histogram("engine_cell_wall_seconds", "", nil).Count()
		if want := uint64(b.N * cells); completed != want || timed != want {
			b.Fatalf("telemetry lost cells: completed=%d histogram=%d, want %d", completed, timed, want)
		}
		b.ReportMetric(cells, "cells")
	})
}

// BenchmarkLeakageEnumeration times the reachable-state-space
// enumerator on the two paths the leakage study exercises: the
// exhaustive BFS (Tree-PLRU at 16 ways, 32768 states) and the sampling
// fallback (true LRU at 16 ways, whose 16! closure exceeds the cap, so
// that run skips the BFS and pays the full sampling budget). CI's
// benchdiff pin holds the exhaustive path well ahead of the sampled
// one — if BFS ever drifts toward the fallback's cost, the MaxStates
// cap is mis-set.
func BenchmarkLeakageEnumeration(b *testing.B) {
	b.Run("mode=exhaustive", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			sp := leakage.Enumerate(replacement.TreePLRU, 16, leakage.Options{})
			if !sp.Exhaustive {
				b.Fatal("Tree-PLRU/16 should enumerate exhaustively")
			}
			states = len(sp.States)
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("mode=sampled", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			sp := leakage.Enumerate(replacement.TrueLRU, 16, leakage.Options{})
			if sp.Exhaustive {
				b.Fatal("true LRU/16 should fall back to sampling")
			}
			cov = sp.Coverage
		}
		b.ReportMetric(cov, "coverage")
	})
}
