package hier

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/uarch"
)

// Load must be allocation-free for every prefetcher model: the
// receiver's probe loop calls it eight times per sample, hundreds of
// millions of times per sweep.

func allocHier(pf PrefetcherKind) *Hierarchy {
	return New(Config{
		Profile:  uarch.SandyBridge(),
		L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU,
		Prefetcher: pf,
		WithLLC:    true,
	})
}

func lineAddr(physLine uint64) mem.Addr {
	return mem.Addr{
		Virt: physLine * 64, Phys: physLine * 64,
		VirtLine: physLine, PhysLine: physLine,
	}
}

func TestLoadZeroAllocs(t *testing.T) {
	for _, pf := range []PrefetcherKind{PrefetchNone, PrefetchNextLine} {
		t.Run(pf.String(), func(t *testing.T) {
			h := allocHier(pf)
			// Warm the hit target.
			h.Load(lineAddr(1), 0)
			h.Load(lineAddr(1), 0)

			t.Run("hit", func(t *testing.T) {
				if got := testing.AllocsPerRun(200, func() {
					if res := h.Load(lineAddr(1), 0); res.Level != LevelL1 {
						t.Fatal("warm load missed L1")
					}
				}); got != 0 {
					t.Errorf("hit path allocates %.1f allocs/op, want 0", got)
				}
			})
			t.Run("miss", func(t *testing.T) {
				// A cold-miss stream: every load misses all levels,
				// the LLC included, and under PrefetchNextLine each
				// miss issues the neighbour fetch.
				next := uint64(1 << 20)
				if got := testing.AllocsPerRun(200, func() {
					h.Load(lineAddr(next), 0)
					next += 2
				}); got != 0 {
					t.Errorf("miss path allocates %.1f allocs/op, want 0", got)
				}
			})
		})
	}
}

func TestHierarchyResetRestoresPowerOn(t *testing.T) {
	h := allocHier(PrefetchNone)
	for i := uint64(0); i < 100; i++ {
		h.Load(lineAddr(i*3), 1)
	}
	h.Reset()
	if h.L1().Stats() != (cache.Stats{}) || h.L2().Stats() != (cache.Stats{}) || h.LLC().Stats() != (cache.Stats{}) {
		t.Error("Reset left counters")
	}
	if h.L1().Contains(0) || h.L2().Contains(0) || h.LLC().Contains(0) {
		t.Error("Reset left lines resident")
	}
}
