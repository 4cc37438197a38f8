package hier

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/uarch"
)

func newTestHier(t *testing.T, cfg Config) (*Hierarchy, *mem.System, *mem.AddressSpace) {
	t.Helper()
	if cfg.Profile.Name == "" {
		cfg.Profile = uarch.SandyBridge()
	}
	h := New(cfg)
	sys := mem.NewSystem(cfg.Profile.LineSize)
	return h, sys, sys.NewAddressSpace()
}

func TestColdLoadComesFromMemory(t *testing.T) {
	h, _, as := newTestHier(t, Config{L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	a := as.Resolve(as.Alloc(1))
	res := h.Load(a, 0)
	if res.Level != LevelMem {
		t.Fatalf("cold load served from %v", res.Level)
	}
	if res.Latency != uarch.SandyBridge().MemLatency {
		t.Errorf("latency = %d", res.Latency)
	}
}

func TestSecondLoadHitsL1(t *testing.T) {
	h, _, as := newTestHier(t, Config{L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	a := as.Resolve(as.Alloc(1))
	h.Load(a, 0)
	res := h.Load(a, 0)
	if res.Level != LevelL1 || !res.L1Hit {
		t.Fatalf("second load: %+v", res)
	}
	if res.Latency != 4 {
		t.Errorf("L1 hit latency = %d, want 4", res.Latency)
	}
}

func TestL1EvictedStillHitsL2(t *testing.T) {
	h, _, as := newTestHier(t, Config{L1Policy: replacement.TrueLRU, L2Policy: replacement.TrueLRU})
	prof := h.Profile()
	const set = 7
	lines := as.LinesForSet(prof.L1Sets, set, prof.L1Ways+1)
	var addrs []mem.Addr
	for _, v := range lines {
		addrs = append(addrs, as.Resolve(v))
	}
	// Fill set with lines 0..7, then access line 8: line 0 leaves L1 but
	// stays in L2 (different L2 set mapping spreads them, but line 0 was
	// filled into L2 on its initial miss).
	for _, a := range addrs[:8] {
		h.Load(a, 0)
	}
	h.Load(addrs[8], 0)
	if h.L1().Contains(addrs[0].PhysLine) {
		t.Fatal("line 0 still in L1")
	}
	res := h.Load(addrs[0], 0)
	if res.Level != LevelL2 {
		t.Fatalf("re-load of evicted line served from %v", res.Level)
	}
	if res.Latency != 12 {
		t.Errorf("L2 latency = %d, want 12", res.Latency)
	}
}

func TestFlushRemovesFromAllLevels(t *testing.T) {
	h, _, as := newTestHier(t, Config{L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, WithLLC: true})
	a := as.Resolve(as.Alloc(1))
	h.Load(a, 0)
	if lvl := h.Flush(a.PhysLine); lvl == 0 {
		t.Fatal("flush found nothing")
	}
	res := h.Load(a, 0)
	if res.Level != LevelMem {
		t.Fatalf("post-flush load served from %v", res.Level)
	}
	if h.Flush(999999) != 0 {
		t.Error("flushing absent line reported a level")
	}
}

func TestLLCPath(t *testing.T) {
	h, _, as := newTestHier(t, Config{L1Policy: replacement.TrueLRU, L2Policy: replacement.TrueLRU, WithLLC: true})
	a := as.Resolve(as.Alloc(1))
	h.Load(a, 0)
	// Evict from L1 and L2 by flushing just those levels via direct cache
	// access, leaving the LLC copy.
	h.L1().Flush(a.PhysLine)
	h.L2().Flush(a.PhysLine)
	res := h.Load(a, 0)
	if res.Level != LevelLLC {
		t.Fatalf("load served from %v, want LLC", res.Level)
	}
	if res.Latency != 40 {
		t.Errorf("LLC latency = %d", res.Latency)
	}
}

func TestUtagPenaltyOnZen(t *testing.T) {
	h := New(Config{Profile: uarch.Zen(), L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	sys := mem.NewSystem(64)
	sender, receiver := sys.NewAddressSpace(), sys.NewAddressSpace()
	sAddrs, rAddrs := mem.SharedLinesForSet(sys, sender, receiver, 64, 5, 1)
	sa, ra := sender.Resolve(sAddrs[0]), receiver.Resolve(rAddrs[0])

	h.Load(sa, 0) // sender installs via its linear address
	res := h.Load(ra, 1)
	if !res.L1Hit || !res.UtagMiss {
		t.Fatalf("cross-space hit: %+v", res)
	}
	if res.Latency != uarch.Zen().L2Latency {
		t.Errorf("utag-miss latency = %d, want L2 latency %d", res.Latency, uarch.Zen().L2Latency)
	}
	// Receiver retrains the utag; its next access is a fast hit.
	res = h.Load(ra, 1)
	if !res.L1Hit || res.UtagMiss || res.Latency != uarch.Zen().L1Latency {
		t.Errorf("retrained access: %+v", res)
	}
}

func TestNoUtagPenaltyOnIntel(t *testing.T) {
	h := New(Config{Profile: uarch.SandyBridge(), L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	sys := mem.NewSystem(64)
	sender, receiver := sys.NewAddressSpace(), sys.NewAddressSpace()
	sAddrs, rAddrs := mem.SharedLinesForSet(sys, sender, receiver, 64, 5, 1)
	h.Load(sender.Resolve(sAddrs[0]), 0)
	res := h.Load(receiver.Resolve(rAddrs[0]), 1)
	if res.UtagMiss || res.Latency != 4 {
		t.Errorf("Intel cross-space hit: %+v", res)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	h, _, as := newTestHier(t, Config{
		L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU,
		Prefetcher: PrefetchNextLine,
	})
	base := as.Alloc(1)
	a := as.Resolve(base)
	next := as.Resolve(base + 64)
	res := h.Load(a, 0)
	if !res.PrefetchIssued {
		t.Fatal("miss did not trigger next-line prefetch")
	}
	if !h.L1().Contains(next.PhysLine) {
		t.Fatal("next line not prefetched into L1")
	}
	// A hit must not prefetch.
	res = h.Load(a, 0)
	if res.PrefetchIssued {
		t.Error("hit triggered prefetch")
	}
}

func TestPrefetchPollutesLRUState(t *testing.T) {
	// The Appendix C problem in miniature: with the next-line prefetcher,
	// a miss in set S also updates the LRU state of set S+1.
	h, _, as := newTestHier(t, Config{
		L1Policy: replacement.TrueLRU, L2Policy: replacement.TrueLRU,
		Prefetcher: PrefetchNextLine,
	})
	prof := h.Profile()
	const set = 10
	lines := as.LinesForSet(prof.L1Sets, set, 1)
	before := h.L1().PolicyState(set + 1)
	h.Load(as.Resolve(lines[0]), 0)
	after := h.L1().PolicyState(set + 1)
	if before == after {
		t.Error("prefetch did not touch neighbouring set's replacement state")
	}
}

func TestPLBypassKeepsDataOutOfL1(t *testing.T) {
	h, _, as := newTestHier(t, Config{
		L1Policy: replacement.TrueLRU, L2Policy: replacement.TrueLRU,
		PartitionLockedL1: true,
	})
	prof := h.Profile()
	const set = 2
	lines := as.LinesForSet(prof.L1Sets, set, prof.L1Ways+1)
	// Lock line 0 (the eventual LRU victim) then fill the rest.
	h.LoadOp(as.Resolve(lines[0]), 0, lockOp())
	for i := 1; i < 8; i++ {
		h.Load(as.Resolve(lines[i]), 0)
	}
	res := h.Load(as.Resolve(lines[8]), 0)
	if !res.Bypassed {
		t.Fatal("miss with locked victim not bypassed")
	}
	if h.L1().Contains(as.Resolve(lines[8]).PhysLine) {
		t.Fatal("bypassed line installed in L1")
	}
	// Bypassed data is still served (from L2/mem) on later accesses.
	res = h.Load(as.Resolve(lines[8]), 0)
	if res.Level != LevelL2 {
		t.Errorf("bypassed line later served from %v, want L2", res.Level)
	}
}

func TestWarmBringsLineToL1(t *testing.T) {
	h, _, as := newTestHier(t, Config{L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	a := as.Resolve(as.Alloc(1))
	h.Warm(a, 0)
	if !h.L1().Contains(a.PhysLine) {
		t.Fatal("Warm did not fill L1")
	}
}

func TestRandomPolicyHierarchy(t *testing.T) {
	h := New(Config{
		Profile:  uarch.SandyBridge(),
		L1Policy: replacement.Random, L2Policy: replacement.Random,
		RNG: rng.New(4),
	})
	sys := mem.NewSystem(64)
	as := sys.NewAddressSpace()
	for i := 0; i < 100; i++ {
		h.Load(as.Resolve(as.Alloc(1)), 0)
	}
	if h.L1().Stats().Misses != 100 {
		t.Errorf("misses = %d", h.L1().Stats().Misses)
	}
}

func TestLevelAndPrefetcherStrings(t *testing.T) {
	if LevelL1.String() != "L1" || LevelMem.String() != "Mem" || Level(9).String() == "" {
		t.Error("Level.String broken")
	}
	if PrefetchNone.String() != "none" || PrefetchNextLine.String() != "next-line" ||
		PrefetcherKind(9).String() == "" {
		t.Error("PrefetcherKind.String broken")
	}
}

func lockOp() cache.Op { return cache.OpLock }

// Peek predicts the level and latency of the next Load wherever the line
// sits, and changes nothing: no counter moves and no line moves.
func TestPeekPredictsLoad(t *testing.T) {
	h, _, as := newTestHier(t, Config{L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, WithLLC: true})
	a := as.Resolve(as.Alloc(1))
	for _, tc := range []struct {
		want  Level
		place func()
	}{
		{LevelMem, func() {}},
		{LevelLLC, func() { h.Load(a, 0); h.l1.Flush(a.PhysLine); h.l2.Flush(a.PhysLine) }},
		{LevelL2, func() { h.Load(a, 0); h.l1.Flush(a.PhysLine) }},
		{LevelL1, func() { h.Load(a, 0) }},
	} {
		h.Reset()
		tc.place()
		before := [3]cache.Stats{h.l1.Stats(), h.l2.Stats(), h.llc.Stats()}
		peek := h.Peek(a.PhysLine)
		peek2 := h.Peek(a.PhysLine)
		if after := [3]cache.Stats{h.l1.Stats(), h.l2.Stats(), h.llc.Stats()}; after != before {
			t.Errorf("%v: Peek moved counters %+v -> %+v", tc.want, before, after)
		}
		if peek2 != peek {
			t.Errorf("%v: second Peek %+v differs from first %+v", tc.want, peek2, peek)
		}
		load := h.Load(a, 0)
		if peek.Level != tc.want || peek.Level != load.Level || peek.Latency != load.Latency {
			t.Errorf("Peek = %v/%d cycles, Load = %v/%d cycles, want level %v",
				peek.Level, peek.Latency, load.Level, load.Latency, tc.want)
		}
	}
}
