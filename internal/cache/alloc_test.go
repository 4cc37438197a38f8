package cache

import (
	"fmt"
	"testing"

	"repro/internal/replacement"
	"repro/internal/rng"
)

// The zero-allocation invariant of the flattened hot path: once a cache
// is warm (per-requestor counter table grown, set filled), Access must
// never touch the allocator — neither on hits nor on the full
// miss/evict/install path — for every replacement policy. The engine
// runs Access hundreds of millions of times per sweep; a single alloc
// per access puts the GC back on the profile.

func allocConfig(pol replacement.Kind) Config {
	cfg := Config{Name: "L1D", Sets: 64, Ways: 8, LineSize: 64, Policy: pol}
	if pol == replacement.Random {
		cfg.RNG = rng.New(11)
	}
	return cfg
}

func TestAccessHitPathZeroAllocs(t *testing.T) {
	for _, pol := range replacement.Kinds() {
		t.Run(pol.String(), func(t *testing.T) {
			c := New(allocConfig(pol))
			const set = 5
			// Warm: fill the set and grow the requestor tables.
			for i := 0; i < 8; i++ {
				c.Access(Request{PhysLine: lineInSet(c, set, i), Requestor: 1})
			}
			target := lineInSet(c, set, 3)
			if got := testing.AllocsPerRun(200, func() {
				if !c.Access(Request{PhysLine: target, Requestor: 1}).Hit {
					t.Fatal("warm access missed")
				}
			}); got != 0 {
				t.Errorf("hit path allocates %.1f allocs/op, want 0", got)
			}
		})
	}
}

func TestAccessMissPathZeroAllocs(t *testing.T) {
	for _, pol := range replacement.Kinds() {
		t.Run(pol.String(), func(t *testing.T) {
			c := New(allocConfig(pol))
			const set = 5
			for i := 0; i < 8; i++ {
				c.Access(Request{PhysLine: lineInSet(c, set, i), Requestor: 1})
			}
			// Every access below is to a never-seen line in the full
			// set: always a miss, always an eviction (cross-requestor,
			// to also exercise the CrossEvictions counters).
			next := 8
			if got := testing.AllocsPerRun(200, func() {
				res := c.Access(Request{PhysLine: lineInSet(c, set, next), Requestor: 2})
				next++
				if res.Hit {
					t.Fatal("fresh line hit")
				}
			}); got != 0 {
				t.Errorf("miss path allocates %.1f allocs/op, want 0", got)
			}
		})
	}
}

func TestAccessUtagAndPLPathsZeroAllocs(t *testing.T) {
	// The two optional per-access features: utag tracking (Zen) and the
	// PL-cache bypass branch.
	t.Run("utag", func(t *testing.T) {
		cfg := allocConfig(replacement.TreePLRU)
		cfg.TrackUtags = true
		c := New(cfg)
		c.Access(Request{PhysLine: 100, LinearLine: 1})
		alias := uint64(2)
		if got := testing.AllocsPerRun(200, func() {
			c.Access(Request{PhysLine: 100, LinearLine: alias})
			alias ^= 3 // alternate linear aliases: every hit is a utag miss
		}); got != 0 {
			t.Errorf("utag hit path allocates %.1f allocs/op, want 0", got)
		}
	})
	t.Run("pl-bypass", func(t *testing.T) {
		cfg := allocConfig(replacement.TrueLRU)
		cfg.PartitionLocked = true
		// The fixed design freezes replacement state on bypass, so the
		// locked line stays the victim and every miss below bypasses.
		cfg.LockReplacementState = true
		c := New(cfg)
		const set = 0
		c.Access(Request{PhysLine: lineInSet(c, set, 0), Op: OpLock})
		for i := 1; i < 8; i++ {
			c.Access(Request{PhysLine: lineInSet(c, set, i)})
		}
		next := 8
		if got := testing.AllocsPerRun(200, func() {
			res := c.Access(Request{PhysLine: lineInSet(c, set, next)})
			next++
			if !res.Bypassed {
				t.Fatal("locked-victim miss did not bypass")
			}
		}); got != 0 {
			t.Errorf("PL bypass path allocates %.1f allocs/op, want 0", got)
		}
	})
}

// Construction is where the allocations now live — and there must be a
// constant number of them (the slabs), not O(sets) policy objects.
func TestConstructionAllocationBudget(t *testing.T) {
	for _, sets := range []int{64, 2048} {
		got := testing.AllocsPerRun(10, func() {
			New(Config{Name: "t", Sets: sets, Ways: 8, LineSize: 64, Policy: replacement.TreePLRU})
		})
		// Cache struct + tag and metadata slabs + counter table +
		// SetArray + its word slice = 6; leave headroom for a little
		// more but not for per-set objects.
		if got > 8 {
			t.Errorf("New with %d sets makes %.0f allocs, want O(1)", sets, got)
		}
	}
}

func ExampleCache_Access() {
	c := New(Config{Name: "L1D", Sets: 64, Ways: 8, LineSize: 64, Policy: replacement.TreePLRU})
	miss := c.Access(Request{PhysLine: 5})
	hit := c.Access(Request{PhysLine: 5})
	fmt.Println(miss.Hit, hit.Hit)
	// Output: false true
}
