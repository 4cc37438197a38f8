package secure

import (
	"repro/internal/cache"
	"repro/internal/replacement"
	"repro/internal/rng"
)

// RandomFillCache models the random-fill cache of Liu & Lee (Section IX-B
// "Randomization"): a miss is served directly to the core WITHOUT caching
// the requested line; instead, a line from a random nearby address (within
// the fill window) is brought in. Crucially — and this is the paper's
// observation — a HIT still updates the replacement state, so a sender that
// encodes with hits drives the LRU channel straight through the defence.
type RandomFillCache struct {
	inner *cache.Cache
	r     *rng.Rand
	// Window is the half-width, in lines, of the random-fill
	// neighbourhood.
	Window uint64
}

// NewRandomFillWithPolicy builds a random-fill cache with the given
// geometry and replacement policy. The rng is required when pol is
// replacement.Random and for the fill randomness itself.
func NewRandomFillWithPolicy(sets, ways int, window uint64, pol replacement.Kind, r *rng.Rand) *RandomFillCache {
	return &RandomFillCache{
		inner: cache.New(cache.Config{
			Name: "RF-L1D", Sets: sets, Ways: ways, LineSize: 64,
			Policy: pol, RNG: r,
		}),
		r:      r,
		Window: window,
	}
}

// Reset returns the cache to the exact state NewRandomFillWithPolicy
// builds with a generator seeded from seed: every line invalid,
// replacement state and counters at power-on, and the generator (which
// also drives a Random policy's victim choice) reseeded in place.
// Trial loops reuse one cache through Reset instead of rebuilding it.
func (c *RandomFillCache) Reset(seed uint64) {
	c.inner.Reset()
	c.r.Reseed(seed)
}

// AccessResult reports what one random-fill access did.
type AccessResult struct {
	Hit bool
	// Filled is the line actually installed (only on misses), which is
	// generally NOT the requested line.
	Filled  uint64
	DidFill bool
}

// Access performs a load. Hits behave normally (including the replacement
// state update that keeps the LRU channel alive); misses return the data
// uncached and install a random neighbour instead.
func (c *RandomFillCache) Access(physLine uint64, requestor int) AccessResult {
	if c.inner.Contains(physLine) {
		res := c.inner.Access(cache.Request{PhysLine: physLine, Requestor: requestor})
		return AccessResult{Hit: res.Hit}
	}
	// Miss: the requested line bypasses the cache. Fill a random line
	// from [physLine-Window, physLine+Window] instead.
	span := 2*c.Window + 1
	offset := c.r.Uint64n(span)
	var fill uint64
	if physLine >= c.Window {
		fill = physLine - c.Window + offset
	} else {
		fill = offset
	}
	c.inner.Access(cache.Request{PhysLine: fill, Requestor: requestor})
	return AccessResult{Filled: fill, DidFill: true}
}

// Contains reports residency of a specific line.
func (c *RandomFillCache) Contains(physLine uint64) bool { return c.inner.Contains(physLine) }

// Inner exposes the underlying cache for state inspection in experiments.
func (c *RandomFillCache) Inner() *cache.Cache { return c.inner }

// RandomFillLeakExperiment demonstrates Section IX-B's point: the LRU
// channel survives a random-fill cache. The sender's encoding access is a
// HIT, which updates the replacement state exactly as in a normal cache;
// the receiver then provokes random fills (every miss installs a random
// neighbour, occasionally landing in the target set) and observes whether
// its line 0 — the PLRU victim iff the sender stayed silent — got evicted.
// The decode is statistical (fills land in the target set with probability
// ~1/sets per miss), but clearly above chance. It returns the fraction of
// trials whose bit decoded correctly.
func RandomFillLeakExperiment(trials, missesPerTrial int, seed uint64) (correct float64) {
	r := rng.New(seed)
	ok := 0
	// One inner cache for all trials, Reset between them; the per-trial
	// split generator keeps the fill-randomness stream identical to the
	// construct-per-trial formulation.
	inner := cache.New(cache.Config{
		Name: "RF-L1D", Sets: 64, Ways: 8, LineSize: 64,
		Policy: replacement.TreePLRU,
	})
	for trial := 0; trial < trials; trial++ {
		inner.Reset()
		c := &RandomFillCache{inner: inner, r: r.Split(), Window: 16}
		const set = 5
		line := func(i int) uint64 { return uint64(i)*64 + set }
		// Receiver init (all hits after the first pass): lines 0..7
		// in order, establishing the sequential condition.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 8; i++ {
				c.Inner().Access(cache.Request{PhysLine: line(i), Requestor: 1})
			}
		}
		bit := r.Bit()
		// Sender encode: hit on line 0 iff bit==1.
		if bit == 1 {
			c.Access(line(0), 0)
		}
		// Receiver decode: provoke fills with misses to scattered
		// addresses; random fills sometimes land in the target set
		// and evict its PLRU victim.
		for i := 0; i < missesPerTrial; i++ {
			c.Access(1_000_000+uint64(trial)*100_000+uint64(i)*37, 1)
		}
		got := byte(1)
		if !c.Contains(line(0)) {
			got = 0 // line 0 evicted: it was the victim, sender silent
		}
		if got == bit {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}
