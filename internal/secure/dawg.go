package secure

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/replacement"
	"repro/internal/rng"
)

// DAWGCache models the relevant property of DAWG (Kiriansky et al.,
// Section IX-B): cache ways AND the replacement state are partitioned
// between protection domains. Each domain owns a contiguous group of ways
// per set and an independent replacement state over only those ways, so
// no access by one domain can influence the victim selection — or the
// observable timing — of another.
//
// A domain's partition is therefore a smaller cache of its own: one
// cache.Cache per domain, with the full set count and ways/domains ways.
type DAWGCache struct {
	parts []*cache.Cache // one per domain
}

// NewDAWG builds a partitioned cache: `ways` total ways per set divided
// evenly among `domains` protection domains, each partition running pol.
// The rng is required when pol is replacement.Random, whose victim
// choice draws from it; every partition shares it.
func NewDAWG(sets, ways, domains int, pol replacement.Kind, r *rng.Rand) *DAWGCache {
	if domains < 1 || ways%domains != 0 {
		panic(fmt.Sprintf("secure: %d ways not divisible among %d domains", ways, domains))
	}
	d := &DAWGCache{parts: make([]*cache.Cache, domains)}
	for i := range d.parts {
		d.parts[i] = cache.New(cache.Config{
			Name: "DAWG-L1D", Sets: sets, Ways: ways / domains, LineSize: 64,
			Policy: pol, RNG: r,
		})
	}
	return d
}

// Reset returns every partition to power-on state: all lines invalid,
// every domain's replacement state at its reset value, counters zeroed.
// Trial loops reuse one DAWGCache through Reset instead of reallocating
// it per trial.
func (d *DAWGCache) Reset() {
	for _, p := range d.parts {
		p.Reset()
	}
}

// Access performs a load by `domain`. Lookups search only the domain's own
// ways (DAWG partitions hits too — a cross-domain hit would itself be a
// channel), and replacement state updates stay inside the domain.
func (d *DAWGCache) Access(physLine uint64, domain int) (hit bool) {
	return d.parts[domain].Access(cache.Request{PhysLine: physLine, Requestor: domain}).Hit
}

// Contains reports whether the line is resident in the given domain's
// partition.
func (d *DAWGCache) Contains(physLine uint64, domain int) bool {
	return d.parts[domain].Contains(physLine)
}

// PolicyState renders one domain's replacement state in a set.
func (d *DAWGCache) PolicyState(set, domain int) string {
	return d.parts[domain].PolicyState(set)
}

// Stats returns the counters of domain's accesses.
func (d *DAWGCache) Stats(domain int) cache.Stats {
	return d.parts[domain].Stats()
}

// ResetStats zeroes every domain's counters.
func (d *DAWGCache) ResetStats() {
	for _, p := range d.parts {
		p.ResetStats()
	}
}

// DAWGLeakExperiment runs the Algorithm 2 single-set protocol against the
// partitioned cache: the receiver (domain 1) primes its partition, the
// sender (domain 0) accesses its line or not, the receiver decodes. It
// returns the fraction of trials in which the receiver correctly decoded
// the sender's bit — which must sit at chance (~0.5), because the
// partitions are independent.
func DAWGLeakExperiment(trials int, seed uint64) float64 {
	r := rng.New(seed)
	ok := 0
	d := NewDAWG(64, 8, 2, replacement.TreePLRU, nil)
	for trial := 0; trial < trials; trial++ {
		d.Reset()
		const set = 5
		line := func(i int) uint64 { return uint64(i)*64 + set }
		ways := 4 // receiver's partition size
		// Receiver primes its partition with its own lines.
		for i := 0; i < ways; i++ {
			d.Access(line(i), 1)
		}
		bit := r.Bit()
		if bit == 1 {
			d.Access(line(100), 0) // sender's access in its own domain
		}
		// Receiver decodes: one more line, then checks line 0.
		d.Access(line(ways), 1)
		got := byte(1)
		if d.Contains(line(0), 1) {
			got = 0
		}
		if got == bit {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}
