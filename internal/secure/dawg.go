package secure

import (
	"fmt"

	"repro/internal/replacement"
)

// DAWGCache models the relevant property of DAWG (Kiriansky et al.,
// Section IX-B): cache ways AND the replacement state are partitioned
// between protection domains. Each domain owns a contiguous group of ways
// per set and an independent replacement state over only those ways, so
// no access by one domain can influence the victim selection — or the
// observable timing — of another.
//
// Every (set, domain) partition is one row of a packed SetArray, row
// set*domains+domain, and owns the waysPer consecutive line slots
// starting at row*waysPer; the model exposes just enough surface to run
// the LRU channel protocols against it.
type DAWGCache struct {
	sets    int
	waysPer int // ways owned by each domain
	domains int
	lines   []dawgLine // [row*waysPer + way]
	repl    *replacement.SetArray
}

type dawgLine struct {
	valid bool
	tag   uint64
}

// NewDAWG builds a partitioned cache: `ways` total ways per set divided
// evenly among `domains` protection domains, running Tree-PLRU inside
// each partition.
func NewDAWG(sets, ways, domains int) *DAWGCache {
	return NewDAWGWithPolicy(sets, ways, domains, replacement.TreePLRU)
}

// NewDAWGWithPolicy is NewDAWG with an explicit per-partition
// replacement policy, for the secret-recovery defense matrix that
// sweeps the attack across policies.
func NewDAWGWithPolicy(sets, ways, domains int, pol replacement.Kind) *DAWGCache {
	if domains < 1 || ways%domains != 0 {
		panic(fmt.Sprintf("secure: %d ways not divisible among %d domains", ways, domains))
	}
	waysPer := ways / domains
	return &DAWGCache{
		sets: sets, waysPer: waysPer, domains: domains,
		lines: make([]dawgLine, sets*ways),
		repl:  replacement.NewSetArray(pol, sets*domains, waysPer, nil),
	}
}

// Reset returns every partition to power-on state: all lines invalid,
// every domain's replacement state at its reset value. Trial loops
// reuse one DAWGCache through Reset instead of reallocating it per
// trial.
func (d *DAWGCache) Reset() {
	clear(d.lines)
	d.repl.Reset()
}

// partition returns the replacement row and the line slots of domain's
// partition of the set physLine maps to, and physLine's tag.
func (d *DAWGCache) partition(physLine uint64, domain int) (row int, lines []dawgLine, tag uint64) {
	if uint(domain) >= uint(d.domains) {
		panic(fmt.Sprintf("secure: domain %d out of range", domain))
	}
	sets := uint64(d.sets)
	row = int(physLine%sets)*d.domains + domain
	return row, d.lines[row*d.waysPer:][:d.waysPer], physLine / sets
}

// Access performs a load by `domain`. Lookups search only the domain's own
// ways (DAWG partitions hits too — a cross-domain hit would itself be a
// channel), and replacement state updates stay inside the domain.
func (d *DAWGCache) Access(physLine uint64, domain int) (hit bool) {
	row, lines, tag := d.partition(physLine, domain)
	for w := range lines {
		if lines[w].valid && lines[w].tag == tag {
			d.repl.Touch(row, w)
			return true
		}
	}
	// Miss: fill an invalid way of the domain or evict its own victim.
	w := 0
	for w < len(lines) && lines[w].valid {
		w++
	}
	if w == len(lines) {
		w = d.repl.Victim(row)
	}
	lines[w] = dawgLine{valid: true, tag: tag}
	d.repl.Fill(row, w)
	return false
}

// Contains reports whether the line is resident in the given domain's
// partition.
func (d *DAWGCache) Contains(physLine uint64, domain int) bool {
	_, lines, tag := d.partition(physLine, domain)
	for _, ln := range lines {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// PolicyState renders one domain's replacement state in a set.
func (d *DAWGCache) PolicyState(set, domain int) string {
	return d.repl.StateString(set*d.domains + domain)
}

// DAWGLeakExperiment runs the Algorithm 2 single-set protocol against the
// partitioned cache: the receiver (domain 1) primes its partition, the
// sender (domain 0) accesses its line or not, the receiver decodes. It
// returns the fraction of trials in which the receiver correctly decoded
// the sender's bit — which must sit at chance (~0.5), because the
// partitions are independent.
func DAWGLeakExperiment(trials int, seed uint64) float64 {
	r := newSeededRand(seed)
	ok := 0
	d := NewDAWG(64, 8, 2)
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
