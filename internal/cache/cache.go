// Package cache implements a parametric set-associative cache with
// pluggable replacement policies, the substrate every experiment in the
// paper runs on.
//
// The model is load-oriented (the attacks only issue loads; stores add
// nothing to the channel) and tracks, per line: validity, the physical tag,
// a lock bit (for the Partition-Locked secure cache of Section IX-B), a
// linear-address micro-tag (for the AMD Zen way-predictor model of Section
// VI-B), and the requestor that installed the line (for the per-process
// performance-counter tables).
//
// Addresses are handled as line numbers: physical address >> log2(lineSize).
// The set index is lineNumber mod sets; the tag is lineNumber / sets. Set
// counts must be powers of two (every geometry in the paper is), so both
// reduce to a mask and a shift. For the paper's 32 KiB 8-way 64-set L1D,
// virtual and physical index bits coincide (VIPT), which internal/mem
// depends on.
//
// Access and install are allocation-free: line metadata lives in
// contiguous per-field slabs, replacement state in a packed
// replacement.SetArray, and the per-requestor counter table is
// pre-sized. The experiment engine runs this method hundreds of
// millions of times per sweep; alloc_test.go pins 0 allocs/op for both
// the hit and the miss path.
//
// The slabs are split by how often each field is read. A lookup reads
// one word per way, tag<<1|1 for a valid line and 0 for an invalid one,
// so a set of 8 ways is one 64-byte line of host memory and one compare
// per way finds a hit. The rest of a line's metadata sits in a second
// slab that a hit never reads: the installing requestor, read when the
// line is evicted, and the lock bit and utag, read only by the PL-cache
// and utag paths. The packed word leaves 63 bits for the tag: with two
// or more sets every line number fits, and a one-set cache rejects
// (panics on) a line number of 2^63 or more, which no byte address can
// produce.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/replacement"
	"repro/internal/rng"
)

// Op distinguishes the access types of the PL cache flow chart (Figure 10).
// Plain loads use OpLoad; OpLock and OpUnlock additionally set or clear the
// line's lock bit.
type Op int

// Access operations.
const (
	OpLoad Op = iota
	OpLock
	OpUnlock
)

// Config parameterizes a cache level.
type Config struct {
	Name     string
	Sets     int // must be a power of two
	Ways     int
	LineSize int // bytes; must be a power of two

	Policy replacement.Kind
	// RNG is required when Policy is replacement.Random; it is also used
	// for nothing else, so deterministic policies may pass nil.
	RNG *rng.Rand

	// PartitionLocked enables the PL-cache miss behaviour: a miss whose
	// chosen victim is locked does not replace (the access is handled
	// uncached / bypassed).
	PartitionLocked bool
	// LockReplacementState enables the paper's fix to the PL cache (the
	// blue boxes of Figure 10): hits to locked lines do not update the
	// replacement state, and bypassed misses do not either.
	LockReplacementState bool
	// TrackUtags enables the AMD linear-address utag model: each line
	// remembers the linear line number that last touched it, and a hit
	// through a different linear address is flagged (the way predictor
	// misses, costing L1-miss latency even though the data is present).
	TrackUtags bool
}

func (c Config) validate() error {
	if c.Sets < 1 || c.Ways < 1 {
		return fmt.Errorf("cache %q: sets and ways must be >= 1 (got %d, %d)", c.Name, c.Sets, c.Ways)
	}
	if c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, c.Sets)
	}
	if c.LineSize < 1 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d is not a power of two", c.Name, c.LineSize)
	}
	return nil
}

// Request describes one access.
type Request struct {
	PhysLine   uint64 // physical line number (physical address / line size)
	LinearLine uint64 // linear (virtual) line number, used only by the utag model
	Requestor  int    // small non-negative id; used for counter attribution
	Op         Op
}

// Result reports what an access did.
type Result struct {
	Hit bool
	// UtagMiss is set on hits made through a linear address whose hash
	// differs from the line's stored utag: the data was present but the
	// way predictor forced a slow path, so the observable latency is that
	// of an L1 miss (Section VI-B).
	UtagMiss bool
	Way      int
	// Evicted reports the physical line number displaced by a fill.
	Evicted  uint64
	DidEvict bool
	// Bypassed is set when a PL-cache miss found its victim locked and
	// therefore did not fill.
	Bypassed bool
}

// Stats counts cache events, overall and attributed per requestor.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// CrossEvictions counts the subset of Evictions that displaced a
	// line installed by a DIFFERENT requestor — the inter-process
	// interference signature a prime-and-probe attacker cannot avoid
	// (every probe refill displaces a victim line), which the
	// detection monitor thresholds on.
	CrossEvictions uint64
	Bypasses       uint64
	UtagMisses     uint64
}

// Add sums o into s, field by field.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.CrossEvictions += o.CrossEvictions
	s.Bypasses += o.Bypasses
	s.UtagMisses += o.UtagMisses
}

// MissRate returns Misses/Accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// CrossEvictionRate returns CrossEvictions/Accesses, or 0 when idle:
// how much of the reference stream displaces other requestors' lines.
func (s Stats) CrossEvictionRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.CrossEvictions) / float64(s.Accesses)
}

// lineMeta is the metadata of one line that a lookup does not read:
// the installing requestor, read when the line is evicted, and the
// lock bit and utag, read only by the PL-cache and utag paths.
type lineMeta struct {
	owner  int32
	utag   uint8 // hash of the last linear line number that touched this line
	locked bool
}

// reqStatsPrealloc is the initial per-requestor counter capacity. The
// experiments use a handful of small ids (sender, receiver, noise
// threads); pre-sizing keeps reqStats off the allocator on the hot path.
const reqStatsPrealloc = 8

// Cache is one level of set-associative cache.
type Cache struct {
	cfg Config

	// The line at (set, way) is entry set*ways+way of each slab.
	// tags holds tag<<1|1 for a valid line and 0 for an invalid one,
	// meta the rest of its metadata. A meta entry is read only while
	// its line is valid and every install rewrites it, so invalidating
	// a line clears only its tag word.
	tags []uint64
	meta []lineMeta
	// repl holds the packed replacement state of every set.
	repl *replacement.SetArray

	setMask  uint64 // sets-1
	setShift uint   // log2(sets)
	ways     int

	stats  Stats
	perReq []Stats
}

// New builds a cache from cfg. It panics on invalid configuration, which is
// always a programming error in this codebase (configs are static).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
		meta:     make([]lineMeta, cfg.Sets*cfg.Ways),
		repl:     replacement.NewSetArray(cfg.Policy, cfg.Sets, cfg.Ways, cfg.RNG),
		setMask:  uint64(cfg.Sets - 1),
		setShift: uint(bits.TrailingZeros64(uint64(cfg.Sets))),
		ways:     cfg.Ways,
		perReq:   make([]Stats, 0, reqStatsPrealloc),
	}
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets and Ways report geometry.
func (c *Cache) Sets() int { return c.cfg.Sets }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// SetIndex returns the set that physLine maps to.
func (c *Cache) SetIndex(physLine uint64) int {
	return int(physLine & c.setMask)
}

// locate returns the set physLine maps to and the tag word a valid
// copy of it holds (tag<<1|1, never 0). It panics when the tag needs
// all 64 bits, which only a one-set cache given a line number of 2^63
// or more can produce: the packed word would alias it with another
// line.
func (c *Cache) locate(physLine uint64) (set int, word uint64) {
	tag := physLine >> c.setShift
	if tag>>63 != 0 {
		panic("cache: line number beyond 63 tag bits")
	}
	return int(physLine & c.setMask), tag<<1 | 1
}

// lineNumber inverts locate for a valid tag word.
func (c *Cache) lineNumber(set int, word uint64) uint64 {
	return word>>1<<c.setShift | uint64(set)
}

// utagHash models the linear-address micro-tag hash of the AMD L1 way
// predictor. The real hash is undocumented; any deterministic mixing of the
// linear line number preserves the behaviour the paper exploits (distinct
// linear addresses virtually never collide).
func utagHash(linearLine uint64) uint8 {
	x := linearLine * 0x9e3779b97f4a7c15
	return uint8(x ^ x>>29)
}

func (c *Cache) reqStats(requestor int) *Stats {
	return growStats(&c.perReq, requestor)
}

// growStats extends a per-requestor counter table to cover requestor
// and returns its entry. The returned pointer is invalidated by any
// later growth of the same table.
func growStats(perReq *[]Stats, requestor int) *Stats {
	for len(*perReq) <= requestor {
		*perReq = append(*perReq, Stats{})
	}
	return &(*perReq)[requestor]
}

// Access performs one access, updating line state, replacement state, lock
// bits and counters, and reports what happened. On a miss the caller (the
// hierarchy) is responsible for having fetched the data from the next
// level; this method installs the line unless bypassed.
func (c *Cache) Access(req Request) Result {
	if req.Requestor < 0 {
		panic("cache: negative requestor")
	}
	return c.accessInto(req, &c.stats, c.reqStats(req.Requestor))
}

// accessInto is the full access path, counting events into st and rs
// (the aggregate and per-requestor blocks — the cache's own under
// Access, the caller's pair under AccessBatchStats).
func (c *Cache) accessInto(req Request, st, rs *Stats) Result {
	set, word := c.locate(req.PhysLine)
	base := set * c.ways
	row := c.tags[base : base+c.ways]

	st.Accesses++
	rs.Accesses++

	w, free := lookup(row, word)
	if w >= 0 {
		// Hit.
		res := Result{Hit: true, Way: w}
		st.Hits++
		rs.Hits++
		m := &c.meta[base+w]
		if c.cfg.TrackUtags {
			h := utagHash(req.LinearLine)
			if m.utag != h {
				res.UtagMiss = true
				st.UtagMisses++
				rs.UtagMisses++
			}
			m.utag = h
		}
		// PL-cache fix: hits to locked lines leave replacement state
		// untouched so the LRU channel cannot be modulated through
		// protected lines.
		if !(c.cfg.LockReplacementState && m.locked) {
			c.repl.Touch(set, w)
		}
		applyLockOp(m, req.Op)
		return res
	}

	// Miss.
	st.Misses++
	rs.Misses++

	// Prefer invalid ways: replacement policies are only consulted when
	// the set is full.
	if free >= 0 {
		c.install(set, free, word, req)
		return Result{Hit: false, Way: free}
	}

	victim := c.repl.Victim(set)
	if c.cfg.PartitionLocked && c.meta[base+victim].locked {
		// Figure 10, left branch: victim locked, handle uncached.
		st.Bypasses++
		rs.Bypasses++
		res := Result{Hit: false, Bypassed: true, Way: -1}
		if !c.cfg.LockReplacementState {
			// Original PL design: the replacement state of the
			// victim is still updated, which is precisely the leak
			// demonstrated in Figure 11 (top).
			c.repl.Touch(set, victim)
		}
		return res
	}

	evicted := c.lineNumber(set, row[victim])
	res := Result{Hit: false, Way: victim, Evicted: evicted, DidEvict: true}
	st.Evictions++
	rs.Evictions++
	if int(c.meta[base+victim].owner) != req.Requestor {
		st.CrossEvictions++
		rs.CrossEvictions++
	}
	c.install(set, victim, word, req)
	return res
}

// install writes the line into (set, way) and updates replacement state.
func (c *Cache) install(set, way int, word uint64, req Request) {
	i := set*c.ways + way
	c.tags[i] = word
	m := &c.meta[i]
	m.owner = int32(req.Requestor)
	m.locked = false
	if c.cfg.TrackUtags {
		m.utag = utagHash(req.LinearLine)
	}
	c.repl.Fill(set, way)
	applyLockOp(m, req.Op)
}

func applyLockOp(m *lineMeta, op Op) {
	switch op {
	case OpLock:
		m.locked = true
	case OpUnlock:
		m.locked = false
	}
}

// find returns the slab index of the line holding physLine, and
// whether the line is cached at all.
func (c *Cache) find(physLine uint64) (i int, ok bool) {
	set, word := c.locate(physLine)
	base := set * c.ways
	way, _ := lookup(c.tags[base:base+c.ways], word)
	return base + way, way >= 0
}

// Contains reports whether physLine is currently cached (regardless of
// utag state).
func (c *Cache) Contains(physLine uint64) bool {
	_, ok := c.find(physLine)
	return ok
}

// IsLocked reports whether physLine is cached with its lock bit set.
func (c *Cache) IsLocked(physLine uint64) bool {
	i, ok := c.find(physLine)
	return ok && c.meta[i].locked
}

// Flush invalidates physLine if present (the clflush model used by the
// Flush+Reload baseline). It reports whether a line was removed. Flushing
// does not touch replacement state — matching real hardware, where clflush
// does not update LRU bits.
func (c *Cache) Flush(physLine uint64) bool {
	i, ok := c.find(physLine)
	if ok {
		c.tags[i] = 0
	}
	return ok
}

// InvalidateAll clears every line and resets replacement state, returning
// the cache to power-on conditions. Counters are preserved.
func (c *Cache) InvalidateAll() {
	clear(c.tags)
	c.repl.Reset()
}

// Reset returns the cache to full power-on state: lines invalidated,
// replacement state at its reset value, and all counters zeroed. Trial
// loops reuse one cache through Reset instead of reconstructing it —
// construction is the dominant allocation cost of a simulated machine.
func (c *Cache) Reset() {
	c.InvalidateAll()
	c.ResetStats()
	// Truncate (not just zero) the per-requestor table so a reset
	// cache is indistinguishable from a freshly constructed one, whose
	// table starts empty.
	c.perReq = c.perReq[:0]
}

// ResetStats zeroes all counters.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	for i := range c.perReq {
		c.perReq[i] = Stats{}
	}
}

// Stats returns the aggregate counters.
func (c *Cache) Stats() Stats { return c.stats }

// RequestorStats returns the counters attributed to one requestor.
func (c *Cache) RequestorStats(requestor int) Stats {
	if requestor < 0 || requestor >= len(c.perReq) {
		return Stats{}
	}
	return c.perReq[requestor]
}

// PolicyState renders the replacement state of one set, for traces and the
// Table I study.
func (c *Cache) PolicyState(set int) string {
	return c.repl.StateString(set)
}
