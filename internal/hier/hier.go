// Package hier assembles cache levels into the memory hierarchy the
// experiments run against: an L1D and L2 (and optionally an LLC for the
// miss-rate tables), with per-level latencies from a uarch.Profile, optional
// hardware prefetching (the noise source dealt with in Appendix C), and the
// AMD utag way-predictor effect on observable latency.
//
// The hierarchy is load-only: the attacks never need stores, and the paper's
// channels are read channels.
package hier

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// PrefetcherKind selects the L1 hardware prefetcher model.
type PrefetcherKind int

// Prefetcher models.
const (
	// PrefetchNone disables prefetching.
	PrefetchNone PrefetcherKind = iota
	// PrefetchNextLine fetches physical line X+1 on an L1 miss to X (the
	// DCU streamer-style behaviour that pollutes neighbouring sets'
	// LRU state during Spectre attacks, Appendix C).
	PrefetchNextLine
	// PrefetchStride detects constant-stride miss patterns per requestor
	// and prefetches one stride ahead.
	PrefetchStride
)

// String names the prefetcher model.
func (k PrefetcherKind) String() string {
	switch k {
	case PrefetchNone:
		return "none"
	case PrefetchNextLine:
		return "next-line"
	case PrefetchStride:
		return "stride"
	default:
		return fmt.Sprintf("PrefetcherKind(%d)", int(k))
	}
}

// Level identifies where a load was served from.
type Level int

// Service levels.
const (
	LevelL1  Level = 1
	LevelL2  Level = 2
	LevelLLC Level = 3
	LevelMem Level = 4
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "Mem"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Config parameterizes a hierarchy.
type Config struct {
	Profile uarch.Profile

	L1Policy replacement.Kind
	L2Policy replacement.Kind

	// RNG is needed when any level uses the Random policy.
	RNG *rng.Rand

	// PL-cache options applied to the L1 (Section IX-B).
	PartitionLockedL1      bool
	LockReplacementStateL1 bool

	Prefetcher PrefetcherKind

	// WithLLC adds a 2 MiB 16-way last-level cache between L2 and
	// memory, used by the miss-rate tables (VI, VII).
	WithLLC bool
	// LLCLatency in cycles; defaults to 40 when zero.
	LLCLatency int
}

// Result describes one load.
type Result struct {
	Level   Level // where the data came from
	Latency int   // cycles, including the utag penalty when applicable
	// L1Hit reports a tag match in L1 (independent of utag state).
	L1Hit bool
	// UtagMiss reports an L1 tag match that nevertheless pays L1-miss
	// latency because the linear-address utag did not match.
	UtagMiss bool
	// Bypassed reports that the PL L1 refused the fill.
	Bypassed bool
	// PrefetchIssued reports that this access triggered a prefetch.
	PrefetchIssued bool
}

// stridePref is the per-requestor stride-detector state of
// PrefetchStride: the last missing line, the last observed stride, and
// whether a miss has been seen at all. It lives in a small slice indexed
// by requestor id (ids are tiny: sender, receiver, a few noise threads)
// so the per-miss update never touches a map or the allocator.
type stridePref struct {
	lastMiss uint64
	stride   int64
	seen     bool
}

// Hierarchy is the assembled memory system.
type Hierarchy struct {
	cfg Config
	l1  *cache.Cache
	l2  *cache.Cache
	llc *cache.Cache

	llcLatency int

	// Per-requestor stride-prefetcher state, grown on demand.
	pref []stridePref

	// Scratch buffers of the batch paths (see batch.go), allocated on
	// first use and reused across calls.
	breqs []cache.Request
	bres  []cache.Result
}

// prefPrealloc matches the cache's per-requestor counter pre-sizing.
const prefPrealloc = 8

// New builds the hierarchy described by cfg.
func New(cfg Config) *Hierarchy {
	p := cfg.Profile
	h := &Hierarchy{cfg: cfg, pref: make([]stridePref, 0, prefPrealloc)}
	h.l1 = cache.New(cache.Config{
		Name: "L1D", Sets: p.L1Sets, Ways: p.L1Ways, LineSize: p.LineSize,
		Policy: cfg.L1Policy, RNG: cfg.RNG,
		PartitionLocked:      cfg.PartitionLockedL1,
		LockReplacementState: cfg.LockReplacementStateL1,
		TrackUtags:           p.HasUtagPredictor,
	})
	h.l2 = cache.New(cache.Config{
		Name: "L2", Sets: p.L2Sets, Ways: p.L2Ways, LineSize: p.LineSize,
		Policy: cfg.L2Policy, RNG: cfg.RNG,
	})
	if cfg.WithLLC {
		h.llc = cache.New(cache.Config{
			Name: "LLC", Sets: 2048, Ways: 16, LineSize: p.LineSize,
			Policy: cfg.L2Policy, RNG: cfg.RNG,
		})
	}
	h.llcLatency = cfg.LLCLatency
	if h.llcLatency == 0 {
		h.llcLatency = 40
	}
	return h
}

// Profile returns the microarchitecture profile in use.
func (h *Hierarchy) Profile() uarch.Profile { return h.cfg.Profile }

// L1 exposes the L1 data cache (for state inspection in tests and traces).
func (h *Hierarchy) L1() *cache.Cache { return h.l1 }

// L2 exposes the second-level cache.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// LLC exposes the last-level cache, or nil when not configured.
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// Load performs a load of addr on behalf of requestor.
func (h *Hierarchy) Load(addr mem.Addr, requestor int) Result {
	return h.load(addr, requestor, cache.OpLoad, true)
}

// LoadOp performs a load with a PL-cache lock/unlock side effect.
func (h *Hierarchy) LoadOp(addr mem.Addr, requestor int, op cache.Op) Result {
	return h.load(addr, requestor, op, true)
}

func (h *Hierarchy) load(addr mem.Addr, requestor int, op cache.Op, allowPrefetch bool) Result {
	r1 := h.l1.Access(cache.Request{
		PhysLine: addr.PhysLine, LinearLine: addr.VirtLine,
		Requestor: requestor, Op: op,
	})
	return h.finish(addr, requestor, r1, allowPrefetch)
}

// finish completes a load whose L1 access already happened: latency
// selection for hits, the walk through L2/LLC/memory for misses, and
// the prefetch trigger. Splitting it from load lets LoadBatch run the
// L1 access through cache.AccessBatch and still share the exact
// per-access completion logic.
func (h *Hierarchy) finish(addr mem.Addr, requestor int, r1 cache.Result, allowPrefetch bool) Result {
	p := h.cfg.Profile
	if r1.Hit {
		res := Result{Level: LevelL1, Latency: p.L1Latency, L1Hit: true}
		if r1.UtagMiss {
			// Data present, way predictor wrong: the load replays
			// through the slow path and observes L1-miss latency.
			res.UtagMiss = true
			res.Latency = p.L2Latency
		}
		return res
	}

	// L1 miss: the line comes from L2 or beyond. The L1 access already
	// installed the line (or bypassed, for a locked PL victim).
	res := Result{Bypassed: r1.Bypassed}
	r2 := h.l2.Access(cache.Request{
		PhysLine: addr.PhysLine, LinearLine: addr.VirtLine,
		Requestor: requestor,
	})
	switch {
	case r2.Hit:
		res.Level, res.Latency = LevelL2, p.L2Latency
	case h.llc != nil:
		r3 := h.llc.Access(cache.Request{
			PhysLine: addr.PhysLine, LinearLine: addr.VirtLine,
			Requestor: requestor,
		})
		if r3.Hit {
			res.Level, res.Latency = LevelLLC, h.llcLatency
		} else {
			res.Level, res.Latency = LevelMem, p.MemLatency
		}
	default:
		res.Level, res.Latency = LevelMem, p.MemLatency
	}

	if allowPrefetch {
		res.PrefetchIssued = h.maybePrefetch(addr, requestor)
	}
	return res
}

// maybePrefetch implements the prefetcher models. Prefetched fills go
// through the normal access path (they update LRU state in every level they
// fill — that is exactly the noise the Spectre receiver must cancel), but
// they never recursively trigger further prefetches, and like real hardware
// prefetchers they never cross a 4 KiB page boundary.
func (h *Hierarchy) maybePrefetch(miss mem.Addr, requestor int) bool {
	switch h.cfg.Prefetcher {
	case PrefetchNextLine:
		next := mem.Addr{
			Virt: miss.Virt + uint64(h.cfg.Profile.LineSize), Phys: miss.Phys + uint64(h.cfg.Profile.LineSize),
			VirtLine: miss.VirtLine + 1, PhysLine: miss.PhysLine + 1,
		}
		if !samePage(next.Phys, miss.Phys) {
			return false
		}
		h.load(next, requestor, cache.OpLoad, false)
		return true
	case PrefetchStride:
		p := h.prefState(requestor)
		last, seen := p.lastMiss, p.seen
		p.lastMiss, p.seen = miss.PhysLine, true
		if !seen {
			return false
		}
		stride := int64(miss.PhysLine) - int64(last)
		prev := p.stride
		p.stride = stride
		if stride == 0 || stride != prev {
			return false
		}
		next := mem.Addr{
			Virt:     uint64(int64(miss.Virt) + stride*int64(h.cfg.Profile.LineSize)),
			Phys:     uint64(int64(miss.Phys) + stride*int64(h.cfg.Profile.LineSize)),
			VirtLine: uint64(int64(miss.VirtLine) + stride),
			PhysLine: uint64(int64(miss.PhysLine) + stride),
		}
		if !samePage(next.Phys, miss.Phys) {
			return false
		}
		h.load(next, requestor, cache.OpLoad, false)
		return true
	default:
		return false
	}
}

// samePage reports whether two physical byte addresses share a 4 KiB
// page — hardware prefetchers never cross one.
func samePage(a, b uint64) bool {
	return a/mem.PageSize == b/mem.PageSize
}

// prefState returns the stride-detector slot for one requestor, growing
// the table on first sight of a new id.
func (h *Hierarchy) prefState(requestor int) *stridePref {
	for len(h.pref) <= requestor {
		h.pref = append(h.pref, stridePref{})
	}
	return &h.pref[requestor]
}

// Flush removes the physical line from every level (the clflush model of
// the Flush+Reload baseline). It returns the deepest level that held the
// line, or 0 if it was nowhere cached.
func (h *Hierarchy) Flush(physLine uint64) Level {
	var deepest Level
	if h.l1.Flush(physLine) {
		deepest = LevelL1
	}
	if h.l2.Flush(physLine) {
		deepest = LevelL2
	}
	if h.llc != nil && h.llc.Flush(physLine) {
		deepest = LevelLLC
	}
	return deepest
}

// InvalidateAll empties every level.
func (h *Hierarchy) InvalidateAll() {
	h.l1.InvalidateAll()
	h.l2.InvalidateAll()
	if h.llc != nil {
		h.llc.InvalidateAll()
	}
}

// ResetStats clears counters in every level.
func (h *Hierarchy) ResetStats() {
	h.l1.ResetStats()
	h.l2.ResetStats()
	if h.llc != nil {
		h.llc.ResetStats()
	}
}

// Reset returns the whole hierarchy to power-on state: every level's
// lines, replacement state and counters, plus the prefetcher's stride
// detectors. Trial loops can re-run an experiment cell on one machine
// instead of reconstructing the hierarchy (construction, not simulation,
// is where a cell's allocations live).
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	if h.llc != nil {
		h.llc.Reset()
	}
	clear(h.pref)
	h.pref = h.pref[:0]
}

// Warm loads addr until it resides in L1 (two loads suffice: the first
// fills, the second verifies). It is used to satisfy preconditions like
// "line N is already in the cache before the attack" (Table V).
func (h *Hierarchy) Warm(addr mem.Addr, requestor int) {
	h.Load(addr, requestor)
	if !h.l1.Contains(addr.PhysLine) {
		// PL bypass can keep a line out of L1; callers warming locked
		// sets accept L2 residency.
		h.Load(addr, requestor)
	}
}
