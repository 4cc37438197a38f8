// Package hier assembles cache levels into the memory hierarchy the
// experiments run against: an L1D and L2 (and optionally an LLC for the
// miss-rate tables), with per-level latencies from a uarch.Profile, an
// optional next-line hardware prefetcher (the noise source dealt with in
// Appendix C), and the AMD utag way-predictor effect on observable latency.
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
)

// String names the prefetcher model.
func (k PrefetcherKind) String() string {
	switch k {
	case PrefetchNone:
		return "none"
	case PrefetchNextLine:
		return "next-line"
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
}

// llcLatency is the LLC hit latency in cycles.
const llcLatency = 40

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

// Hierarchy is the assembled memory system.
type Hierarchy struct {
	cfg Config
	l1  *cache.Cache
	l2  *cache.Cache
	llc *cache.Cache

	// Scratch buffers of LoadBatch (see batch.go), allocated on first
	// use and reused across calls.
	batch batchScratch
}

// New builds the hierarchy described by cfg.
func New(cfg Config) *Hierarchy {
	p := cfg.Profile
	h := &Hierarchy{cfg: cfg}
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
func (h *Hierarchy) Load(addr mem.Addr, requestor int) (res Result) {
	h.load(addr, requestor, cache.OpLoad, true, &res)
	return res
}

// LoadOp performs a load with a PL-cache lock/unlock side effect.
func (h *Hierarchy) LoadOp(addr mem.Addr, requestor int, op cache.Op) (res Result) {
	h.load(addr, requestor, op, true, &res)
	return res
}

// load performs one load and writes its Result through res, for the
// reason cache.Cache's access path does: a returned Result would be
// copied through the stack at each call. Load and LoadOp inline, so a
// caller reading one field of their Result pays no copy.
func (h *Hierarchy) load(addr mem.Addr, requestor int, op cache.Op, allowPrefetch bool, res *Result) {
	r1 := h.l1.Access(cache.Request{
		PhysLine: addr.PhysLine, LinearLine: addr.VirtLine,
		Requestor: requestor, Op: op,
	})
	if r1.Hit && !r1.UtagMiss {
		// A plain L1 hit, the sender's every access: no level below,
		// and no prefetcher, ever sees it.
		*res = h.l1Hit()
		return
	}
	*res = h.finish(addr, requestor, r1, allowPrefetch)
}

// l1Hit is the Result of a load served by the L1 at full speed.
func (h *Hierarchy) l1Hit() Result {
	return Result{Level: LevelL1, Latency: h.cfg.Profile.L1Latency, L1Hit: true}
}

// finish completes a load the L1 did not serve at full speed: a
// utag-miss hit, which pays the L2 latency but goes no further, or a
// miss, which walks L2/LLC/memory and may trigger the prefetcher.
func (h *Hierarchy) finish(addr mem.Addr, requestor int, r1 cache.Result, allowPrefetch bool) Result {
	if r1.UtagMiss {
		return h.result(r1, LevelL1)
	}
	// L1 miss: the line comes from L2 or beyond. The L1 access already
	// installed the line (or bypassed, for a locked PL victim).
	req := cache.Request{PhysLine: addr.PhysLine, LinearLine: addr.VirtLine, Requestor: requestor}
	lvl := LevelMem
	if h.l2.Access(req).Hit {
		lvl = LevelL2
	} else if h.llc != nil && h.llc.Access(req).Hit {
		lvl = LevelLLC
	}
	res := h.result(r1, lvl)
	if allowPrefetch {
		res.PrefetchIssued = h.maybePrefetch(addr, requestor)
	}
	return res
}

// result builds the Result of a load served from lvl whose L1 access
// returned r1: the one place a level's latency is chosen, shared by
// Load and LoadBatch.
func (h *Hierarchy) result(r1 cache.Result, lvl Level) Result {
	p := h.cfg.Profile
	switch lvl {
	case LevelL1:
		if r1.UtagMiss {
			// Data present, way predictor wrong: the load replays
			// through the slow path and observes L1-miss latency.
			return Result{Level: LevelL1, Latency: p.L2Latency, L1Hit: true, UtagMiss: true}
		}
		return h.l1Hit()
	case LevelL2:
		return Result{Level: LevelL2, Latency: p.L2Latency, Bypassed: r1.Bypassed}
	case LevelLLC:
		return Result{Level: LevelLLC, Latency: llcLatency, Bypassed: r1.Bypassed}
	default:
		return Result{Level: LevelMem, Latency: p.MemLatency, Bypassed: r1.Bypassed}
	}
}

// Peek reports where a load of physLine would be served from now, and its
// latency, without performing it: no fill, no replacement-state update,
// no counters, no prefetch. The utag predictor is ignored.
func (h *Hierarchy) Peek(physLine uint64) Result {
	lvl := LevelMem
	switch {
	case h.l1.Contains(physLine):
		lvl = LevelL1
	case h.l2.Contains(physLine):
		lvl = LevelL2
	case h.llc != nil && h.llc.Contains(physLine):
		lvl = LevelLLC
	}
	return h.result(cache.Result{}, lvl)
}

// maybePrefetch implements the next-line prefetcher. Prefetched fills go
// through the normal access path (they update LRU state in every level they
// fill — that is exactly the noise the Spectre receiver must cancel), but
// they never recursively trigger further prefetches, and like real hardware
// prefetchers they never cross a 4 KiB page boundary.
func (h *Hierarchy) maybePrefetch(miss mem.Addr, requestor int) bool {
	if h.cfg.Prefetcher != PrefetchNextLine {
		return false
	}
	next := mem.Addr{
		Virt: miss.Virt + uint64(h.cfg.Profile.LineSize), Phys: miss.Phys + uint64(h.cfg.Profile.LineSize),
		VirtLine: miss.VirtLine + 1, PhysLine: miss.PhysLine + 1,
	}
	if !samePage(next.Phys, miss.Phys) {
		return false
	}
	var res Result
	h.load(next, requestor, cache.OpLoad, false, &res)
	return true
}

// samePage reports whether two physical byte addresses share a 4 KiB
// page — hardware prefetchers never cross one.
func samePage(a, b uint64) bool {
	return a/mem.PageSize == b/mem.PageSize
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

// ResetStats clears counters in every level.
func (h *Hierarchy) ResetStats() {
	h.l1.ResetStats()
	h.l2.ResetStats()
	if h.llc != nil {
		h.llc.ResetStats()
	}
}

// Reset returns the whole hierarchy to power-on state: every level's
// lines, replacement state and counters. Trial loops can re-run an experiment cell on one machine
// instead of reconstructing the hierarchy (construction, not simulation,
// is where a cell's allocations live).
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	if h.llc != nil {
		h.llc.Reset()
	}
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
