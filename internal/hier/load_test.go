package hier

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// Load returns a plain L1 hit (tag match, utag trained) straight from
// the L1 access. The reference below is the walk every load used to
// take: the L1 access, then the L2/LLC walk and the prefetch trigger for
// misses, with the level's Result chosen after. Any L1 hit that reached
// the levels below, the prefetcher, or a different Result, shows up as a
// divergence in Results, counters, replacement state or cached lines.

// refLoad is the reference load: L1 access, then refFinish for every
// access, hit or miss.
func refLoad(h *Hierarchy, addr mem.Addr, requestor int, op cache.Op, allowPrefetch bool) Result {
	r1 := h.l1.Access(cache.Request{
		PhysLine: addr.PhysLine, LinearLine: addr.VirtLine,
		Requestor: requestor, Op: op,
	})
	return refFinish(h, addr, requestor, r1, allowPrefetch)
}

func refFinish(h *Hierarchy, addr mem.Addr, requestor int, r1 cache.Result, allowPrefetch bool) Result {
	if r1.Hit {
		return refResult(h, r1, LevelL1)
	}
	req := cache.Request{PhysLine: addr.PhysLine, LinearLine: addr.VirtLine, Requestor: requestor}
	lvl := LevelMem
	if h.l2.Access(req).Hit {
		lvl = LevelL2
	} else if h.llc != nil && h.llc.Access(req).Hit {
		lvl = LevelLLC
	}
	res := refResult(h, r1, lvl)
	if allowPrefetch {
		res.PrefetchIssued = refPrefetch(h, addr, requestor)
	}
	return res
}

func refResult(h *Hierarchy, r1 cache.Result, lvl Level) Result {
	p := h.cfg.Profile
	switch lvl {
	case LevelL1:
		if r1.UtagMiss {
			return Result{Level: LevelL1, Latency: p.L2Latency, L1Hit: true, UtagMiss: true}
		}
		return Result{Level: LevelL1, Latency: p.L1Latency, L1Hit: true}
	case LevelL2:
		return Result{Level: LevelL2, Latency: p.L2Latency, Bypassed: r1.Bypassed}
	case LevelLLC:
		return Result{Level: LevelLLC, Latency: 40, Bypassed: r1.Bypassed}
	default:
		return Result{Level: LevelMem, Latency: p.MemLatency, Bypassed: r1.Bypassed}
	}
}

func refPrefetch(h *Hierarchy, miss mem.Addr, requestor int) bool {
	if h.cfg.Prefetcher != PrefetchNextLine {
		return false
	}
	line := uint64(h.cfg.Profile.LineSize)
	next := mem.Addr{
		Virt: miss.Virt + line, Phys: miss.Phys + line,
		VirtLine: miss.VirtLine + 1, PhysLine: miss.PhysLine + 1,
	}
	if next.Phys/mem.PageSize != miss.Phys/mem.PageSize {
		return false
	}
	refLoad(h, next, requestor, cache.OpLoad, false)
	return true
}

// loadEquivConfigs covers every branch a load can take: a plain and an
// LLC SandyBridge, Zen (utag-miss hits), PL-cache L1s with and without
// the replacement-state fix, the next-line prefetcher (alone, on Zen
// and on a PL L1), and a Random L1 whose victim draws must stay in
// step.
func loadEquivConfigs() []Config {
	sb, zen := uarch.SandyBridge(), uarch.Zen()
	t := replacement.TreePLRU
	return []Config{
		{Profile: sb, L1Policy: t, L2Policy: t},
		{Profile: sb, L1Policy: replacement.TrueLRU, L2Policy: replacement.BitPLRU, WithLLC: true},
		{Profile: zen, L1Policy: t, L2Policy: t},
		{Profile: zen, L1Policy: t, L2Policy: t, WithLLC: true, Prefetcher: PrefetchNextLine},
		{Profile: sb, L1Policy: t, L2Policy: t, PartitionLockedL1: true, WithLLC: true},
		{Profile: sb, L1Policy: replacement.TrueLRU, L2Policy: t, PartitionLockedL1: true, LockReplacementStateL1: true},
		{Profile: sb, L1Policy: t, L2Policy: t, PartitionLockedL1: true, LockReplacementStateL1: true, Prefetcher: PrefetchNextLine},
		{Profile: sb, L1Policy: replacement.FIFO, L2Policy: t, Prefetcher: PrefetchNextLine, WithLLC: true},
		{Profile: sb, L1Policy: replacement.Random, L2Policy: replacement.Random, WithLLC: true},
	}
}

// equivStream is a random load stream over a pool that churns four L1
// sets (hits, evictions, L2 and LLC re-fetches), reaches one physical
// line through two linear lines (utag misses on Zen), and includes each
// page's last line (the prefetcher's page-boundary stop).
type equivOp struct {
	addr      mem.Addr
	requestor int
	op        cache.Op
	viaLoadOp bool
}

func equivStream(cfg Config, n int, seed uint64) []equivOp {
	r := rng.New(seed)
	p := cfg.Profile
	sets := uint64(p.L1Sets)
	perPage := uint64(mem.PageSize / p.LineSize)
	ops := make([]equivOp, n)
	for i := range ops {
		var phys uint64
		switch r.Intn(8) {
		case 0: // a far tag: an L2 or LLC re-fetch, or memory
			phys = uint64(r.Intn(4*p.L2Ways))*uint64(p.L2Sets) + uint64(r.Intn(4))
		case 1: // the last line of a page
			phys = uint64(r.Intn(16))*perPage + perPage - 1
		default: // the hot pool: more tags than ways in four sets
			phys = uint64(r.Intn(p.L1Ways+4))*sets + uint64(r.Intn(4))
		}
		virt := phys
		if r.Intn(4) == 0 {
			virt += 1 << 30 // a second linear alias of the same frame
		}
		op := cache.OpLoad
		if cfg.PartitionLockedL1 && r.Intn(6) == 0 {
			op = cache.OpLock
		}
		ops[i] = equivOp{
			addr: mem.Addr{
				Virt: virt * uint64(p.LineSize), Phys: phys * uint64(p.LineSize),
				VirtLine: virt, PhysLine: phys,
			},
			requestor: r.Intn(2),
			op:        op,
			viaLoadOp: op == cache.OpLock || r.Intn(2) == 0,
		}
	}
	return ops
}

// cachedLines renders which pool lines each level holds and which L1
// lines are locked.
func cachedLines(h *Hierarchy, ops []equivOp) []bool {
	var out []bool
	for _, o := range ops {
		for _, c := range []*cache.Cache{h.l1, h.l2, h.llc} {
			if c != nil {
				out = append(out, c.Contains(o.addr.PhysLine))
			}
		}
		out = append(out, h.l1.IsLocked(o.addr.PhysLine))
	}
	return out
}

func TestLoadMatchesReferenceWalk(t *testing.T) {
	for _, cfg := range loadEquivConfigs() {
		name := fmt.Sprintf("%s/lock=%v/llc=%v", cfgName(cfg), cfg.LockReplacementStateL1, cfg.WithLLC)
		t.Run(name, func(t *testing.T) {
			got, want := newBatchHier(cfg, 11), newBatchHier(cfg, 11)
			ops := equivStream(cfg, 6000, 5)
			seen := map[string]int{}
			for i, o := range ops {
				var g Result
				if o.viaLoadOp {
					g = got.LoadOp(o.addr, o.requestor, o.op)
				} else {
					g = got.Load(o.addr, o.requestor)
				}
				w := refLoad(want, o.addr, o.requestor, o.op, true)
				if g != w {
					t.Fatalf("op %d (%+v) diverges: Load %+v, reference %+v", i, o, g, w)
				}
				seen[w.Level.String()]++
				if w.UtagMiss {
					seen["utag-miss"]++
				}
				if w.Bypassed {
					seen["bypassed"]++
				}
				if w.PrefetchIssued {
					seen["prefetch"]++
				}
			}
			if a, b := hierStats(want), hierStats(got); a != b {
				t.Fatalf("stats or replacement state diverge:\nreference:\n%s\nLoad:\n%s", a, b)
			}
			a, b := cachedLines(want, ops), cachedLines(got, ops)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("cached lines diverge at entry %d", i)
				}
			}
			// The stream must have exercised each branch the
			// configuration has.
			need := []string{"L1", "L2", "Mem"}
			if cfg.WithLLC {
				need = append(need, "LLC")
			}
			if cfg.Profile.HasUtagPredictor {
				need = append(need, "utag-miss")
			}
			if cfg.PartitionLockedL1 {
				need = append(need, "bypassed")
			}
			if cfg.Prefetcher == PrefetchNextLine {
				need = append(need, "prefetch")
			}
			for _, k := range need {
				if seen[k] == 0 {
					t.Errorf("stream never produced %s: %v", k, seen)
				}
			}
		})
	}
}
