package hier

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// Bit-identity of the hierarchy batch path: LoadBatch must be
// indistinguishable from per-address Load calls — same Results, same per-level Stats, same replacement-state
// and RNG evolution — across every policy, prefetcher, and profile
// corner, including the configurations where they fall back to the
// per-access path.

// batchHierConfigs enumerates the corners: plain deterministic (phase
// split, with and without an LLC), Random L1 (per-access fallback), the
// next-line prefetcher (fallback), utag profile, and the PL configs.
func batchHierConfigs() []Config {
	sb, zen := uarch.SandyBridge(), uarch.Zen()
	return []Config{
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, WithLLC: true},
		{Profile: sb, L1Policy: replacement.TrueLRU, L2Policy: replacement.BitPLRU},
		{Profile: sb, L1Policy: replacement.BitPLRU, L2Policy: replacement.TreePLRU},
		{Profile: sb, L1Policy: replacement.FIFO, L2Policy: replacement.TreePLRU},
		{Profile: sb, L1Policy: replacement.Random, L2Policy: replacement.TreePLRU, WithLLC: true},
		{Profile: sb, L1Policy: replacement.FIFO, L2Policy: replacement.TreePLRU, Prefetcher: PrefetchNextLine},
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.BitPLRU, WithLLC: true},
		{Profile: zen, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, WithLLC: true},
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, PartitionLockedL1: true, WithLLC: true},
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, PartitionLockedL1: true, LockReplacementStateL1: true},
	}
}

func cfgName(cfg Config) string {
	return fmt.Sprintf("%s/%v-%v/pf=%v/pl=%v", cfg.Profile.Arch, cfg.L1Policy, cfg.L2Policy,
		cfg.Prefetcher, cfg.PartitionLockedL1)
}

// batchAddrs builds a stream mixing set-local churn (revisits that
// produce L1 hits) with strided cold misses.
func batchAddrs(cfg Config, n int, seed uint64) []mem.Addr {
	r := rng.New(seed)
	sets := uint64(cfg.Profile.L1Sets)
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		var line uint64
		switch r.Intn(4) {
		case 0: // cold-ish: large tag space
			line = uint64(r.Intn(64))*sets*7 + uint64(r.Intn(int(sets)))
		default: // hot working set: few tags, few sets
			line = uint64(r.Intn(10))*sets + uint64(r.Intn(4))
		}
		addrs[i] = lineAddr(line)
	}
	return addrs
}

// deepAddrs builds a stream that overflows the L2 in a few sets while
// the displaced lines still fit the LLC, so records are served from
// every level: hot-line L1 hits, L2 hits, LLC hits and memory.
func deepAddrs(cfg Config, n int, seed uint64) []mem.Addr {
	r := rng.New(seed)
	l2Sets := uint64(cfg.Profile.L2Sets)
	tags := 4 * cfg.Profile.L2Ways
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		line := uint64(r.Intn(tags))*l2Sets + uint64(r.Intn(4))
		if r.Intn(3) == 0 {
			line = uint64(r.Intn(4)) // hot
		}
		addrs[i] = lineAddr(line)
	}
	return addrs
}

// newBatchHier builds a hierarchy for cfg, giving Random configs a
// generator seeded with seed so twin hierarchies draw identically.
func newBatchHier(cfg Config, seed uint64) *Hierarchy {
	if cfg.L1Policy == replacement.Random || cfg.L2Policy == replacement.Random {
		cfg.RNG = rng.New(seed)
	}
	return New(cfg)
}

// hierStats renders everything a load can change: both requestors'
// counters and every set's replacement state, at every level. The batch
// loop updates state through a different code path than per-access
// execution, so equal Results alone would not prove bit-identity.
func hierStats(h *Hierarchy) string {
	var b strings.Builder
	for _, c := range []*cache.Cache{h.l1, h.l2, h.llc} {
		if c == nil {
			continue
		}
		fmt.Fprintf(&b, "%s %+v r0 %+v r1 %+v\n", c.Config().Name, c.Stats(), c.RequestorStats(0), c.RequestorStats(1))
		for set := 0; set < c.Sets(); set++ {
			b.WriteString(c.PolicyState(set))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// batchTwins is a per-access reference hierarchy and a batch
// hierarchy driven in lockstep.
type batchTwins struct {
	serial, batch *Hierarchy
	levels        map[Level]int // serial service levels seen
}

func newBatchTwins(cfg Config, seed uint64) *batchTwins {
	return &batchTwins{serial: newBatchHier(cfg, seed), batch: newBatchHier(cfg, seed), levels: map[Level]int{}}
}

// load runs addrs as requestor: per access on the reference, as one
// LoadBatch on the batch twin. It fails on the first diverging Result.
func (tw *batchTwins) load(t testing.TB, addrs []mem.Addr, requestor int) {
	t.Helper()
	want := make([]Result, len(addrs))
	for i, a := range addrs {
		want[i] = tw.serial.Load(a, requestor)
		tw.levels[want[i].Level]++
	}
	got := make([]Result, len(addrs))
	tw.batch.LoadBatch(addrs, requestor, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d diverges: batch %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// check compares the final counters and replacement state of the
// twins.
func (tw *batchTwins) check(t testing.TB) {
	t.Helper()
	want := hierStats(tw.serial)
	if got := hierStats(tw.batch); got != want {
		t.Fatalf("stats diverge:\nserial:\n%s\nbatch:\n%s", want, got)
	}
}

// requireDeep fails unless the reference served loads from the LLC and
// from memory, i.e. the LLC pass of the batch path was not empty.
func (tw *batchTwins) requireDeep(t testing.TB, cfg Config) {
	t.Helper()
	if cfg.WithLLC && (tw.levels[LevelLLC] == 0 || tw.levels[LevelMem] == 0) {
		t.Fatalf("stream never reached the LLC and memory: levels %v", tw.levels)
	}
	if tw.levels[LevelL2] == 0 {
		t.Fatalf("stream never hit the L2: levels %v", tw.levels)
	}
}

func TestLoadBatchMatchesLoad(t *testing.T) {
	for _, cfg := range batchHierConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			tw := newBatchTwins(cfg, 7)
			// One-record batches alternating requestors, like a
			// time-sliced interleave at the finest grain.
			for i, a := range batchAddrs(cfg, 600, 42) {
				tw.load(t, []mem.Addr{a}, i%2)
			}
			// Then real multi-address batches from the same state: a
			// single-requestor run, and a run that misses the L2 and
			// crosses a BatchChunk boundary.
			tw.load(t, batchAddrs(cfg, 400, 99), 0)
			tw.load(t, deepAddrs(cfg, BatchChunk+500, 5), 1)
			tw.requireDeep(t, cfg)
			tw.check(t)
		})
	}
}

// A whole address trace loaded through one LoadBatch call on a cold
// hierarchy must match per-address Load from the same cold state: the
// fills from empty, every later hit and eviction, and the final
// per-level Stats and replacement state.
func TestLoadTraceMatchesLoad(t *testing.T) {
	for _, cfg := range batchHierConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			tw := newBatchTwins(cfg, 3)
			trace := append(batchAddrs(cfg, 800, 4242), deepAddrs(cfg, 1200, 6)...)
			tw.load(t, trace, 0)
			tw.requireDeep(t, cfg)
			tw.check(t)
		})
	}
}

// LoadBatch must stay allocation-free after the first call sized the
// scratch buffers, on a stream that reaches every level, with and
// without an LLC.
func TestLoadBatchZeroAllocs(t *testing.T) {
	for _, llc := range []bool{true, false} {
		cfg := Config{Profile: uarch.SandyBridge(), L1Policy: replacement.TreePLRU,
			L2Policy: replacement.TreePLRU, WithLLC: llc}
		addrs := deepAddrs(cfg, 3*BatchChunk/2, 1)
		out := make([]Result, len(addrs))
		h := New(cfg)
		h.LoadBatch(addrs, 0, out)
		if got := testing.AllocsPerRun(100, func() {
			h.LoadBatch(addrs, 0, out)
		}); got != 0 {
			t.Errorf("llc=%v: LoadBatch allocates %.1f allocs/op, want 0", llc, got)
		}
	}
}

// LoadBatch always reports Results: a nil or short out panics, on the
// phase-split path and on the per-access fallback alike.
func TestLoadBatchRejectsShortOut(t *testing.T) {
	for _, cfg := range []Config{batchHierConfigs()[0], batchHierConfigs()[4]} {
		addrs := batchAddrs(cfg, 8, 1)
		for _, out := range [][]Result{nil, make([]Result, len(addrs)-1)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: LoadBatch with len(out) %d < %d did not panic", cfgName(cfg), len(out), len(addrs))
					}
				}()
				newBatchHier(cfg, 1).LoadBatch(addrs, 0, out)
			}()
		}
	}
}

// FuzzLoadBatchEquivalence drives a batchHierConfigs configuration
// with fuzzed addresses cut into fuzzed batches against per-access
// Load. Each address byte pair picks a tag
// and one of 16 low sets, so the lines collide at every level; each
// split byte gives the next batch's length (low 7 bits, plus one) and
// requestor (high bit), and the rest of the stream forms one last
// batch.
func FuzzLoadBatchEquivalence(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 2, 0, 1, 0, 3, 1}, []byte{1, 0x82})
	f.Add(uint8(4), []byte{9, 3, 9, 3, 200, 7, 9, 3, 17, 15}, []byte{0x80})
	f.Add(uint8(7), []byte{0, 0, 255, 255, 128, 1, 0, 0}, []byte{})
	f.Add(uint8(8), []byte{5, 5, 6, 5, 7, 5, 8, 5, 9, 5, 5, 5}, []byte{2, 2, 2})
	cfgs := batchHierConfigs()
	f.Fuzz(func(t *testing.T, cfgIdx uint8, addrBytes, splits []byte) {
		cfg := cfgs[int(cfgIdx)%len(cfgs)]
		l2Sets := uint64(cfg.Profile.L2Sets)
		addrs := make([]mem.Addr, len(addrBytes)/2)
		for i := range addrs {
			addrs[i] = lineAddr(uint64(addrBytes[2*i])*l2Sets + uint64(addrBytes[2*i+1]&15))
		}
		hs, hb := newBatchHier(cfg, 9), newBatchHier(cfg, 9)
		for len(addrs) > 0 {
			n, requestor := len(addrs), 0
			if len(splits) > 0 {
				n, requestor = min(n, int(splits[0]&0x7f)+1), int(splits[0]>>7)
				splits = splits[1:]
			}
			out := make([]Result, n)
			hb.LoadBatch(addrs[:n], requestor, out)
			for i, a := range addrs[:n] {
				if want := hs.Load(a, requestor); out[i] != want {
					t.Fatalf("record %d diverges: batch %+v, serial %+v", i, out[i], want)
				}
			}
			addrs = addrs[n:]
		}
		if a, b := hierStats(hs), hierStats(hb); a != b {
			t.Fatalf("stats diverge:\nserial:\n%s\nbatch:\n%s", a, b)
		}
	})
}
