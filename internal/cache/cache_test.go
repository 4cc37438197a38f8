package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/replacement"
	"repro/internal/rng"
)

// l1Config mirrors the paper's L1D: 32 KiB, 8-way, 64 sets, 64 B lines.
func l1Config(pol replacement.Kind) Config {
	return Config{Name: "L1D", Sets: 64, Ways: 8, LineSize: 64, Policy: pol}
}

// lineInSet returns the i-th distinct physical line mapping to the given set.
func lineInSet(c *Cache, set, i int) uint64 {
	return uint64(i)*uint64(c.Sets()) + uint64(set)
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero sets":     {Sets: 0, Ways: 8, LineSize: 64},
		"zero ways":     {Sets: 64, Ways: 0, LineSize: 64},
		"npot sets":     {Sets: 48, Ways: 8, LineSize: 64},
		"npot linesize": {Sets: 64, Ways: 8, LineSize: 48},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	r1 := c.Access(Request{PhysLine: 100})
	if r1.Hit {
		t.Fatal("first access hit an empty cache")
	}
	r2 := c.Access(Request{PhysLine: 100})
	if !r2.Hit {
		t.Fatal("second access missed")
	}
	if r2.Way != r1.Way {
		t.Errorf("hit in way %d, filled way %d", r2.Way, r1.Way)
	}
}

func TestSetIndexingIsModSets(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	for _, pl := range []uint64{0, 1, 63, 64, 65, 1000} {
		if got, want := c.SetIndex(pl), int(pl%64); got != want {
			t.Errorf("SetIndex(%d) = %d, want %d", pl, got, want)
		}
	}
}

func TestInvalidWaysFilledFirst(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	for i := 0; i < 8; i++ {
		res := c.Access(Request{PhysLine: lineInSet(c, 5, i)})
		if res.Hit || res.DidEvict {
			t.Fatalf("fill %d: hit=%v evict=%v, want cold fill", i, res.Hit, res.DidEvict)
		}
	}
	if got := c.Stats().Evictions; got != 0 {
		t.Errorf("evictions during cold fill = %d", got)
	}
}

// The Algorithm 1 (m=0) core sequence: fill 0..7, access line 8, and line 0
// must be the line evicted under sequential fill for LRU/Tree-PLRU/Bit-PLRU.
func TestNinthLineEvictsLineZero(t *testing.T) {
	for _, pol := range []replacement.Kind{replacement.TrueLRU, replacement.TreePLRU, replacement.BitPLRU} {
		c := New(l1Config(pol))
		const set = 3
		for i := 0; i < 8; i++ {
			c.Access(Request{PhysLine: lineInSet(c, set, i)})
		}
		res := c.Access(Request{PhysLine: lineInSet(c, set, 8)})
		if !res.DidEvict {
			t.Fatalf("%v: no eviction on 9th distinct line", pol)
		}
		if res.Evicted != lineInSet(c, set, 0) {
			t.Errorf("%v: evicted line %d, want line 0 (%d)", pol, res.Evicted, lineInSet(c, set, 0))
		}
		if c.Contains(lineInSet(c, set, 0)) {
			t.Errorf("%v: line 0 still present", pol)
		}
	}
}

// The Algorithm 1 (m=1) core sequence: fill 0..7, re-touch line 0 (the
// sender's hit), access line 8 — line 0 must survive.
func TestSenderHitProtectsLineZero(t *testing.T) {
	for _, pol := range []replacement.Kind{replacement.TrueLRU, replacement.TreePLRU, replacement.BitPLRU} {
		c := New(l1Config(pol))
		const set = 3
		for i := 0; i < 8; i++ {
			c.Access(Request{PhysLine: lineInSet(c, set, i)})
		}
		if res := c.Access(Request{PhysLine: lineInSet(c, set, 0)}); !res.Hit {
			t.Fatalf("%v: sender encoding access missed", pol)
		}
		c.Access(Request{PhysLine: lineInSet(c, set, 8)})
		if !c.Contains(lineInSet(c, set, 0)) {
			t.Errorf("%v: line 0 evicted despite sender hit", pol)
		}
	}
}

func TestDistinctSetsDoNotInterfere(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	for i := 0; i < 8; i++ {
		c.Access(Request{PhysLine: lineInSet(c, 1, i)})
	}
	// Hammer a different set.
	for i := 0; i < 100; i++ {
		c.Access(Request{PhysLine: lineInSet(c, 2, i)})
	}
	for i := 0; i < 8; i++ {
		if !c.Contains(lineInSet(c, 1, i)) {
			t.Fatalf("line %d of set 1 evicted by set 2 traffic", i)
		}
	}
}

func TestFlushRemovesLine(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	c.Access(Request{PhysLine: 42})
	if !c.Flush(42) {
		t.Fatal("Flush reported no line removed")
	}
	if c.Contains(42) {
		t.Fatal("line present after flush")
	}
	if c.Flush(42) {
		t.Fatal("second flush found a line")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	c.Access(Request{PhysLine: 1, Requestor: 0})
	c.Access(Request{PhysLine: 1, Requestor: 0})
	c.Access(Request{PhysLine: 2, Requestor: 1})
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
	s0 := c.RequestorStats(0)
	if s0.Accesses != 2 || s0.Hits != 1 || s0.Misses != 1 {
		t.Errorf("requestor 0 stats = %+v", s0)
	}
	s1 := c.RequestorStats(1)
	if s1.Accesses != 1 || s1.Misses != 1 {
		t.Errorf("requestor 1 stats = %+v", s1)
	}
	if got := c.RequestorStats(9); got != (Stats{}) {
		t.Errorf("unknown requestor stats = %+v", got)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats left counters")
	}
}

func TestMissRate(t *testing.T) {
	cases := []struct {
		name            string
		s               Stats
		miss, crossEvic float64
	}{
		{"idle", Stats{}, 0, 0},
		{"idle with stray counts", Stats{Misses: 3, CrossEvictions: 2}, 0, 0},
		{"quarter misses", Stats{Accesses: 4, Misses: 1}, 0.25, 0},
		{"cross evictions", Stats{Accesses: 1000, Misses: 37, Evictions: 21, CrossEvictions: 9},
			float64(37) / float64(1000), float64(9) / float64(1000)},
		{"all miss", Stats{Accesses: 3, Misses: 3, CrossEvictions: 3}, 1, 1},
	}
	for _, tc := range cases {
		if got := tc.s.MissRate(); got != tc.miss {
			t.Errorf("%s: MissRate = %v, want %v", tc.name, got, tc.miss)
		}
		if got := tc.s.CrossEvictionRate(); got != tc.crossEvic {
			t.Errorf("%s: CrossEvictionRate = %v, want %v", tc.name, got, tc.crossEvic)
		}
	}
}

func TestStatsAddSumsEveryField(t *testing.T) {
	a := Stats{Accesses: 1, Hits: 2, Misses: 3, Evictions: 4, CrossEvictions: 5, Bypasses: 6, UtagMisses: 7}
	b := Stats{Accesses: 10, Hits: 20, Misses: 30, Evictions: 40, CrossEvictions: 50, Bypasses: 60, UtagMisses: 70}
	a.Add(b)
	want := Stats{Accesses: 11, Hits: 22, Misses: 33, Evictions: 44, CrossEvictions: 55, Bypasses: 66, UtagMisses: 77}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
	// Every field is a distinct non-zero count in b, so a field Add
	// forgot (or summed into the wrong place) cannot match.
	v := reflect.ValueOf(b)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Uint() == 0 {
			t.Errorf("Stats.%s is zero in the test input; extend it", v.Type().Field(i).Name)
		}
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	for i := 0; i < 20; i++ {
		c.Access(Request{PhysLine: uint64(i)})
	}
	c.InvalidateAll()
	for i := 0; i < 20; i++ {
		if c.Contains(uint64(i)) {
			t.Fatalf("line %d survived InvalidateAll", i)
		}
	}
}

func TestLockBitLifecycle(t *testing.T) {
	cfg := l1Config(replacement.TreePLRU)
	cfg.PartitionLocked = true
	c := New(cfg)
	c.Access(Request{PhysLine: 7, Op: OpLock})
	if !c.IsLocked(7) {
		t.Fatal("line not locked after OpLock")
	}
	c.Access(Request{PhysLine: 7, Op: OpUnlock})
	if c.IsLocked(7) {
		t.Fatal("line still locked after OpUnlock")
	}
	if c.IsLocked(9999) {
		t.Fatal("absent line reported locked")
	}
}

// Flushing a locked line drops its lock with it: reloaded, the line is
// unlocked and, in a PL cache, an ordinary victim (a stale lock bit
// would make the miss that picks it bypass). The per-access path and
// the batch loop, which plain configs run through its own install, must
// both see this.
func TestFlushClearsLockBit(t *testing.T) {
	for _, pl := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			cfg := l1Config(replacement.TrueLRU)
			cfg.PartitionLocked = pl
			c := New(cfg)
			const set = 0
			load := func(line uint64) Result {
				req := Request{PhysLine: line}
				if !batch {
					return c.Access(req)
				}
				out := make([]Result, 1)
				c.AccessBatch([]Request{req}, out)
				return out[0]
			}
			line0 := lineInSet(c, set, 0)
			c.Access(Request{PhysLine: line0, Op: OpLock})
			if !c.Flush(line0) || c.IsLocked(line0) {
				t.Fatalf("pl=%v batch=%v: flush left the line present or locked", pl, batch)
			}
			load(line0)
			if c.IsLocked(line0) {
				t.Fatalf("pl=%v batch=%v: reloaded line still locked", pl, batch)
			}
			for i := 1; i < 8; i++ {
				load(lineInSet(c, set, i))
			}
			res := load(lineInSet(c, set, 8))
			if res.Bypassed || !res.DidEvict || res.Evicted != line0 {
				t.Fatalf("pl=%v batch=%v: miss after flush+reload got %+v, want eviction of line %d", pl, batch, res, line0)
			}
		}
	}
}

// A line whose tag is 0 packs to the tag word 1, never to the invalid
// word 0: it must miss once and then hit, in a many-set cache (lines
// below the set count) and in a one-set cache (line 0).
func TestTagZeroLineHits(t *testing.T) {
	for _, cfg := range []Config{
		l1Config(replacement.TreePLRU),
		{Name: "one-set", Sets: 1, Ways: 4, LineSize: 64, Policy: replacement.TreePLRU},
	} {
		c := New(cfg)
		lines := []uint64{0}
		if cfg.Sets > 1 {
			lines = append(lines, uint64(cfg.Sets-1))
		}
		for _, line := range lines {
			if c.Access(Request{PhysLine: line}).Hit {
				t.Fatalf("%s: cold access to line %d hit", cfg.Name, line)
			}
			if !c.Access(Request{PhysLine: line}).Hit || !c.Contains(line) {
				t.Fatalf("%s: line %d (tag 0) did not hit after its fill", cfg.Name, line)
			}
		}
	}
}

// The packed tag word holds 63 tag bits. Only a one-set cache can see
// a wider tag, from a line number of 2^63 or more that no byte address
// produces; it is rejected rather than aliased onto the line 2^63
// below it. One bit less is accepted and kept apart from line 0.
func TestOneSetCacheRejectsTagBeyond63Bits(t *testing.T) {
	c := New(Config{Name: "one-set", Sets: 1, Ways: 2, LineSize: 64, Policy: replacement.TreePLRU})
	c.Access(Request{PhysLine: 0})
	top := uint64(1)<<63 - 1
	if c.Access(Request{PhysLine: top}).Hit {
		t.Fatal("line 2^63-1 hit on a cache holding only line 0")
	}
	if !c.Contains(0) || !c.Contains(top) {
		t.Fatal("lines 0 and 2^63-1 do not coexist")
	}
	for name, f := range map[string]func(){
		"Access":      func() { c.Access(Request{PhysLine: 1 << 63}) },
		"AccessBatch": func() { c.AccessBatch([]Request{{PhysLine: 1 << 63}}, nil) },
		"Contains":    func() { c.Contains(1 << 63) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s accepted line 2^63 in a one-set cache", name)
				}
			}()
			f()
		}()
	}
}

func TestPLCacheVictimLockedBypasses(t *testing.T) {
	cfg := l1Config(replacement.TrueLRU)
	cfg.PartitionLocked = true
	c := New(cfg)
	const set = 0
	// Fill the set; lock the line that will be the LRU victim (line 0).
	c.Access(Request{PhysLine: lineInSet(c, set, 0), Op: OpLock})
	for i := 1; i < 8; i++ {
		c.Access(Request{PhysLine: lineInSet(c, set, i)})
	}
	res := c.Access(Request{PhysLine: lineInSet(c, set, 8)})
	if !res.Bypassed {
		t.Fatal("miss with locked victim did not bypass")
	}
	if c.Contains(lineInSet(c, set, 8)) {
		t.Fatal("bypassed line was installed")
	}
	if !c.Contains(lineInSet(c, set, 0)) {
		t.Fatal("locked line was evicted")
	}
	if got := c.Stats().Bypasses; got != 1 {
		t.Errorf("bypass count = %d", got)
	}
}

// The original PL design updates replacement state even on bypassed misses
// and on hits to locked lines; the fixed design does not. This is the
// observable difference behind Figure 11.
func TestPLCacheFixFreezesReplacementState(t *testing.T) {
	run := func(fix bool) string {
		cfg := l1Config(replacement.TreePLRU)
		cfg.PartitionLocked = true
		cfg.LockReplacementState = fix
		c := New(cfg)
		const set = 0
		for i := 0; i < 8; i++ {
			op := OpLoad
			if i == 7 {
				op = OpLock
			}
			c.Access(Request{PhysLine: lineInSet(c, set, i), Op: op})
		}
		before := c.PolicyState(set)
		// Hit the locked line: with the fix the state must not move.
		c.Access(Request{PhysLine: lineInSet(c, set, 7)})
		after := c.PolicyState(set)
		if fix && before != after {
			t.Errorf("fixed PL cache: locked-line hit changed state %s -> %s", before, after)
		}
		if !fix && before == after {
			// Sequential fill ends with way 7 most recent; touching
			// line 7 again leaves Tree-PLRU state unchanged, so use
			// a different probe: hit line 7 after touching line 0.
			c.Access(Request{PhysLine: lineInSet(c, set, 0)})
			mid := c.PolicyState(set)
			c.Access(Request{PhysLine: lineInSet(c, set, 7)})
			if c.PolicyState(set) == mid {
				t.Error("original PL cache: locked-line hit did not update state")
			}
		}
		return after
	}
	run(true)
	run(false)
}

func TestUtagMissOnLinearAliasChange(t *testing.T) {
	cfg := l1Config(replacement.TreePLRU)
	cfg.TrackUtags = true
	c := New(cfg)
	// Sender installs the shared line through its own linear address.
	c.Access(Request{PhysLine: 100, LinearLine: 0x1000, Requestor: 0})
	// Receiver touches the same physical line through a different linear
	// address: data is present but the way predictor misses.
	res := c.Access(Request{PhysLine: 100, LinearLine: 0x2000, Requestor: 1})
	if !res.Hit || !res.UtagMiss {
		t.Fatalf("cross-address-space hit: hit=%v utagMiss=%v", res.Hit, res.UtagMiss)
	}
	// The utag is retrained: the receiver's second access is clean.
	res = c.Access(Request{PhysLine: 100, LinearLine: 0x2000, Requestor: 1})
	if !res.Hit || res.UtagMiss {
		t.Fatalf("retrained access: hit=%v utagMiss=%v", res.Hit, res.UtagMiss)
	}
	if c.Stats().UtagMisses != 1 {
		t.Errorf("utag miss count = %d", c.Stats().UtagMisses)
	}
}

func TestUtagSameLinearNoPenalty(t *testing.T) {
	cfg := l1Config(replacement.TreePLRU)
	cfg.TrackUtags = true
	c := New(cfg)
	c.Access(Request{PhysLine: 100, LinearLine: 0x1000})
	res := c.Access(Request{PhysLine: 100, LinearLine: 0x1000})
	if res.UtagMiss {
		t.Fatal("same linear address triggered utag miss")
	}
}

func TestNegativeRequestorPanics(t *testing.T) {
	c := New(l1Config(replacement.TreePLRU))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative requestor")
		}
	}()
	c.Access(Request{PhysLine: 1, Requestor: -1})
}

func TestRandomPolicyCacheWorks(t *testing.T) {
	cfg := l1Config(replacement.Random)
	cfg.RNG = rng.New(11)
	c := New(cfg)
	const set = 2
	for i := 0; i < 8; i++ {
		c.Access(Request{PhysLine: lineInSet(c, set, i)})
	}
	res := c.Access(Request{PhysLine: lineInSet(c, set, 8)})
	if !res.DidEvict {
		t.Fatal("random policy: no eviction on full set")
	}
}

// Property: cache contents are a function of the access stream — a hit is
// reported exactly when the line was accessed before and not displaced, as
// verified against a brute-force reference model of a fully-recorded set.
func TestQuickHitIffPresentReference(t *testing.T) {
	f := func(raw []byte) bool {
		c := New(Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64, Policy: replacement.TrueLRU})
		// Reference: per-set recency list, capacity 2.
		ref := map[int][]uint64{}
		for _, b := range raw {
			pl := uint64(b % 16)
			set := int(pl % 4)
			res := c.Access(Request{PhysLine: pl})
			// Check against reference.
			present := false
			for _, v := range ref[set] {
				if v == pl {
					present = true
					break
				}
			}
			if res.Hit != present {
				return false
			}
			// Update reference LRU list.
			lst := ref[set]
			for i, v := range lst {
				if v == pl {
					lst = append(lst[:i], lst[i+1:]...)
					break
				}
			}
			lst = append(lst, pl)
			if len(lst) > 2 {
				lst = lst[1:]
			}
			ref[set] = lst
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total accesses == hits + misses, and misses == cold fills +
// evictions + bypasses.
func TestQuickStatsConservation(t *testing.T) {
	r := rng.New(31)
	f := func(raw []byte) bool {
		cfg := l1Config(replacement.TreePLRU)
		cfg.PartitionLocked = true
		c := New(cfg)
		for i, b := range raw {
			op := OpLoad
			if i%17 == 0 {
				op = OpLock
			}
			c.Access(Request{PhysLine: uint64(b), Op: op, Requestor: r.Intn(3)})
		}
		s := c.Stats()
		if s.Accesses != s.Hits+s.Misses {
			return false
		}
		// Every miss either filled an invalid way, evicted, or bypassed.
		return s.Misses >= s.Evictions+s.Bypasses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
