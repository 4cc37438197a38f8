package attack

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/secure"
	"repro/internal/uarch"
)

// Requestor ids: the victim matches core.ReqSender (it is the
// information source), the attacker the receiver.
const (
	ReqVictim   = 0
	ReqAttacker = 1
)

// Defense selects the cache design under attack.
type Defense int

// The evaluated designs (Section IX).
const (
	// DefenseNone is the unprotected baseline hierarchy.
	DefenseNone Defense = iota
	// DefensePLCache is the original Partition-Locked cache: the
	// victim's table lines are locked, but hits on locked lines still
	// update replacement state (the Figure 11 top leak).
	DefensePLCache
	// DefensePLCacheFixed adds the paper's fix: locked-line hits and
	// bypassed misses leave the replacement state untouched.
	DefensePLCacheFixed
	// DefenseRandomFill is the random-fill cache: misses are served
	// uncached and a random neighbour is filled instead.
	DefenseRandomFill
	// DefenseDAWG partitions ways AND replacement state per domain.
	DefenseDAWG
)

// String names the defense.
func (d Defense) String() string {
	switch d {
	case DefenseNone:
		return "none"
	case DefensePLCache:
		return "plcache"
	case DefensePLCacheFixed:
		return "plcache-fix"
	case DefenseRandomFill:
		return "randomfill"
	case DefenseDAWG:
		return "dawg"
	default:
		return fmt.Sprintf("Defense(%d)", int(d))
	}
}

// ParseDefense maps a defense name back to its value, for flags.
func ParseDefense(s string) (Defense, error) {
	switch strings.ToLower(strings.ReplaceAll(s, "_", "-")) {
	case "none", "baseline":
		return DefenseNone, nil
	case "plcache", "pl":
		return DefensePLCache, nil
	case "plcache-fix", "plcachefix", "pl-fix":
		return DefensePLCacheFixed, nil
	case "randomfill", "rf", "random-fill":
		return DefenseRandomFill, nil
	case "dawg":
		return DefenseDAWG, nil
	default:
		return 0, fmt.Errorf("attack: unknown defense %q", s)
	}
}

// Defenses lists every defense, in evaluation-matrix order.
func Defenses() []Defense {
	return []Defense{DefenseNone, DefensePLCache, DefensePLCacheFixed, DefenseRandomFill, DefenseDAWG}
}

// Target is the cache under attack as both parties see it: loads by
// requestor, a victim-table warm-up hook, and performance counters for
// the detection verdict. Implementations adapt the baseline hierarchy
// and each internal/secure defense to this one surface so the attack
// protocol runs unchanged across the whole defense matrix.
type Target interface {
	// Access performs one load and reports whether it hit at L1 speed
	// — the attacker's (and victim's) only architectural observable.
	Access(line uint64, requestor int) bool
	// WarmVictim makes the victim's table lines resident before the
	// attack (and locks them, under a PL cache), the paper's standing
	// "the victim's data is already cached" precondition.
	WarmVictim(lines []uint64)
	// AttackerWays is how many ways of each set the attacker can
	// occupy: the full associativity, except under DAWG where the
	// attacker owns only its own partition.
	AttackerWays() int
	// Report renders one requestor's performance counters for the
	// detection monitor.
	Report(requestor int) perfctr.Report
	// ResetStats zeroes the counters; the attack session calls it once
	// after its warm-up so the monitor judges the steady phase (a real
	// monitor samples rates over sliding windows, which amortizes any
	// process's cold-start fill burst away).
	ResetStats()
	// Reset returns the target to the exact state NewTarget builds
	// with Seed set to seed: lines, replacement state, counters and the
	// generator. Trial loops reuse one target through Reset instead of
	// rebuilding the machine per trial.
	Reset(seed uint64)
}

// RandomFillWindow is the canonical ±line half-width of the random-fill
// neighbourhood, matching secure.RandomFillLeakExperiment.
const RandomFillWindow = 16

// TargetConfig parameterizes NewTarget.
type TargetConfig struct {
	Defense Defense
	Profile uarch.Profile
	Policy  replacement.Kind
	// Seed feeds the generator of the defenses and policies that need
	// randomness (random fill, the Random policy).
	Seed uint64
	// FillWindow is the random-fill neighbourhood half-width in lines;
	// 0 selects the canonical RandomFillWindow. Ignored by the other
	// defenses.
	FillWindow uint64
}

// NewTarget builds the cache under attack: geometry from the profile,
// the given L1 replacement policy, and the chosen defense.
func NewTarget(cfg TargetConfig) Target {
	prof := cfg.Profile
	switch cfg.Defense {
	case DefenseNone, DefensePLCache, DefensePLCacheFixed:
		r := rng.New(cfg.Seed)
		h := hier.New(hier.Config{
			Profile:  prof,
			L1Policy: cfg.Policy, L2Policy: replacement.TreePLRU,
			RNG:                    r,
			PartitionLockedL1:      cfg.Defense != DefenseNone,
			LockReplacementStateL1: cfg.Defense == DefensePLCacheFixed,
		})
		return &hierTarget{h: h, r: r, lock: cfg.Defense != DefenseNone, ways: prof.L1Ways}
	case DefenseRandomFill:
		window := cfg.FillWindow
		if window == 0 {
			window = RandomFillWindow
		}
		return &rfTarget{
			rf:   secure.NewRandomFillWithPolicy(prof.L1Sets, prof.L1Ways, window, cfg.Policy, rng.New(cfg.Seed)),
			ways: prof.L1Ways,
		}
	case DefenseDAWG:
		const domains = 2
		r := rng.New(cfg.Seed)
		return &dawgTarget{
			d:       secure.NewDAWG(prof.L1Sets, prof.L1Ways, domains, cfg.Policy, r),
			r:       r,
			waysPer: prof.L1Ways / domains,
		}
	default:
		panic(fmt.Sprintf("attack: unknown defense %d", int(cfg.Defense)))
	}
}

// lineAddr packages a physical line number as a resolved address (the
// attack's address spaces are identity-mapped: the channel only cares
// about set indices, which virtual and physical addresses share).
func lineAddr(line uint64) mem.Addr {
	return mem.Addr{Virt: line * 64, Phys: line * 64, VirtLine: line, PhysLine: line}
}

// BatchTarget is the optional batch surface of a Target: loads of
// lines in order on behalf of requestor with the hit bits written to
// hits, bit-identical to per-line Access calls. The synchronous attack
// session routes its prime/probe passes through it when the target
// provides one.
type BatchTarget interface {
	AccessBatch(lines []uint64, requestor int, hits []bool)
}

// hierTarget adapts the full hierarchy (baseline and both PL-cache
// variants).
type hierTarget struct {
	h    *hier.Hierarchy
	r    *rng.Rand // the generator every level of h draws from
	lock bool
	ways int

	// Scratch buffers of AccessBatch, reused across passes.
	baddrs []mem.Addr
	bres   []hier.Result
}

func (t *hierTarget) Access(line uint64, requestor int) bool {
	res := t.h.Load(lineAddr(line), requestor)
	return res.Level == hier.LevelL1 && !res.UtagMiss
}

func (t *hierTarget) AccessBatch(lines []uint64, requestor int, hits []bool) {
	if cap(t.baddrs) < len(lines) {
		t.baddrs = make([]mem.Addr, len(lines))
		t.bres = make([]hier.Result, len(lines))
	}
	addrs, res := t.baddrs[:len(lines)], t.bres[:len(lines)]
	for i, ln := range lines {
		addrs[i] = lineAddr(ln)
	}
	t.h.LoadBatch(addrs, requestor, res)
	for i := range res {
		hits[i] = res[i].Level == hier.LevelL1 && !res[i].UtagMiss
	}
}

func (t *hierTarget) WarmVictim(lines []uint64) {
	op := cache.OpLoad
	if t.lock {
		op = cache.OpLock
	}
	for _, ln := range lines {
		// Two loads: the first may fill only L2 (or be bypassed), the
		// second lands (and locks) the line in L1.
		t.h.LoadOp(lineAddr(ln), ReqVictim, op)
		t.h.LoadOp(lineAddr(ln), ReqVictim, op)
	}
}

func (t *hierTarget) AttackerWays() int { return t.ways }

func (t *hierTarget) Report(requestor int) perfctr.Report {
	return perfctr.Collect(t.h, requestor)
}

func (t *hierTarget) ResetStats() { t.h.ResetStats() }

func (t *hierTarget) Reset(seed uint64) {
	t.h.Reset()
	t.r.Reseed(seed)
}

// rfTarget adapts the random-fill cache. Warm-up goes through the
// inner cache (the table was demand-filled before the defense-relevant
// window, as in secure.RandomFillLeakExperiment); runtime accesses take
// the random-fill path, so the attacker cannot deterministically
// re-establish lines the defense refuses to fill.
type rfTarget struct {
	rf   *secure.RandomFillCache
	ways int
}

func (t *rfTarget) Access(line uint64, requestor int) bool {
	return t.rf.Access(line, requestor).Hit
}

func (t *rfTarget) WarmVictim(lines []uint64) {
	for _, ln := range lines {
		t.rf.Inner().Access(cache.Request{PhysLine: ln, Requestor: ReqVictim})
	}
}

func (t *rfTarget) AttackerWays() int { return t.ways }

func (t *rfTarget) Report(requestor int) perfctr.Report {
	return perfctr.FromL1Stats(requestor, t.rf.Inner().RequestorStats(requestor))
}

func (t *rfTarget) ResetStats() { t.rf.Inner().ResetStats() }

func (t *rfTarget) Reset(seed uint64) { t.rf.Reset(seed) }

// dawgTarget adapts the way-partitioned cache: requestor == protection
// domain, and the attacker sizes its prime to its own partition.
type dawgTarget struct {
	d       *secure.DAWGCache
	r       *rng.Rand // the Random policy's victim source
	waysPer int
}

func (t *dawgTarget) Access(line uint64, requestor int) bool {
	return t.d.Access(line, requestor)
}

func (t *dawgTarget) WarmVictim(lines []uint64) {
	for _, ln := range lines {
		t.d.Access(ln, ReqVictim)
	}
}

func (t *dawgTarget) AttackerWays() int { return t.waysPer }

func (t *dawgTarget) Report(requestor int) perfctr.Report {
	return perfctr.FromL1Stats(requestor, t.d.Stats(requestor))
}

func (t *dawgTarget) ResetStats() { t.d.ResetStats() }

func (t *dawgTarget) Reset(seed uint64) {
	t.d.Reset()
	t.r.Reseed(seed)
}
