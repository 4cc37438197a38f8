package leakage

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// Line-tag bases for the evaluator's three traffic classes. Lines are
// tag*L1Sets + 0, so every class shares set 0 and the tags keep the
// classes disjoint (mirroring internal/attack's tag discipline).
const (
	victimTagBase = 1
	probeTagBase  = 1 << 16
	kickerTagBase = 1 << 20
)

// Strategy is the repeated-kicker eviction probe: after establishing a
// known replacement state over victim and attacker ways, the victim
// performs (or skips) one secret-dependent touch; the attacker then
// runs Rounds of pressure-and-probe. Each round hammers
// KickersPerRound fresh kicker lines, up to KickerRepeats accesses each
// (on a deterministic target the first access evicts the policy's
// victim — or is bypassed while the victim is locked — and the rest
// hit; on random fill each access is an independent chance to force an
// in-set fill), then probes every established line. The observation
// concatenates, per round, each kicker's saturating miss count (extra
// misses are bypassed accesses, the original PL cache's Figure 11
// tell) and the probe hit bitmask.
type Strategy struct {
	// VictimLines is the number of victim table lines V (secret space
	// is V+1: touch line s, or stay idle). Default ways/2 — full-way
	// victims leave a PL cache with nothing to bypass and the
	// unprotected cache with no attacker residency to displace.
	VictimLines int
	// KickerRepeats bounds the accesses per kicker line (default 96).
	// On a deterministic target the kicker is resident after at most
	// VictimLines+2 accesses; the long bound is for random fill, where
	// every miss is an independent 1/(2*window+1) chance of the in-set
	// fill that makes the round informative. The hammer stops early,
	// after the kicker's second hit, because the rest cannot change the
	// observation: only misses install lines or draw random numbers, so
	// once the kicker hits every remaining repeat hits too, and a hit
	// only applies Touch(way), which reaches its fixed point after two
	// touches of one way in every family (one is not enough for
	// Bit-PLRU, whose generation rollover clears the touched way's own
	// bit). Under the fixed PL cache with a deterministic policy, and
	// under the original PL cache with FIFO, it also stops after two
	// misses and no hit, counting every remaining repeat as a miss: the
	// first miss was bypassed (a fill would have made the second access
	// hit), and a bypass there leaves lines, lock bits and replacement
	// state as they were and draws no random number, so every later
	// repeat is the same bypass. The fixed PL cache skips the
	// replacement update of a bypass; the original one touches the
	// locked victim, which FIFO ignores, because only a fill advances
	// its round-robin pointer.
	KickerRepeats int
	// KickersPerRound is the number of fresh kicker lines hammered per
	// round (default 2: the second eviction drains replacement state
	// the first one re-normalizes, e.g. Tree-PLRU's off-path node
	// bits).
	KickersPerRound int
	// Rounds is the number of pressure-and-probe rounds (default 4).
	Rounds int
	// TrialsPerSecret is the observation sample size per secret value
	// (default 64). Deterministic cells need only enough to certify
	// determinism; stochastic cells trade trials for estimate variance.
	TrialsPerSecret int
}

// missCountBits is the per-kicker field width in the packed
// observation; counts saturate at its maximum. Deterministic targets
// miss at most VictimLines+1 times (every bypass walks one locked way,
// then the fill), so saturation only compresses random fill's
// mostly-uncached hammering, which carries no secret.
const missCountBits = 3

func (s Strategy) withDefaults(ways int) Strategy {
	if s.VictimLines == 0 {
		s.VictimLines = ways / 2
	}
	if s.KickerRepeats == 0 {
		s.KickerRepeats = 96
	}
	if s.KickersPerRound == 0 {
		s.KickersPerRound = 2
	}
	if s.Rounds == 0 {
		s.Rounds = 4
	}
	if s.TrialsPerSecret == 0 {
		s.TrialsPerSecret = 64
	}
	return s
}

// Config names one leakage cell: policy × associativity × defense,
// plus the probing strategy and seed.
type Config struct {
	// Policy is the L1 replacement policy under analysis.
	Policy replacement.Kind
	// Ways overrides the profile's L1 associativity when nonzero.
	Ways int
	// Defense selects the cache design (attack.DefenseNone for the
	// unprotected baseline).
	Defense attack.Defense
	// FillWindow is the random-fill window knob, forwarded to
	// attack.NewTarget (0 = canonical; other defenses ignore it).
	FillWindow uint64
	// Profile supplies the cache geometry (default Sandy Bridge).
	Profile uarch.Profile
	// Strategy tunes the probe (zero value = documented defaults).
	Strategy Strategy
	// Seed drives trial seeding (default 1).
	Seed uint64
}

// Result is one cell's empirical leakage.
type Result struct {
	// Bits is the estimated mutual information between the secret and
	// one observation, in bits per observation, clamped to
	// [0, log2(Secrets)].
	Bits float64
	// Secrets is the secret-space size (VictimLines + 1).
	Secrets int
	// DistinctObs is the number of distinct observations seen.
	DistinctObs int
	// Deterministic reports that every secret produced a single
	// repeated observation, so Bits is exact rather than estimated.
	Deterministic bool
	// Trials is the total observation count across all secrets.
	Trials int
}

// Eval measures the probing-strategy leakage of one cell. The target
// is built by the same attack.NewTarget constructor the template
// attack runs against, so the analyzed machine is the simulated
// machine. Panics when the observation would not fit one uint64
// ((V + attacker lines) * Rounds > 64).
func Eval(cfg Config) Result {
	p := newProber(cfg)
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	secrets := len(p.vlines) + 1
	master := rng.New(seed)
	counts := make([]map[uint64]int, secrets)
	for s := range counts {
		counts[s] = make(map[uint64]int)
	}
	for s := 0; s < secrets; s++ {
		for trial := 0; trial < p.st.TrialsPerSecret; trial++ {
			counts[s][p.trial(master.Uint64(), s)]++
		}
	}
	return score(counts, secrets, p.st, len(p.vlines), master)
}

// prober is one cell's probe session: the target every trial reuses
// and the lines each trial touches.
type prober struct {
	tg             attack.Target
	st             Strategy
	vlines, alines []uint64
	sets           uint64
	// primeCap is the priming attempts per attacker line: two suffice
	// on a deterministic target (miss-fill, then the confirming hit);
	// random fill caches a missed line only when the fill neighbourhood
	// draw lands on the line itself, at 1/(2*window+1) per access.
	primeCap int
	// frozenBypass reports that a bypassed kicker miss is a fixed point:
	// the fixed PL cache under a deterministic policy, whose bypass
	// leaves replacement state alone, and the original PL cache under
	// FIFO, whose bypass touch is a FIFO no-op (see
	// Strategy.KickerRepeats).
	frozenBypass bool
}

// newProber validates cfg, builds the cell's one target and lays out
// its victim and attacker lines.
func newProber(cfg Config) *prober {
	prof := cfg.Profile
	if prof.Name == "" {
		prof = uarch.SandyBridge()
	}
	if cfg.Ways != 0 {
		prof.L1Ways = cfg.Ways
	}
	ways := prof.L1Ways
	st := cfg.Strategy.withDefaults(ways)
	if st.VictimLines <= 0 || st.VictimLines >= ways {
		panic(fmt.Sprintf("leakage: VictimLines %d out of range for %d ways", st.VictimLines, ways))
	}

	tcfg := attack.TargetConfig{
		Defense: cfg.Defense, Profile: prof, Policy: cfg.Policy,
		FillWindow: cfg.FillWindow,
	}
	tg := attack.NewTarget(tcfg)
	v := st.VictimLines
	a := min(ways-v, tg.AttackerWays())
	if need := (st.KickersPerRound*missCountBits + v) * st.Rounds; need > 64 {
		panic(fmt.Sprintf("leakage: observation needs %d bits, one word holds 64", need))
	}

	sets := uint64(prof.L1Sets)
	vlines := make([]uint64, v)
	for i := range vlines {
		vlines[i] = uint64(victimTagBase+i) * sets
	}
	alines := make([]uint64, a)
	for i := range alines {
		alines[i] = uint64(probeTagBase+i) * sets
	}

	primeCap := 2
	if cfg.Defense == attack.DefenseRandomFill {
		window := cfg.FillWindow
		if window == 0 {
			window = attack.RandomFillWindow
		}
		primeCap = 4 * (2*int(window) + 1)
	}
	return &prober{
		tg: tg, st: st,
		vlines: vlines, alines: alines, sets: sets, primeCap: primeCap,
		frozenBypass: cfg.Defense == attack.DefensePLCacheFixed && cfg.Policy != replacement.Random ||
			cfg.Defense == attack.DefensePLCache && cfg.Policy == replacement.FIFO,
	}
}

// projections returns the canonical observation compressions the
// estimator scores: the identity, the probe bitmasks alone, the final
// round's probe bitmask, and the kicker miss counts alone. Every
// compression is a deterministic function of the observation, so by
// the data-processing inequality each one's mutual information with
// the secret lower-bounds I(S;O); the estimator reports the best
// surviving bound. On a noisy defense a low-cardinality projection
// (the accumulated eviction set, say) is estimable from far fewer
// trials than the full word.
func projections(st Strategy, v int) []func(uint64) uint64 {
	kbits := st.KickersPerRound * missCountBits
	stride := kbits + v
	vmask := uint64(1)<<uint(v) - 1
	kmask := uint64(1)<<uint(kbits) - 1
	return []func(uint64) uint64{
		func(o uint64) uint64 { return o },
		func(o uint64) uint64 {
			var out uint64
			for r := 0; r < st.Rounds; r++ {
				out |= (o >> uint(r*stride+kbits) & vmask) << uint(r*v)
			}
			return out
		},
		func(o uint64) uint64 {
			return o >> uint((st.Rounds-1)*stride+kbits) & vmask
		},
		func(o uint64) uint64 {
			var out uint64
			for r := 0; r < st.Rounds; r++ {
				out |= (o >> uint(r*stride) & kmask) << uint(r*kbits)
			}
			return out
		},
	}
}

// trial resets the target to the one NewTarget builds with seed,
// runs one establishment → secret → pressure/probe session and returns
// the packed observation.
func (p *prober) trial(seed uint64, secret int) uint64 {
	tg, st := p.tg, p.st
	tg.Reset(seed)

	// Establishment: victim table resident (and locked, under PL),
	// attacker lines resident, then one victim pass and one attacker
	// pass so the recency order — and with it the first eviction victim
	// — is a known function of the policy alone.
	tg.WarmVictim(p.vlines)
	for _, ln := range p.alines {
		for try := 0; try < p.primeCap; try++ {
			if tg.Access(ln, attack.ReqAttacker) {
				break
			}
		}
	}
	for _, ln := range p.vlines {
		tg.Access(ln, attack.ReqVictim)
	}
	for _, ln := range p.alines {
		tg.Access(ln, attack.ReqAttacker)
	}

	// The secret: one victim hit on table line `secret`, or idle.
	if secret < len(p.vlines) {
		tg.Access(p.vlines[secret], attack.ReqVictim)
	}

	var obs uint64
	bit := 0
	for round := 0; round < st.Rounds; round++ {
		for k := 0; k < st.KickersPerRound; k++ {
			kicker := uint64(kickerTagBase+round*st.KickersPerRound+k) * p.sets
			// Hammer until the kicker's second hit, or its second miss
			// with no hit on a frozenBypass target: every later repeat
			// would repeat the last access and leave the state where it
			// is (see Strategy.KickerRepeats).
			misses, hits := 0, 0
			for m := 0; m < st.KickerRepeats && hits < 2; m++ {
				if tg.Access(kicker, attack.ReqAttacker) {
					hits++
					continue
				}
				if misses++; p.frozenBypass && misses == 2 && hits == 0 {
					misses = st.KickerRepeats
					break
				}
			}
			if misses > 1<<missCountBits-1 {
				misses = 1<<missCountBits - 1
			}
			obs |= uint64(misses) << uint(bit)
			bit += missCountBits
		}
		// Probe: the victim-line hit pattern is the recorded half of the
		// observation (evictions land there by construction); attacker
		// lines are re-probed for establishment pressure but their bits
		// are noise under a randomized defense, so they are not recorded.
		for _, ln := range p.vlines {
			if tg.Access(ln, attack.ReqAttacker) {
				obs |= 1 << uint(bit)
			}
			bit++
		}
		for _, ln := range p.alines {
			tg.Access(ln, attack.ReqAttacker)
		}
	}
	return obs
}

// nullShuffles is how many label permutations the surrogate bias
// estimate averages over for stochastic cells.
const nullShuffles = 4

// score turns per-secret observation histograms into the mutual
// information I(S;O) under a uniform secret prior. When every secret's
// observation is constant the plug-in estimate on the full word is
// exact, and no compression can beat it. Otherwise each canonical
// projection is scored as plug-in estimate minus a shuffled-label
// surrogate — the same estimator run with secret labels randomly
// permuted, whose true MI is zero, so whatever it reads is pure
// small-sample bias — and the best projection wins. This keeps
// high-cardinality stochastic cells honest: if every trial's full
// observation is unique, its plug-in reads the full log2(secrets) but
// so does its surrogate, the pair cancels, and only projections with
// estimable distributions contribute.
func score(counts []map[uint64]int, secrets int, st Strategy, v int, r *rng.Rand) Result {
	trials := st.TrialsPerSecret
	res := Result{Secrets: secrets, Trials: secrets * trials, Deterministic: true}

	for _, c := range counts {
		if len(c) > 1 {
			res.Deterministic = false
		}
	}

	marginal := make(map[uint64]int)
	for _, c := range counts {
		for o, n := range c {
			marginal[o] += n
		}
	}
	res.DistinctObs = len(marginal)

	var bits float64
	if res.Deterministic {
		bits = pluginMI(counts, trials)
	} else {
		pool := make([]uint64, 0, res.Trials)
		proj := make([]map[uint64]int, secrets)
		shuffled := make([]map[uint64]int, secrets)
		for _, p := range projections(st, v) {
			pool = pool[:0]
			for s, c := range counts {
				pc := make(map[uint64]int, len(c))
				for o, n := range c {
					pc[p(o)] += n
				}
				proj[s] = pc
				// Pool in sorted order so the shuffled surrogates do not
				// depend on map iteration order.
				for _, po := range sortedKeys(pc) {
					for i := 0; i < pc[po]; i++ {
						pool = append(pool, po)
					}
				}
			}
			est := pluginMI(proj, trials)
			null := 0.0
			for shot := 0; shot < nullShuffles; shot++ {
				r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
				for s := range shuffled {
					c := make(map[uint64]int, trials)
					for _, o := range pool[s*trials : (s+1)*trials] {
						c[o]++
					}
					shuffled[s] = c
				}
				null += pluginMI(shuffled, trials)
			}
			// float64() stops a fused multiply-add (see rng.Float64).
			if est -= float64(null / nullShuffles); est > bits {
				bits = est
			}
		}
	}

	if bound := math.Log2(float64(secrets)); bits > bound {
		bits = bound
	}
	if bits < 0 {
		bits = 0
	}
	res.Bits = bits
	return res
}

// pluginMI is the maximum-likelihood mutual-information estimate
// H(O) - H(O|S) in bits for per-secret histograms of equal sample
// size. Accumulation runs in sorted-key order so the float result is
// identical run to run (map iteration order is not), and the float64()
// conversions stop fused multiply-adds (see rng.Float64).
func pluginMI(counts []map[uint64]int, trials int) float64 {
	perSecret := float64(trials)
	total := perSecret * float64(len(counts))

	marginal := make(map[uint64]int)
	condH := 0.0
	for _, c := range counts {
		for _, o := range sortedKeys(c) {
			n := c[o]
			marginal[o] += n
			p := float64(n) / perSecret
			condH -= float64(p * math.Log2(p))
		}
	}
	condH /= float64(len(counts))

	outH := 0.0
	for _, o := range sortedKeys(marginal) {
		p := float64(marginal[o]) / total
		outH -= float64(p * math.Log2(p))
	}
	return outH - condH
}
