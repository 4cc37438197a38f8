package attack

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/perfctr"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/victim"
)

// attackerTagBase keeps the attacker's prime/probe lines in a tag
// range disjoint from every victim traffic class (see internal/victim).
const attackerTagBase = 1 << 16

// Config parameterizes one end-to-end key-recovery attack.
type Config struct {
	// Victim is the program under attack (required).
	Victim victim.Victim
	// Defense selects the cache design (default: unprotected).
	Defense Defense
	// Policy is the L1 replacement policy (the zero value is true LRU;
	// pass replacement.TreePLRU for the paper's evaluated parts).
	Policy replacement.Kind
	// Profile supplies the cache geometry (default Sandy Bridge).
	Profile uarch.Profile
	// Votes is the number of observation windows fused per secret
	// symbol (default 4).
	Votes int
	// ProfilingRounds is how many windows per symbol value the
	// profiling phase collects (default 8).
	ProfilingRounds int
	// Probe selects the per-window probe strategy (the zero value is
	// the canonical full prime; ProbeDSplit(1) is the Figure 11 d=1
	// partial prime that sees the original PL cache's locked-line
	// replacement-state update).
	Probe Probe
	// Schedule selects how victim and attacker execute: the zero value
	// is the synchronous attack-driven baseline; ScheduleSMT and
	// ScheduleTimeSliced run both parties as internal/sched threads,
	// so probe windows carry real scheduling jitter.
	Schedule Schedule
	// Seed drives every random choice (default 0x5eed).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Profile.Name == "" {
		c.Profile = uarch.SandyBridge()
	}
	if c.Votes == 0 {
		c.Votes = 4
	}
	if c.ProfilingRounds == 0 {
		c.ProfilingRounds = 8
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// Result is the outcome of one attack run.
type Result struct {
	VictimName string
	Defense    Defense
	Policy     replacement.Kind
	Probe      Probe
	Schedule   Schedule

	// Secret and Recovered are the planted and guessed symbol strings.
	Secret, Recovered []int
	// Posteriors[i] is the fused candidate distribution for symbol i.
	Posteriors [][]float64
	// Confidence[i] is the posterior mass of the recovered symbol.
	Confidence []float64

	// RecoveryRate is the fraction of symbols recovered exactly.
	RecoveryRate float64
	// MeanGuesses is the mean 1-based rank of the true symbol in the
	// posterior — the expected guesses-to-first-correct per symbol
	// (1.0 = perfect, SymbolSpace/2-ish = chance).
	MeanGuesses float64
	// Confusion[t][g] counts symbols of true value t recovered as g.
	Confusion [][]int

	// Windows counts every observation window the attack ran
	// (profiling + exploitation).
	Windows int

	// Detection verdicts from the perfctr monitor over the live run's
	// counters: is the attack observable while it runs, and does the
	// victim stay clean?
	AttackerVerdict, VictimVerdict detect.Verdict
	AttackerExplain, VictimExplain string
	AttackerReport, VictimReport   perfctr.Report
}

// session is one instantiated target+victim pair with the attacker's
// probe apparatus: the profiling replica and the live run each get
// their own.
type session struct {
	tg    Target
	v     victim.Victim
	sets  []int
	lines [][]uint64 // attacker lines per monitored set
	r     *rng.Rand
	obs   Observation // reusable probe buffer
	d     int         // probe split: lines 0..d-1 primed before the victim's window
	// ref is the d-split strategy's reference mask: the miss pattern of
	// the last reprime pass, i.e. the set's undisturbed steady orbit.
	// Observations are reported relative to it (obs XOR ref), which
	// makes them invariant to which way happens to hold the orbit's
	// standing hole — pure history — while any victim interference
	// shows as a nonzero difference.
	ref Observation

	// latHit/latMiss are the per-access cycle costs charged to a
	// scheduled thread (profile L1 and L2 latencies; the attack's
	// working set is L2-resident after warm-up).
	latHit, latMiss uint64

	// bt is the target's batch surface, if it has one; the synchronous
	// passes run through it. blines/bhits are its reusable staging
	// buffers.
	bt     BatchTarget
	blines []uint64
	bhits  []bool

	windows int
}

// newSession builds the cache under attack, warms (and under PL locks)
// the victim's table, and primes every monitored set.
func newSession(cfg Config, seed uint64) *session {
	s := &session{
		tg:   NewTarget(TargetConfig{Defense: cfg.Defense, Profile: cfg.Profile, Policy: cfg.Policy, Seed: seed}),
		v:    cfg.Victim,
		sets: cfg.Victim.MonitorSets(),
		r:    rng.New(seed ^ 0xa77ac4),
	}
	s.bt, _ = s.tg.(BatchTarget)
	ways := s.tg.AttackerWays()
	s.d = cfg.Probe.split(ways)
	s.latHit = uint64(cfg.Profile.L1Latency)
	s.latMiss = uint64(cfg.Profile.L2Latency)
	totalSets := cfg.Profile.L1Sets
	s.lines = make([][]uint64, len(s.sets))
	for i, set := range s.sets {
		s.lines[i] = make([]uint64, ways)
		for w := 0; w < ways; w++ {
			s.lines[i][w] = uint64(attackerTagBase+w)*uint64(totalSets) + uint64(set%totalSets)
		}
	}
	s.obs = make(Observation, len(s.sets))
	s.ref = make(Observation, len(s.sets))

	s.tg.WarmVictim(s.v.TableLines())
	// The victim faults in its benign working set, like any program
	// touching its data at startup.
	for _, ln := range s.v.WarmLines() {
		s.tg.Access(ln, ReqVictim)
	}
	// Initial prime, then one settling pass so every monitored set
	// reaches the protocol's steady state (occupancy and, under the
	// canonical strategy, replacement state) before the first real
	// window. The counters are then cleared: the detection verdict
	// judges the attack's steady phase, not the one-off cold fill.
	s.pass(0, len(s.lines[0]), nil)
	s.pass(0, len(s.lines[0]), nil)
	s.tg.ResetStats()
	return s
}

func (s *session) ways() int { return len(s.lines[0]) }

// access performs one attack-session load, charging its latency to e
// when the session runs under a scheduled machine (e == nil in the
// synchronous baseline, where simulated time does not advance).
func (s *session) access(e *sched.Env, line uint64, req int) bool {
	hit := s.tg.Access(line, req)
	if e != nil {
		if hit {
			e.Busy(s.latHit)
		} else {
			e.Busy(s.latMiss)
		}
	}
	return hit
}

// pass reloads attacker lines [from, to) of every monitored set in
// fixed order, recording their miss bits into the reusable observation
// buffer (bits outside the range are left as they were). The reloads
// re-prime the touched ways as they go.
func (s *session) pass(from, to int, e *sched.Env) {
	if e == nil && s.bt != nil {
		s.passBatch(from, to)
		return
	}
	for i := range s.sets {
		mask := s.obs[i]
		for w := from; w < to; w++ {
			bit := uint16(1) << uint(w)
			if s.access(e, s.lines[i][w], ReqAttacker) {
				mask &^= bit
			} else {
				mask |= bit
			}
		}
		s.obs[i] = mask
	}
}

// passBatch is the synchronous pass through the target's batch
// surface: the whole pass — every monitored set's [from, to) span, in
// the same fixed order — executes as one AccessBatch call, and the
// hit bits fold into the observation masks afterwards.
func (s *session) passBatch(from, to int) {
	need := len(s.sets) * (to - from)
	if cap(s.blines) < need {
		s.blines = make([]uint64, need)
		s.bhits = make([]bool, need)
	}
	blines := s.blines[:0]
	for i := range s.sets {
		blines = append(blines, s.lines[i][from:to]...)
	}
	hits := s.bhits[:need]
	s.bt.AccessBatch(blines, ReqAttacker, hits)
	k := 0
	for i := range s.sets {
		mask := s.obs[i]
		for w := from; w < to; w++ {
			bit := uint16(1) << uint(w)
			if hits[k] {
				mask &^= bit
			} else {
				mask |= bit
			}
			k++
		}
		s.obs[i] = mask
	}
}

// prime runs the initialization phase of one window: under the d-split
// strategy, lines 0..d-1 of every monitored set (their miss bits open
// this window's mask); under the canonical strategy, nothing — the
// previous window's full probe pass already re-primed the set.
func (s *session) prime(e *sched.Env) {
	if s.d > 0 {
		s.pass(0, s.d, e)
	}
}

// reprime re-references the d-split strategy between vote groups.
// Because the partial prime never touches every way in one pass, the
// replacement state settles into per-set orbits whose standing miss —
// which line is the set's absent one — is pure history: full passes
// do not move it (under a PL cache the policy's victim is perpetually
// the locked line, so the hole is literally permanent). Two canonical
// full passes settle every monitored set back onto its undisturbed
// orbit and the second pass's miss pattern is recorded as the group's
// reference mask; the group's observations are reported relative to
// it. A no-op under the canonical strategy, whose every probe pass
// re-canonicalizes the state anyway.
func (s *session) reprime(e *sched.Env) {
	if s.d == 0 {
		return
	}
	s.pass(0, s.ways(), e)
	s.pass(0, s.ways(), e)
	copy(s.ref, s.obs)
}

// probe runs the decoding phase of one window — the remaining ways
// (all of them under the canonical strategy) — and returns the
// completed miss mask. The buffer is reused; callers keep clones.
func (s *session) probe(e *sched.Env) Observation {
	s.pass(s.d, s.ways(), e)
	return s.obs
}

// observed renders the completed window mask as the strategy's
// observation — raw under the canonical full prime, differenced
// against the group's reference orbit under the d-split — as a fresh
// copy owned by the caller.
func (s *session) observed() Observation {
	c := s.obs.clone()
	if s.d > 0 {
		for i := range c {
			c[i] ^= s.ref[i]
		}
	}
	return c
}

// window runs one synchronous event: the attacker's initialization
// phase, the victim processing one secret symbol, then the attacker's
// probe phase. The returned observation is owned by the caller.
// Callers open each group of windows that should share a reference
// orbit with reprime.
func (s *session) window(symbol int) Observation {
	s.prime(nil)
	s.victimWindow(nil, symbol)
	s.windows++
	s.probe(nil)
	return s.observed()
}

// victimWindow plays one victim event window against the target.
func (s *session) victimWindow(e *sched.Env, symbol int) {
	for _, step := range s.v.Sequence(symbol, s.r.Uint64()) {
		s.access(e, step.Line, ReqVictim)
	}
}

// buildTemplate runs the template-building phase on a fresh replica of
// the target seeded with profSeed. Symbol values are interleaved
// round-robin so every cell sees the same steady-state history mix. It
// returns the template and the number of windows spent. Under a
// scheduled config the replica runs the same SMT or time-sliced
// machine as the live attack, so the templates absorb the scheduling
// jitter they will be classified under.
func buildTemplate(cfg Config, profSeed uint64) (*Template, int) {
	s := newSession(cfg, profSeed)
	space := cfg.Victim.SymbolSpace()
	tmpl := NewTemplate(space, len(s.sets), s.tg.AttackerWays())
	if cfg.Schedule != ScheduleSync {
		stream := roundRobinStream(space, cfg.ProfilingRounds)
		buckets := scheduleStream(cfg, s, stream, profSeed)
		for i, sym := range stream {
			for _, obs := range buckets[i] {
				tmpl.Add(sym, obs)
			}
		}
		return tmpl, s.windows
	}
	// The d-split strategy carries state across the windows of a vote
	// group (the reference orbit set by reprime, and the cumulative
	// orbit shift the victim's touches cause), so profiling must
	// replicate the exploitation phase's structure: runs of Votes
	// consecutive windows per symbol, re-referenced at the group
	// boundary. The canonical full prime re-canonicalizes every pass,
	// so single-window interleaving suffices there (group == 1, and
	// reprime is a no-op, keeping its established template shape).
	group := 1
	if s.d > 0 {
		group = cfg.Votes
	}
	for round := 0; round < cfg.ProfilingRounds; round++ {
		for v := 0; v < space; v++ {
			s.reprime(nil)
			for g := 0; g < group; g++ {
				tmpl.Add(v, s.window(v))
			}
		}
	}
	return tmpl, s.windows
}

// Profile runs only the template-building phase (the classic
// template-attack setting: the attacker profiles a device it controls,
// with chosen secrets, before attacking the real one). The template is
// identical to the one Run builds for the same config.
func Profile(cfg Config) *Template {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed)
	tmpl, _ := buildTemplate(cfg, root.Uint64())
	return tmpl
}

// Run executes the full attack — profiling, then recovery of every
// symbol of the secret on a fresh live target — and reports recovery
// quality plus the detection verdicts.
func Run(cfg Config, secret []int) Result {
	cfg = cfg.withDefaults()
	if cfg.Victim == nil {
		panic("attack: Config.Victim is required")
	}
	if len(secret) == 0 {
		panic("attack: empty secret")
	}
	space := cfg.Victim.SymbolSpace()

	// Seed discipline: the profiling replica and the live target draw
	// independent streams from the root seed, in a fixed order.
	root := rng.New(cfg.Seed)
	profSeed := root.Uint64()
	liveSeed := root.Uint64()

	// Phase 1: profiling on the attacker's replica.
	tmpl, profWindows := buildTemplate(cfg, profSeed)

	// Phase 2: exploitation on the live target.
	live := newSession(cfg, liveSeed)
	res := Result{
		VictimName: cfg.Victim.Name(),
		Defense:    cfg.Defense,
		Policy:     cfg.Policy,
		Probe:      cfg.Probe,
		Schedule:   cfg.Schedule,
		Secret:     append([]int(nil), secret...),
		Confusion:  newConfusion(space),
	}
	truths := make([]int, len(secret))
	for i, t := range secret {
		t %= space
		if t < 0 {
			t += space
		}
		truths[i] = t
	}
	// Under a scheduled config the whole secret runs through one
	// machine, the attacker bucketing its windows per symbol period;
	// synchronously each symbol's votes are collected attack-driven.
	var buckets [][]Observation
	if cfg.Schedule != ScheduleSync {
		buckets = scheduleStream(cfg, live, truths, liveSeed)
	}
	votes := make([]Observation, cfg.Votes)
	var ranks float64
	correct := 0
	for si, truth := range truths {
		vs := votes
		if buckets != nil {
			vs = buckets[si]
		} else {
			live.reprime(nil)
			for v := range votes {
				votes[v] = live.window(truth)
			}
		}
		post := tmpl.ClassifyMany(vs)
		guess := argmax(post)
		res.Recovered = append(res.Recovered, guess)
		res.Posteriors = append(res.Posteriors, post)
		res.Confidence = append(res.Confidence, post[guess])
		res.Confusion[truth][guess]++
		if guess == truth {
			correct++
		}
		ranks += float64(rankOf(post, truth))
	}
	res.RecoveryRate = float64(correct) / float64(len(secret))
	res.MeanGuesses = ranks / float64(len(secret))
	res.Windows = profWindows + live.windows

	// Phase 3: the detection verdict — would a counter monitor have
	// flagged either party while the live attack ran?
	mon := detect.NewMonitor(detect.AttackThresholds())
	res.AttackerReport = live.tg.Report(ReqAttacker)
	res.VictimReport = live.tg.Report(ReqVictim)
	res.AttackerVerdict = mon.Classify(res.AttackerReport)
	res.VictimVerdict = mon.Classify(res.VictimReport)
	res.AttackerExplain = mon.Explain(res.AttackerReport)
	res.VictimExplain = mon.Explain(res.VictimReport)
	return res
}

// ChanceGuesses is the guesses-to-first-correct of a blind attacker
// against the victim: the mean rank of a uniformly placed symbol.
func ChanceGuesses(v victim.Victim) float64 {
	return (float64(v.SymbolSpace()) + 1) / 2
}

// ConfidenceSummary summarizes the per-symbol confidence scores.
func (r Result) ConfidenceSummary() stats.Summary {
	return stats.Summarize(r.Confidence)
}

// RenderConfusion formats the confusion matrix (rows = true symbol,
// columns = recovered symbol) for symbol spaces small enough to print.
func (r Result) RenderConfusion() string {
	n := len(r.Confusion)
	if n == 0 || n > 16 {
		return ""
	}
	out := "true\\guess"
	for g := 0; g < n; g++ {
		out += fmt.Sprintf("%4x", g)
	}
	out += "\n"
	for t, row := range r.Confusion {
		out += fmt.Sprintf("%9x ", t)
		for _, c := range row {
			if c == 0 {
				out += "   ."
			} else {
				out += fmt.Sprintf("%4d", c)
			}
		}
		out += "\n"
	}
	return out
}

func newConfusion(space int) [][]int {
	m := make([][]int, space)
	for i := range m {
		m[i] = make([]int, space)
	}
	return m
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
