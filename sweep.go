package lruleak

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/hier"
	"repro/internal/leakage"
	"repro/internal/perfctr"
	"repro/internal/replacement"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/transport/codec"
	"repro/internal/victim"
	"repro/internal/workload"
)

// This file is the generalization the engine buys us: arbitrary
// evaluation grids over the channel's main dimensions as a single call.
// The paper's Figure 4 is one slice of this space (one profile, one
// policy); related work (Cañones et al., "Security Analysis of Cache
// Replacement Policies") sweeps the same experiments across replacement
// policies, which here is one extra slice element.

// TrTs is one operating point of the covert channel.
type TrTs struct {
	Tr uint64 `json:"tr"`
	Ts uint64 `json:"ts"`
}

// SweepSpec declares a cross-product grid of SMT error-rate
// experiments. Zero-valued dimensions get sensible defaults, so the
// zero spec is already a runnable (if small) sweep.
type SweepSpec struct {
	// Profiles defaults to all three Table III CPUs.
	Profiles []Profile
	// Policies defaults to Tree-PLRU (the policy of the evaluated
	// parts).
	Policies []ReplacementKind
	// Algorithms defaults to both protocols.
	Algorithms []core.Algorithm
	// Points defaults to the paper's Intel operating point
	// (Tr=600, Ts=6000).
	Points []TrTs
	// Trials is the number of independent repetitions per cell, each
	// with its own split seed; the cell reports the error-rate summary
	// over them. Defaults to 1.
	Trials int
	// MsgBits and Repeats control the per-trial measurement cost
	// (defaults 64 and 4, like Figure 4).
	MsgBits, Repeats int
}

// WithDefaults returns the spec with every zero-valued dimension
// replaced by its documented default — the normal form Sweep evaluates
// and the one the service layer hashes for content-addressed caching.
func (sp SweepSpec) WithDefaults() SweepSpec {
	if len(sp.Profiles) == 0 {
		sp.Profiles = Profiles()
	}
	if len(sp.Policies) == 0 {
		sp.Policies = []ReplacementKind{TreePLRU}
	}
	if len(sp.Algorithms) == 0 {
		sp.Algorithms = []core.Algorithm{Alg1SharedMemory, Alg2NoSharedMemory}
	}
	if len(sp.Points) == 0 {
		sp.Points = []TrTs{{Tr: 600, Ts: 6000}}
	}
	if sp.Trials == 0 {
		sp.Trials = 1
	}
	if sp.MsgBits == 0 {
		sp.MsgBits = 64
	}
	if sp.Repeats == 0 {
		sp.Repeats = 4
	}
	return sp
}

// SweepCell is one grid point's identity and measured result. Every
// cell runs its algorithm's default receiver split d.
type SweepCell struct {
	Profile   Profile
	Policy    ReplacementKind
	Algorithm core.Algorithm
	Tr, Ts    uint64
	// RateBps is the operating point's transmission rate (identical
	// across trials).
	RateBps float64
	// Err summarizes the error rate over the spec's Trials independent
	// repetitions (N == 1 when Trials is 1).
	Err engine.Summary
}

// Sweep runs the full cross product of the spec through the engine and
// returns the cells in grid order (profiles-major, then policies,
// algorithms, points). Each (cell, trial) seed is split
// deterministically from the root seed by grid position. Per §VI-B,
// Zen + Algorithm 1 cells run sender and receiver in one address space
// (the configuration Table IV and Figure 7 use, without which that
// combination does not work on AMD).
func Sweep(spec SweepSpec, seed uint64, opt RunOptions) []SweepCell {
	spec = spec.WithDefaults()

	type cellID struct {
		prof Profile
		pol  ReplacementKind
		alg  core.Algorithm
		pt   TrTs
	}
	var ids []cellID
	for _, prof := range spec.Profiles {
		for _, pol := range spec.Policies {
			for _, alg := range spec.Algorithms {
				for _, pt := range spec.Points {
					ids = append(ids, cellID{prof, pol, alg, pt})
				}
			}
		}
	}

	seeds := engine.Seeds(seed, len(ids)*spec.Trials)
	jobs := make([]engine.Job[ErrorRateResult], 0, len(ids)*spec.Trials)
	for _, id := range ids {
		id := id
		for trial := 0; trial < spec.Trials; trial++ {
			jobs = append(jobs, engine.Job[ErrorRateResult]{
				Name: fmt.Sprintf("sweep/%s/%v/alg=%d/tr=%d/ts=%d/d=0/trial=%d",
					id.prof.Arch, id.pol, int(id.alg), id.pt.Tr, id.pt.Ts, trial),
				Seed: seeds[len(jobs)],
				Run: func(s uint64) ErrorRateResult {
					c := NewChannel(ChannelConfig{
						Profile: id.prof, L1Policy: id.pol, Algorithm: id.alg,
						Mode: sched.SMT, Tr: id.pt.Tr, Ts: id.pt.Ts,
						SameAddressSpace: id.prof.Arch == "Zen" && id.alg == Alg1SharedMemory,
						Seed:             s,
					})
					return c.MeasureErrorRate(spec.MsgBits, spec.Repeats)
				},
			})
		}
	}
	rs := engine.Run(jobs, opt)

	cells := make([]SweepCell, len(ids))
	for ci, id := range ids {
		sub := rs[ci*spec.Trials : (ci+1)*spec.Trials]
		cells[ci] = SweepCell{
			Profile: id.prof, Policy: id.pol, Algorithm: id.alg,
			Tr: id.pt.Tr, Ts: id.pt.Ts,
			RateBps: sub[0].Value.RateBps,
			Err:     engine.SummarizeBy(sub, func(r ErrorRateResult) float64 { return r.ErrorRate }),
		}
	}
	return cells
}

// StreamSpec declares a cross-product grid of transport-layer capacity
// experiments: end-to-end goodput and frame-error rate of the streaming
// covert channel (internal/transport) as functions of the operating
// point, the error-correcting code, the lane count and the noise level.
// Zero-valued dimensions get sensible defaults. The json tags are the
// lruleakd wire schema of the "stream" section.
type StreamSpec struct {
	// Points defaults to the stream demo point (Tr=2000, Ts=8000).
	Points []TrTs `json:"points,omitempty"`
	// Codecs defaults to the full codec family (none, rep3, hamming74).
	Codecs []string `json:"codecs,omitempty"`
	// LaneCounts defaults to {1, 4}.
	LaneCounts []int `json:"laneCounts,omitempty"`
	// NoiseThreads defaults to {0, 3}.
	NoiseThreads []int `json:"noiseThreads,omitempty"`
	// NoisePeriod is the cycles between noise accesses (default 2000).
	NoisePeriod uint64 `json:"noisePeriod,omitempty"`
	// PayloadBytes is the per-cell transfer size (default 96).
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// FramePayload is the payload bytes per frame (default 32).
	FramePayload int `json:"framePayload,omitempty"`
}

// WithDefaults returns the spec with every zero-valued dimension
// replaced by its documented default (see SweepSpec.WithDefaults).
func (sp StreamSpec) WithDefaults() StreamSpec {
	if len(sp.Points) == 0 {
		sp.Points = []TrTs{{Tr: 2000, Ts: 8000}}
	}
	if len(sp.Codecs) == 0 {
		sp.Codecs = codec.Names()
	}
	if len(sp.LaneCounts) == 0 {
		sp.LaneCounts = []int{1, 4}
	}
	if len(sp.NoiseThreads) == 0 {
		sp.NoiseThreads = []int{0, 3}
	}
	if sp.NoisePeriod == 0 {
		sp.NoisePeriod = 2000
	}
	if sp.PayloadBytes == 0 {
		sp.PayloadBytes = 96
	}
	if sp.FramePayload == 0 {
		sp.FramePayload = 32
	}
	return sp
}

// StreamSweep runs the full cross product of the spec through the
// engine and returns one capacity point per cell in grid order
// (points-major, then codecs, lane counts, noise levels). Cell seeds
// are split deterministically from the root seed by grid position, so
// the result is bit-identical at any worker count.
func StreamSweep(spec StreamSpec, seed uint64, opt RunOptions) []StreamPoint {
	spec = spec.WithDefaults()

	type cellID struct {
		pt    TrTs
		cname string
		lanes int
		noise int
	}
	var ids []cellID
	for _, pt := range spec.Points {
		for _, cname := range spec.Codecs {
			if _, err := codec.ByName(cname); err != nil {
				panic(fmt.Sprintf("lruleak: StreamSweep: %v", err))
			}
			for _, lanes := range spec.LaneCounts {
				for _, noise := range spec.NoiseThreads {
					ids = append(ids, cellID{pt, cname, lanes, noise})
				}
			}
		}
	}

	seeds := engine.Seeds(seed, len(ids))
	jobs := make([]engine.Job[StreamPoint], len(ids))
	for i, id := range ids {
		id := id
		jobs[i] = engine.Job[StreamPoint]{
			Name: fmt.Sprintf("stream/tr=%d/ts=%d/%s/lanes=%d/noise=%d",
				id.pt.Tr, id.pt.Ts, id.cname, id.lanes, id.noise),
			Seed: seeds[i],
			Run: func(s uint64) StreamPoint {
				c, _ := codec.ByName(id.cname)
				cfg := transport.Config{
					Channel: core.Config{
						Algorithm: Alg1SharedMemory, Mode: sched.SMT,
						Tr: id.pt.Tr, Ts: id.pt.Ts,
						NoiseThreads: id.noise, NoisePeriod: spec.NoisePeriod,
					},
					Lanes:        transport.DefaultLanes(id.lanes),
					Codec:        c,
					FramePayload: spec.FramePayload,
				}
				return transport.MeasureCapacity(cfg, spec.PayloadBytes, s)
			},
		}
	}
	return engine.Values(engine.Run(jobs, opt))
}

// RenderStreamSweep formats the grid as a flat table.
func RenderStreamSweep(points []StreamPoint) string {
	var b strings.Builder
	b.WriteString("Tr      Ts      Codec       Lanes  Noise  Frames  FER     ByteErr  Goodput\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d  %-6d  %-10s  %-5d  %-5d  %2d/%-2d   %5.1f%%  %-7d  %7.1f Kbps\n",
			p.Tr, p.Ts, p.Codec, p.Lanes, p.NoiseThreads,
			p.FramesOK, p.FramesSent, 100*p.FrameErrorRate, p.ByteErrors,
			p.GoodputBps/1000)
	}
	return b.String()
}

// StreamDemo is the headline transport experiment: one payload sent
// end to end per codec at the noisy demo operating point (Tr=2000,
// Ts=8000, four lanes, three noise processes by default). At this point
// the no-ECC baseline loses frames while Hamming(7,4) delivers the
// payload with zero residual byte errors — the capacity-vs-reliability
// trade of Figure 4 restated at the transport layer.
func StreamDemo(payloadBytes, noiseThreads int, seed uint64, opt RunOptions) []StreamPoint {
	return StreamSweep(StreamSpec{
		LaneCounts:   []int{4},
		NoiseThreads: []int{noiseThreads},
		PayloadBytes: payloadBytes,
	}, seed, opt)
}

// RenderStreamDemo formats the demo as a small comparison table.
func RenderStreamDemo(points []StreamPoint) string {
	var b strings.Builder
	if len(points) > 0 {
		p := points[0]
		fmt.Fprintf(&b, "Streaming covert-channel transport — %d-byte payload, %d lanes, Tr=%d Ts=%d, %d noise threads\n",
			p.PayloadBytes, p.Lanes, p.Tr, p.Ts, p.NoiseThreads)
	}
	b.WriteString("Codec       Frames  FER     ByteErr  Goodput\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s  %2d/%-2d   %5.1f%%  %-7d  %7.1f Kbps\n",
			p.Codec, p.FramesOK, p.FramesSent, 100*p.FrameErrorRate,
			p.ByteErrors, p.GoodputBps/1000)
	}
	return b.String()
}

// AttackSpec declares a cross-product grid of secret-recovery attacks:
// victims × replacement policies × defenses × uarch profiles, each cell
// running the full template attack of internal/attack and reporting
// recovery quality plus the detection verdicts. Zero-valued dimensions
// get sensible defaults, so the zero spec is a runnable matrix. Each
// dimension is a name as the lruattack flags spell it (AttackSweep
// panics on an unknown one), and the json tags are the lruleakd wire
// schema of the "attack" section.
type AttackSpec struct {
	// Victims defaults to every victim kind (ttable, sqmul, lookup).
	Victims []string `json:"victims,omitempty"`
	// Policies defaults to the LRU family the paper studies
	// (true LRU, Tree-PLRU, Bit-PLRU).
	Policies []string `json:"policies,omitempty"`
	// Defenses defaults to the full Section IX matrix (baseline, both
	// PL-cache variants, random fill, DAWG).
	Defenses []string `json:"defenses,omitempty"`
	// Profiles defaults to Sandy Bridge only (the attack depends on
	// geometry, which all three Table III parts share).
	Profiles []ProfileRef `json:"profiles,omitempty"`
	// Probes defaults to the canonical full prime only; add "d=1" for
	// the Figure 11 partial prime that separates the PL-cache variants.
	Probes []string `json:"probes,omitempty"`
	// Schedules defaults to the synchronous attack-driven baseline
	// only; add "smt" and "tslice" to price scheduling jitter into the
	// matrix.
	Schedules []string `json:"schedules,omitempty"`
	// Symbols is the demo-secret length per cell (default 8).
	Symbols int `json:"symbols,omitempty"`
	// Votes is the observation windows fused per symbol (default 4).
	Votes int `json:"votes,omitempty"`
	// ProfilingRounds is the per-symbol-value template windows
	// (default 8).
	ProfilingRounds int `json:"profilingRounds,omitempty"`
	// Trials is the independent repetitions per cell, each with its own
	// split seed (default 1).
	Trials int `json:"trials,omitempty"`
}

// ProfileRef names a CPU profile the way -cpu does ("sandy", "skylake",
// "zen"), with optional L1 geometry overrides. The overrides are
// pointers so a validator can tell an explicit invalid value (zero
// ways) from "keep the profile's geometry".
type ProfileRef struct {
	CPU    string `json:"cpu"`
	L1Sets *int   `json:"l1Sets,omitempty"`
	L1Ways *int   `json:"l1Ways,omitempty"`
}

// Profile resolves the reference through ProfileByName and applies its
// overrides.
func (r ProfileRef) Profile() (Profile, error) {
	p, err := ProfileByName(r.CPU)
	if err != nil {
		return p, err
	}
	if r.L1Sets != nil {
		p.L1Sets = *r.L1Sets
	}
	if r.L1Ways != nil {
		p.L1Ways = *r.L1Ways
	}
	return p, nil
}

// names spells each value by its String method: the canonical form of
// a grid dimension, which its parser reads back.
func names[T fmt.Stringer](vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// mustResolve resolves a grid dimension through its parser, panicking
// on a bad entry as the sweeps do for an unknown victim or codec.
func mustResolve[S, T any](sweep string, in []S, parse func(S) (T, error)) []T {
	out := make([]T, len(in))
	for i, s := range in {
		v, err := parse(s)
		if err != nil {
			panic(fmt.Sprintf("lruleak: %s: %v", sweep, err))
		}
		out[i] = v
	}
	return out
}

// WithDefaults returns the spec with every zero-valued dimension
// replaced by its documented default (see SweepSpec.WithDefaults),
// spelled canonically.
func (sp AttackSpec) WithDefaults() AttackSpec {
	if len(sp.Victims) == 0 {
		sp.Victims = victim.Names()
	}
	if len(sp.Policies) == 0 {
		sp.Policies = names([]ReplacementKind{TrueLRU, TreePLRU, BitPLRU})
	}
	if len(sp.Defenses) == 0 {
		sp.Defenses = names(attack.Defenses())
	}
	if len(sp.Profiles) == 0 {
		sp.Profiles = []ProfileRef{{CPU: SandyBridge().Arch}}
	}
	if len(sp.Probes) == 0 {
		sp.Probes = []string{attack.ProbeFull().String()}
	}
	if len(sp.Schedules) == 0 {
		sp.Schedules = []string{attack.ScheduleSync.String()}
	}
	if sp.Symbols == 0 {
		sp.Symbols = 8
	}
	if sp.Votes == 0 {
		sp.Votes = 4
	}
	if sp.ProfilingRounds == 0 {
		sp.ProfilingRounds = 8
	}
	if sp.Trials == 0 {
		sp.Trials = 1
	}
	return sp
}

// AttackCell is one grid point of the defense-evaluation matrix.
type AttackCell struct {
	Victim   string
	Profile  Profile
	Policy   ReplacementKind
	Defense  AttackDefense
	Probe    AttackProbe
	Schedule AttackSchedule

	// Recovery summarizes the recovery rate over the cell's trials.
	Recovery engine.Summary
	// Guesses summarizes mean guesses-to-first-correct per symbol.
	Guesses engine.Summary
	// AttackerFlagged and VictimFlagged are the fractions of trials in
	// which the counter monitor called each process suspicious.
	AttackerFlagged, VictimFlagged float64
}

// AttackSweep runs the full cross product of the spec through the
// engine and returns the cells in grid order (victims-major, then
// profiles, policies, defenses, probes, schedules). Each (cell, trial)
// seed is split deterministically from the root seed by grid position,
// and all cells of one victim kind attack the same demo secret, so the
// matrix is comparable across defenses and bit-identical at any worker
// count.
func AttackSweep(spec AttackSpec, seed uint64, opt RunOptions) []AttackCell {
	spec = spec.WithDefaults()

	type cellID struct {
		vname string
		prof  Profile
		pol   ReplacementKind
		def   AttackDefense
		probe AttackProbe
		sched AttackSchedule
	}
	profiles := mustResolve("AttackSweep", spec.Profiles, ProfileRef.Profile)
	policies := mustResolve("AttackSweep", spec.Policies, replacement.ParseKind)
	defenses := mustResolve("AttackSweep", spec.Defenses, attack.ParseDefense)
	probes := mustResolve("AttackSweep", spec.Probes, attack.ParseProbe)
	schedules := mustResolve("AttackSweep", spec.Schedules, attack.ParseSchedule)
	var ids []cellID
	for _, vname := range spec.Victims {
		for _, prof := range profiles {
			// Validate every (victim, profile) pairing up front so a
			// bad spec fails here, not inside an engine worker.
			if _, err := victim.ByName(vname, prof.L1Sets); err != nil {
				panic(fmt.Sprintf("lruleak: AttackSweep: %s on %s: %v", vname, prof.Arch, err))
			}
			for _, pol := range policies {
				for _, def := range defenses {
					for _, probe := range probes {
						for _, sched := range schedules {
							ids = append(ids, cellID{vname, prof, pol, def, probe, sched})
						}
					}
				}
			}
		}
	}

	type trialResult struct {
		rec, guesses           float64
		attFlagged, vicFlagged bool
	}
	seeds := engine.Seeds(seed, len(ids)*spec.Trials)
	jobs := make([]engine.Job[trialResult], 0, len(ids)*spec.Trials)
	for _, id := range ids {
		id := id
		for trial := 0; trial < spec.Trials; trial++ {
			jobs = append(jobs, engine.Job[trialResult]{
				Name: fmt.Sprintf("attack/%s/%v/%v/%v/%v/%s/trial=%d",
					id.vname, id.pol, id.def, id.probe, id.sched, id.prof.Arch, trial),
				Seed: seeds[len(jobs)],
				Run: func(s uint64) trialResult {
					v, err := victim.ByName(id.vname, id.prof.L1Sets)
					if err != nil {
						panic(err)
					}
					secret := victim.DemoSecret(v, spec.Symbols, seed)
					res := attack.Run(attack.Config{
						Victim: v, Defense: id.def, Policy: id.pol,
						Profile: id.prof, Votes: spec.Votes,
						ProfilingRounds: spec.ProfilingRounds,
						Probe:           id.probe, Schedule: id.sched,
						Seed: s,
					}, secret)
					return trialResult{
						rec:        res.RecoveryRate,
						guesses:    res.MeanGuesses,
						attFlagged: res.AttackerVerdict == detect.Suspicious,
						vicFlagged: res.VictimVerdict == detect.Suspicious,
					}
				},
			})
		}
	}
	rs := engine.Run(jobs, opt)

	cells := make([]AttackCell, len(ids))
	for ci, id := range ids {
		sub := rs[ci*spec.Trials : (ci+1)*spec.Trials]
		cell := AttackCell{
			Victim: id.vname, Profile: id.prof, Policy: id.pol,
			Defense: id.def, Probe: id.probe, Schedule: id.sched,
		}
		cell.Recovery = engine.SummarizeBy(sub, func(t trialResult) float64 { return t.rec })
		cell.Guesses = engine.SummarizeBy(sub, func(t trialResult) float64 { return t.guesses })
		for _, r := range sub {
			if r.Value.attFlagged {
				cell.AttackerFlagged++
			}
			if r.Value.vicFlagged {
				cell.VictimFlagged++
			}
		}
		cell.AttackerFlagged /= float64(len(sub))
		cell.VictimFlagged /= float64(len(sub))
		cells[ci] = cell
	}
	return cells
}

// RenderAttackSweep formats the defense-evaluation matrix as a flat
// table: which defense stops which attack under which probe strategy
// and execution schedule, and whether the monitor flags the attacker
// (and spares the victim) while it runs.
func RenderAttackSweep(cells []AttackCell) string {
	var b strings.Builder
	b.WriteString("Victim   Policy      Defense       Probe  Sched   Recovery  Guesses  Attacker     Victim\n")
	for _, c := range cells {
		att, vic := "benign", "benign"
		if c.AttackerFlagged > 0.5 {
			att = "flagged"
		}
		if c.VictimFlagged > 0.5 {
			vic = "flagged"
		}
		fmt.Fprintf(&b, "%-7s  %-10v  %-12v  %-5v  %-6v  %8.2f  %7.1f  %-11s  %s",
			c.Victim, c.Policy, c.Defense, c.Probe, c.Schedule,
			c.Recovery.Mean, c.Guesses.Mean, att, vic)
		if c.Recovery.N > 1 {
			fmt.Fprintf(&b, "  (±%.2f over %d trials)", c.Recovery.Std, c.Recovery.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// VoteOverheadRow is one schedule's price in votes: the smallest
// per-symbol window count at which the attack recovers the demo key
// exactly.
type VoteOverheadRow struct {
	Schedule AttackSchedule
	// Votes is the minimum vote count (== MaxVotes when !Recovered).
	Votes     int
	Recovered bool
}

// VoteOverheadStudy prices scheduling jitter: for each schedule it
// searches the minimum votes-per-symbol needed for exact recovery of
// the victim's demo key on the unprotected cache, one engine job per
// schedule. The sync row is the baseline; the SMT and time-sliced rows
// pay for probe windows that drift against the victim's events.
func VoteOverheadStudy(victimName string, pol ReplacementKind, symbols, maxVotes int, seed uint64, opt RunOptions) []VoteOverheadRow {
	scheds := attack.Schedules()
	jobs := make([]engine.Job[VoteOverheadRow], len(scheds))
	for i, sc := range scheds {
		sc := sc
		jobs[i] = engine.Job[VoteOverheadRow]{
			Name: fmt.Sprintf("voteoverhead/%s/%v/%v", victimName, pol, sc),
			Seed: seed,
			Run: func(s uint64) VoteOverheadRow {
				v, err := victim.ByName(victimName, SandyBridge().L1Sets)
				if err != nil {
					panic(err)
				}
				secret := victim.DemoSecret(v, symbols, s)
				n, ok := attack.MinVotes(attack.Config{
					Victim: v, Policy: pol, Schedule: sc, Seed: s,
				}, secret, maxVotes)
				return VoteOverheadRow{Schedule: sc, Votes: n, Recovered: ok}
			},
		}
	}
	return engine.Values(engine.Run(jobs, opt))
}

// RenderVoteOverhead formats the study against its sync baseline.
func RenderVoteOverhead(rows []VoteOverheadRow) string {
	var b strings.Builder
	base := 0
	for _, r := range rows {
		if r.Schedule == attack.ScheduleSync && r.Recovered {
			base = r.Votes
		}
	}
	b.WriteString("Schedule  MinVotes  Overhead\n")
	for _, r := range rows {
		if !r.Recovered {
			fmt.Fprintf(&b, "%-8v  >%-7d  (no full recovery)\n", r.Schedule, r.Votes)
			continue
		}
		over := "baseline"
		if r.Schedule != attack.ScheduleSync {
			if base > 0 {
				over = fmt.Sprintf("%+d votes/symbol (%.1fx)", r.Votes-base, float64(r.Votes)/float64(base))
			} else {
				over = "(no sync baseline)"
			}
		}
		fmt.Fprintf(&b, "%-8v  %-8d  %s\n", r.Schedule, r.Votes, over)
	}
	return b.String()
}

// ROCSpec declares the detection threshold sweep: attacker counter
// profiles (positives) per defense against benign Figure 9 suite
// co-runs (negatives), swept over the monitor's cross-eviction
// threshold grid. Zero-valued dimensions get sensible defaults. As in
// AttackSpec, every dimension is a name and the json tags are the
// lruleakd wire schema of the "roc" section.
type ROCSpec struct {
	// Victims defaults to the T-table victim only.
	Victims []string `json:"victims,omitempty"`
	// Policies defaults to Tree-PLRU.
	Policies []string `json:"policies,omitempty"`
	// Defenses defaults to the full Section IX matrix.
	Defenses []string `json:"defenses,omitempty"`
	// Trials is the attack runs per (victim, policy, defense), each an
	// independent positive sample (default 4).
	Trials int `json:"trials,omitempty"`
	// Symbols is the per-attack demo-secret length (default 4; the
	// sweep needs counter profiles, not long recoveries).
	Symbols int `json:"symbols,omitempty"`
	// BenignRefs is the reference count each benign process issues
	// (default 300_000).
	BenignRefs int `json:"benignRefs,omitempty"`
	// BenignSlice is the time-slice granularity of the benign co-run,
	// in references per turn (default 100_000). Cross-evictions cost a
	// sliced process roughly one shared-cache refill per slice, so
	// this knob sets where the benign population sits on the
	// cross-eviction axis — real quanta are millions of references, so
	// the default is already pessimistic about benign interference.
	BenignSlice int `json:"benignSlice,omitempty"`
	// Thresholds defaults to detect.DefaultROCThresholds().
	Thresholds []float64 `json:"thresholds,omitempty"`
}

// WithDefaults returns the spec with every zero-valued dimension
// replaced by its documented default (see SweepSpec.WithDefaults).
func (sp ROCSpec) WithDefaults() ROCSpec {
	if len(sp.Victims) == 0 {
		sp.Victims = []string{"ttable"}
	}
	if len(sp.Policies) == 0 {
		sp.Policies = []string{TreePLRU.String()}
	}
	if len(sp.Defenses) == 0 {
		sp.Defenses = names(attack.Defenses())
	}
	if sp.Trials == 0 {
		sp.Trials = 4
	}
	if sp.Symbols == 0 {
		sp.Symbols = 4
	}
	if sp.BenignRefs == 0 {
		sp.BenignRefs = 300_000
	}
	if sp.BenignSlice == 0 {
		sp.BenignSlice = 100_000
	}
	if len(sp.Thresholds) == 0 {
		sp.Thresholds = detect.DefaultROCThresholds()
	}
	return sp
}

// DefenseROC is one defense's swept detection curve.
type DefenseROC struct {
	Defense AttackDefense
	ROC     detect.ROC
}

// ROCResult is the full threshold-sensitivity study.
type ROCResult struct {
	Curves []DefenseROC
	// BenignProcesses is the negative sample size (two per suite pair).
	BenignProcesses int
	// Deployed is the cross-eviction threshold the stock attack
	// monitor runs at, for the operating-point columns.
	Deployed float64
}

// ROCSweep runs the detection threshold sweep through the engine:
// positives are the attacker's counter reports from live attack runs
// (per defense — a defense changes what the attacker's traffic looks
// like, DAWG structurally zeroing its cross-evictions); negatives are
// the per-process reports of every unordered Figure 9 suite pair
// co-run on the unprotected baseline L1D. The same negatives
// serve every defense, so the curves differ only in what the attack
// does to the counters.
func ROCSweep(spec ROCSpec, seed uint64, opt RunOptions) ROCResult {
	spec = spec.WithDefaults()

	// Positive samples: one job per (defense, victim, policy, trial).
	type posID struct {
		def   AttackDefense
		vname string
		pol   ReplacementKind
	}
	policies := mustResolve("ROCSweep", spec.Policies, replacement.ParseKind)
	defenses := mustResolve("ROCSweep", spec.Defenses, attack.ParseDefense)
	for _, vname := range spec.Victims {
		if _, err := victim.ByName(vname, SandyBridge().L1Sets); err != nil {
			panic(fmt.Sprintf("lruleak: ROCSweep: %v", err))
		}
	}
	var posIDs []posID
	for _, def := range defenses {
		for _, vname := range spec.Victims {
			for _, pol := range policies {
				posIDs = append(posIDs, posID{def, vname, pol})
			}
		}
	}
	seeds := engine.Seeds(seed, len(posIDs)*spec.Trials+1)
	posJobs := make([]engine.Job[perfctr.Report], 0, len(posIDs)*spec.Trials)
	for _, id := range posIDs {
		id := id
		for trial := 0; trial < spec.Trials; trial++ {
			posJobs = append(posJobs, engine.Job[perfctr.Report]{
				Name: fmt.Sprintf("roc/pos/%v/%s/%v/trial=%d", id.def, id.vname, id.pol, trial),
				Seed: seeds[len(posJobs)],
				Run: func(s uint64) perfctr.Report {
					v, err := victim.ByName(id.vname, SandyBridge().L1Sets)
					if err != nil {
						panic(err)
					}
					secret := victim.DemoSecret(v, spec.Symbols, s)
					res := attack.Run(attack.Config{
						Victim: v, Defense: id.def, Policy: id.pol, Seed: s,
					}, secret)
					return res.AttackerReport
				},
			})
		}
	}
	posReports := engine.Values(engine.Run(posJobs, opt))

	// Negative samples: every unordered pair of suite benchmarks,
	// co-run on a shared baseline L1D; both processes' reports
	// count.
	type pairID struct{ a, b int }
	var pairs []pairID
	for i := 0; i < workload.SuiteSize(); i++ {
		for j := i + 1; j < workload.SuiteSize(); j++ {
			pairs = append(pairs, pairID{i, j})
		}
	}
	pairSeeds := engine.Seeds(seeds[len(seeds)-1], len(pairs))
	negJobs := make([]engine.Job[[2]perfctr.Report], len(pairs))
	for i, p := range pairs {
		p := p
		negJobs[i] = engine.Job[[2]perfctr.Report]{
			Name: fmt.Sprintf("roc/neg/pair=%d-%d", p.a, p.b),
			Seed: pairSeeds[i],
			Run: func(s uint64) [2]perfctr.Report {
				return benignPairReports(p.a, p.b, spec.BenignRefs, spec.BenignSlice, s)
			},
		}
	}
	var negReports []perfctr.Report
	for _, pair := range engine.Values(engine.Run(negJobs, opt)) {
		negReports = append(negReports, pair[0], pair[1])
	}

	// Sweep one curve per defense over the shared negatives.
	base := detect.ROCBaseThresholds()
	out := ROCResult{BenignProcesses: len(negReports), Deployed: base.L1CrossEvictionRate}
	perDefense := spec.Trials * len(spec.Victims) * len(spec.Policies)
	for di, def := range defenses {
		pos := posReports[di*perDefense : (di+1)*perDefense]
		out.Curves = append(out.Curves, DefenseROC{
			Defense: def,
			ROC:     detect.SweepCrossEvictionThreshold(pos, negReports, base, spec.Thresholds),
		})
	}
	return out
}

// benignPairTagStride separates the two benign processes' address
// spaces (no shared lines — only set contention couples them).
const benignPairTagStride = 1 << 26

// benignPairReports co-runs two Figure 9 suite workloads on a shared
// unprotected L1D with the attack's geometry (the Tree-PLRU L1D that
// hier.New builds for SandyBridge), alternating time slices of `slice`
// references each until both have issued `refs`, and returns both
// processes' counter reports — the false-positive population a
// deployed monitor must not flag. The sliced interleave matters: a
// time-sliced process pays its partner's displacement once per slice
// (one shared-cache refill), so its cross-eviction rate is bounded by
// roughly cacheLines/slice, whereas a reference-by-reference
// interleave (two hyper-threads thrashing) would push every heavy pair
// over any plausible threshold. No level below the L1D is modelled:
// the swept monitor reads only L1D counters, and this L1D (no
// prefetcher, no back-invalidation, no random victims) evolves as it
// would above an L2
// (TestROCBaseReadsOnlyL1D and TestBenignPairL1MatchesHierarchy pin both).
func benignPairReports(a, b, refs, slice int, seed uint64) [2]perfctr.Report {
	gens := [2]workload.Generator{
		workload.SuiteBenchmark(a, seed),
		workload.SuiteBenchmark(b, seed^0x9e3779b9),
	}
	prof := SandyBridge()
	l1 := cache.New(cache.Config{
		Name: "L1D", Sets: prof.L1Sets, Ways: prof.L1Ways, LineSize: prof.LineSize,
		Policy: TreePLRU,
	})
	if slice < 1 {
		slice = 1
	}
	reqs := make([]cache.Request, min(slice, refs, hier.BatchChunk))
	var issued [2]int
	for turn := 0; issued[0] < refs || issued[1] < refs; turn++ {
		p := turn % 2
		end := issued[p] + min(slice, refs-issued[p])
		for issued[p] < end {
			n := min(len(reqs), end-issued[p])
			for k := 0; k < n; k++ {
				l := gens[p].Next().Addr / 64
				if p == 1 {
					l += benignPairTagStride
				}
				reqs[k] = cache.Request{PhysLine: l, Requestor: p}
			}
			l1.AccessBatch(reqs[:n], nil)
			issued[p] += n
		}
	}
	return [2]perfctr.Report{
		perfctr.FromL1Stats(0, l1.RequestorStats(0)),
		perfctr.FromL1Stats(1, l1.RequestorStats(1)),
	}
}

// RenderROC formats the study: the AUC summary table with the deployed
// operating point, then each defense's swept curve.
func RenderROC(res ROCResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection ROC — cross-eviction threshold sweep (negatives: %d benign Figure 9 suite processes)\n",
		res.BenignProcesses)
	fmt.Fprintf(&b, "Defense       AUC     TPR@%.1f%%  FPR@%.1f%%\n", 100*res.Deployed, 100*res.Deployed)
	for _, c := range res.Curves {
		p := c.ROC.PointAt(res.Deployed)
		fmt.Fprintf(&b, "%-12v  %.3f   %-8.2f  %-8.2f\n", c.Defense, c.ROC.AUC, p.TPR, p.FPR)
	}
	for _, c := range res.Curves {
		fmt.Fprintf(&b, "\ndefense=%v (positives: %d attacker runs)\n", c.Defense, c.ROC.PosN)
		b.WriteString("  threshold   TPR    FPR\n")
		for _, p := range c.ROC.Points {
			th := fmt.Sprintf("%6.2f%%", 100*p.Threshold)
			if p.Threshold > 1 {
				th = "    off"
			}
			fmt.Fprintf(&b, "  %s     %.2f   %.2f\n", th, p.TPR, p.FPR)
		}
	}
	return b.String()
}

// RenderSweep formats a sweep as a flat table (mean ± stddev error when
// the sweep ran multiple trials per cell). The d column reads 0, the
// default split every cell runs.
func RenderSweep(cells []SweepCell) string {
	var b strings.Builder
	b.WriteString("CPU                     Policy      Algorithm                         Tr      Ts      d  Rate        Error\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-22s  %-10v  %-32v  %-6d  %-6d  0  %7.1f Kbps  %5.1f%%",
			c.Profile.Name, c.Policy, c.Algorithm, c.Tr, c.Ts,
			c.RateBps/1000, 100*c.Err.Mean)
		if c.Err.N > 1 {
			fmt.Fprintf(&b, " ± %4.1f%%", 100*c.Err.Std)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LeakageSpec parameterises the automated policy leakage study: a
// reachable-state-space table (the information-theoretic ceiling per
// policy family) and a ranked leaderboard of measured probing leakage
// per policy x associativity x defense cell. The zero value is the
// documented default grid.
type LeakageSpec struct {
	// Policies defaults to every family with replacement state (true
	// LRU, Tree-PLRU, Bit-PLRU, FIFO). Random keeps no state and has
	// no state space to enumerate.
	Policies []ReplacementKind
	// Ways is the leaderboard associativity axis (default {4, 8}; 8 is
	// the Sandy Bridge L1 point the detect ROC study runs on).
	Ways []int
	// Defenses defaults to the full Section IX matrix.
	Defenses []AttackDefense
	// FillWindows is the random-fill window axis: the randomfill
	// defense is scored once per window (default {4, 16, 64}; 16 is
	// the canonical window every other table uses). Other defenses
	// ignore it.
	FillWindows []uint64
	// SpaceWays is the state-space table's associativity axis (default
	// {4, 8, 16}; 16 drives true LRU past the exhaustive cap and onto
	// the sampled path, so the coverage accounting shows up in the
	// rendered table).
	SpaceWays []int
}

// WithDefaults returns the spec with every zero-valued dimension
// replaced by its documented default (see SweepSpec.WithDefaults).
func (sp LeakageSpec) WithDefaults() LeakageSpec {
	if len(sp.Policies) == 0 {
		sp.Policies = []ReplacementKind{TrueLRU, TreePLRU, BitPLRU, FIFO}
	}
	if len(sp.Ways) == 0 {
		sp.Ways = []int{4, 8}
	}
	if len(sp.Defenses) == 0 {
		sp.Defenses = attack.Defenses()
	}
	if len(sp.FillWindows) == 0 {
		sp.FillWindows = []uint64{4, 16, 64}
	}
	if len(sp.SpaceWays) == 0 {
		sp.SpaceWays = []int{4, 8, 16}
	}
	return sp
}

// LeakageSpaceRow is one policy family's reachable-state-space summary
// at one associativity.
type LeakageSpaceRow struct {
	Policy ReplacementKind
	Ways   int
	Space  leakage.StateSpace
}

// LeakageCell is one measured leaderboard entry. FillWindow is nonzero
// only on randomfill rows. Bound is the state-space leakage ceiling
// log2(TheoreticalStates) for the cell's policy family — the measured
// Bits can never legitimately exceed it.
type LeakageCell struct {
	Policy     ReplacementKind
	Ways       int
	Defense    AttackDefense
	FillWindow uint64
	Bound      float64
	Res        leakage.Result
}

// LeakageResult is the full study: the state-space table plus every
// leaderboard cell in grid order (RenderLeakage ranks them).
type LeakageResult struct {
	Spaces []LeakageSpaceRow
	Cells  []LeakageCell
}

// LeakageSweep runs the study through the engine: one job per
// state-space enumeration and one per leaderboard cell, each seeded
// from the grid position so the result is byte-identical at any worker
// count.
func LeakageSweep(spec LeakageSpec, seed uint64, opt RunOptions) LeakageResult {
	spec = spec.WithDefaults()

	type spaceID struct {
		pol  ReplacementKind
		ways int
	}
	var spaceIDs []spaceID
	for _, pol := range spec.Policies {
		for _, ways := range spec.SpaceWays {
			spaceIDs = append(spaceIDs, spaceID{pol, ways})
		}
	}
	type cellID struct {
		pol    ReplacementKind
		ways   int
		def    AttackDefense
		window uint64
	}
	var cellIDs []cellID
	for _, pol := range spec.Policies {
		for _, ways := range spec.Ways {
			for _, def := range spec.Defenses {
				if def == attack.DefenseRandomFill {
					for _, w := range spec.FillWindows {
						cellIDs = append(cellIDs, cellID{pol, ways, def, w})
					}
				} else {
					cellIDs = append(cellIDs, cellID{pol, ways, def, 0})
				}
			}
		}
	}

	seeds := engine.Seeds(seed, len(spaceIDs)+len(cellIDs))
	spaceJobs := make([]engine.Job[leakage.StateSpace], len(spaceIDs))
	for i, id := range spaceIDs {
		id := id
		spaceJobs[i] = engine.Job[leakage.StateSpace]{
			Name: fmt.Sprintf("leakage/space/%v/ways=%d", id.pol, id.ways),
			Seed: seeds[i],
			Run: func(s uint64) leakage.StateSpace {
				// The enumerator's sampling fallback is seeded from the grid,
				// not the traversal: the canonical closure needs no seed.
				return leakage.Enumerate(id.pol, id.ways, leakage.Options{SampleSeed: s})
			},
		}
	}
	cellJobs := make([]engine.Job[leakage.Result], len(cellIDs))
	for i, id := range cellIDs {
		id := id
		name := fmt.Sprintf("leakage/cell/%v/ways=%d/%v", id.pol, id.ways, id.def)
		if id.def == attack.DefenseRandomFill {
			name += fmt.Sprintf("/window=%d", id.window)
		}
		cellJobs[i] = engine.Job[leakage.Result]{
			Name: name,
			Seed: seeds[len(spaceIDs)+i],
			Run: func(s uint64) leakage.Result {
				return leakage.Eval(leakage.Config{
					Policy: id.pol, Ways: id.ways, Defense: id.def,
					FillWindow: id.window, Seed: s,
				})
			},
		}
	}

	var out LeakageResult
	for i, sp := range engine.Values(engine.Run(spaceJobs, opt)) {
		out.Spaces = append(out.Spaces, LeakageSpaceRow{
			Policy: spaceIDs[i].pol, Ways: spaceIDs[i].ways, Space: sp,
		})
	}
	for i, res := range engine.Values(engine.Run(cellJobs, opt)) {
		id := cellIDs[i]
		bound := math.Inf(1)
		if n, ok := leakage.TheoreticalStates(id.pol, id.ways); ok {
			bound = math.Log2(n)
		}
		out.Cells = append(out.Cells, LeakageCell{
			Policy: id.pol, Ways: id.ways, Defense: id.def,
			FillWindow: id.window, Bound: bound, Res: res,
		})
	}
	return out
}

// RenderLeakage formats the study: the reachable-state-space table
// (with explicit coverage accounting on sampled rows), then the
// leaderboard ranked by measured bits per observation, descending;
// ties keep grid order, so the ranking is deterministic. Randomized
// cells are marked est (surrogate-corrected estimate) rather than
// exact, and the footnote carries the Cañones–Köpf–Reineke caveat:
// ranked leakage under ONE probing strategy is not a total order on
// policies — orderings may legitimately differ under another probe.
func RenderLeakage(res LeakageResult) string {
	var b strings.Builder
	b.WriteString("Reachable replacement-state spaces (per set, BFS over the hit/miss access alphabet)\n")
	b.WriteString("Policy      Ways  States     Theory     Coverage  Ceiling     Mode\n")
	for _, row := range res.Spaces {
		theory := "-"
		if n, ok := leakage.TheoreticalStates(row.Policy, row.Ways); ok {
			theory = fmt.Sprintf("%.4g", n)
		}
		mode := "exhaustive"
		if !row.Space.Exhaustive {
			mode = fmt.Sprintf("sampled(%d seqs)", row.Space.SampledSequences)
		}
		fmt.Fprintf(&b, "%-10v  %-4d  %-9d  %-9s  %-8.3g  %5.1f bits  %s\n",
			row.Policy, row.Ways, len(row.Space.States), theory,
			row.Space.Coverage, row.Space.Bound(), mode)
	}

	ranked := make([]LeakageCell, len(res.Cells))
	copy(ranked, res.Cells)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Res.Bits > ranked[j].Res.Bits })

	b.WriteString("\nLeakage leaderboard (bits per probe observation, eviction-probe strategy, ranked)\n")
	b.WriteString("Rank  Policy      Ways  Defense       Window  Bits/obs  Ceiling  Obs   Kind\n")
	for i, c := range ranked {
		window := "-"
		if c.Defense == attack.DefenseRandomFill {
			window = fmt.Sprintf("%d", c.FillWindow)
		}
		kind := "exact"
		if !c.Res.Deterministic {
			kind = "est"
		}
		fmt.Fprintf(&b, "%-4d  %-10v  %-4d  %-12v  %-6s  %8.3f  %7.1f  %-4d  %s\n",
			i+1, c.Policy, c.Ways, c.Defense, window, c.Res.Bits, c.Bound,
			c.Res.DistinctObs, kind)
	}
	b.WriteString("\nRanking is per this probe only: policies are incomparable in general\n")
	b.WriteString("(Cañones–Köpf–Reineke), and a different probing strategy may order them differently.\n")
	return b.String()
}
