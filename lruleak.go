// Package lruleak is a Go reproduction of "Leaking Information Through
// Cache LRU States" (Wenjie Xiong and Jakub Szefer, HPCA 2020): timing
// channels that leak through the replacement state of set-associative
// caches rather than through cache line presence.
//
// Because the attack's raw material — 4-versus-12-cycle load latencies —
// cannot be observed from Go (the runtime and GC destroy cycle-level
// timing), the package drives the paper's actual protocols on a
// deterministic cycle-level simulator of the relevant microarchitecture:
// Tree-PLRU/Bit-PLRU replacement state, a two/three-level cache hierarchy,
// rdtscp timing with per-CPU granularity, SMT and time-sliced core sharing,
// Spectre v1 transient execution, and the secure-cache designs of the
// paper's Section IX. See DESIGN.md for the full substitution table.
//
// # Quick start
//
//	setup := lruleak.NewChannel(lruleak.ChannelConfig{
//		Algorithm: lruleak.Alg1SharedMemory,
//		Mode:      lruleak.SMT,
//		Tr:        600, Ts: 6000,
//	})
//	trace := setup.Run([]byte{0, 1}, true, 200, 1<<40)   // alternate bits
//	bits := trace.RawBits(setup.HitMeansOne())           // decoded stream
//
// Every experiment of the paper's evaluation — Tables I-VII and Figures
// 3-15 — has a driver in this package (see figures.go and tables.go) and a
// golden under testdata/ that papergolden_test.go pins.
package lruleak

import (
	"io"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hier"
	"repro/internal/replacement"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/transport"
	"repro/internal/uarch"
	"repro/internal/victim"
)

// Re-exported configuration and result types. These are aliases, so the
// internal packages' documentation applies verbatim.
type (
	// Profile describes a CPU microarchitecture (Table III).
	Profile = uarch.Profile
	// ChannelConfig parameterizes an LRU channel experiment.
	ChannelConfig = core.Config
	// Channel is an instantiated LRU channel (sender, receiver,
	// hierarchy and measurement apparatus).
	Channel = core.Setup
	// Trace is a receiver observation sequence.
	Trace = core.Trace
	// ErrorRateResult is one point of Figure 4.
	ErrorRateResult = core.ErrorRateResult
	// SpectreConfig parameterizes the Section VIII attack.
	SpectreConfig = spectre.Config
	// SpectreAttack is an instantiated Spectre v1 attack.
	SpectreAttack = spectre.Attack
	// ReplacementKind selects an L1 replacement policy.
	ReplacementKind = replacement.Kind
	// RunOptions tunes how a driver's job grid executes: worker count
	// (0 = all cores) and an optional progress callback. The zero value
	// runs fully parallel and silent; results are identical either way.
	RunOptions = engine.Options
	// JobEvent is one progress notification from a running driver.
	JobEvent = engine.Event
	// StreamPoint is one end-to-end goodput/frame-error measurement.
	StreamPoint = transport.CapacityPoint
	// VictimProgram is a secret-dependent victim (internal/victim):
	// the program the key-recovery attack observes.
	VictimProgram = victim.Victim
	// AttackConfig parameterizes one end-to-end key-recovery attack.
	AttackConfig = attack.Config
	// AttackResult is the recovery outcome plus detection verdicts.
	AttackResult = attack.Result
	// AttackDefense selects the secure-cache design under attack.
	AttackDefense = attack.Defense
	// AttackProbe selects the attacker's probe strategy: the canonical
	// full prime, or the Figure 11 d-split partial prime.
	AttackProbe = attack.Probe
	// AttackSchedule selects the attack's execution discipline:
	// synchronous, SMT hyper-threads, or time-sliced sharing.
	AttackSchedule = attack.Schedule
)

// NewVictim constructs a victim program by kind name ("ttable",
// "sqmul", "lookup") over a cache with the given set count.
func NewVictim(name string, sets int) (VictimProgram, error) { return victim.ByName(name, sets) }

// RunAttack executes the full template attack (profiling, recovery,
// detection verdict) against the configured victim and defense.
func RunAttack(cfg AttackConfig, secret []int) AttackResult { return attack.Run(cfg, secret) }

// AttackDefenseByName resolves a defense name ("none", "plcache",
// "plcache-fix", "randomfill", "dawg") for command-line flags.
func AttackDefenseByName(name string) (AttackDefense, error) { return attack.ParseDefense(name) }

// AttackDefenses lists the evaluated defenses in matrix order.
func AttackDefenses() []AttackDefense { return attack.Defenses() }

// AttackProbeByName resolves a probe-strategy name ("full", "d=1",
// "d1") for command-line flags.
func AttackProbeByName(name string) (AttackProbe, error) { return attack.ParseProbe(name) }

// AttackScheduleByName resolves a schedule name ("sync", "smt",
// "tslice") for command-line flags.
func AttackScheduleByName(name string) (AttackSchedule, error) { return attack.ParseSchedule(name) }

// AttackChanceGuesses is the guesses-to-first-correct a blind attacker
// achieves against the victim — the chance baseline attack reports are
// compared to.
func AttackChanceGuesses(v VictimProgram) float64 { return attack.ChanceGuesses(v) }

// ProgressTo returns a RunOptions.Progress callback printing one line
// per completed experiment cell to w (typically os.Stderr).
func ProgressTo(w io.Writer) func(JobEvent) { return engine.StderrProgress(w) }

// Channel selectors: the LRU protocols, and the Flush+Reload baselines
// of Section VII / Table V. Each also names a Spectre disclosure
// primitive (Section VIII / Table VII).
const (
	// Alg1SharedMemory is the paper's Algorithm 1.
	Alg1SharedMemory = core.Alg1SharedMemory
	// Alg2NoSharedMemory is the paper's Algorithm 2.
	Alg2NoSharedMemory = core.Alg2NoSharedMemory
	// FlushReloadMem flushes the shared line to memory with clflush.
	FlushReloadMem = core.FlushReloadMem
	// FlushReloadL1 evicts the shared line from L1 with conflicting loads.
	FlushReloadL1 = core.FlushReloadL1
)

// Core sharing modes (Section III threat model).
const (
	// SMT shares the core between two hyper-threads.
	SMT = sched.SMT
	// TimeSliced alternates processes on the core.
	TimeSliced = sched.TimeSliced
)

// Replacement policies (Section II-B).
const (
	TrueLRU  = replacement.TrueLRU
	TreePLRU = replacement.TreePLRU
	BitPLRU  = replacement.BitPLRU
	FIFO     = replacement.FIFO
	Random   = replacement.Random
)

// PrefetchNextLine is the next-line L1 prefetcher model (Appendix C).
const PrefetchNextLine = hier.PrefetchNextLine

// SandyBridge returns the Intel Xeon E5-2690 profile.
func SandyBridge() Profile { return uarch.SandyBridge() }

// Skylake returns the Intel Xeon E3-1245 v5 profile.
func Skylake() Profile { return uarch.Skylake() }

// Zen returns the AMD EPYC 7571 profile.
func Zen() Profile { return uarch.Zen() }

// Profiles returns all three evaluated CPUs in Table III order.
func Profiles() []Profile { return uarch.Profiles() }

// ProfileByName finds a profile by CPU or microarchitecture name.
func ProfileByName(name string) (Profile, error) { return uarch.ByName(name) }

// NewChannel instantiates an LRU channel experiment.
func NewChannel(cfg ChannelConfig) *Channel { return core.NewSetup(cfg) }

// NewMultiChannel instantiates an LRU channel with one lane per given
// target L1 set, one bit per set per symbol (Section IV's
// rate-multiplying extension).
func NewMultiChannel(cfg ChannelConfig, targetSets []int) *Channel {
	return core.NewMultiSetup(cfg, targetSets)
}

// NewSpectre instantiates the Section VIII attack with the given secret
// (bytes must be below spectre.Alphabet = 62).
func NewSpectre(cfg SpectreConfig, secret []byte) *SpectreAttack {
	return spectre.New(cfg, secret)
}

// SpectreAlphabet is the number of distinguishable secret values per
// transient access (one per usable L1 set).
const SpectreAlphabet = spectre.Alphabet

// EncodeString maps an upper-case-and-space string into the Spectre 6-bit
// alphabet (A=0..Z=25, space=26, 0-9=27..36); unsupported characters map to
// value 61. DecodeString reverses it.
func EncodeString(s string) []byte {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out[i] = c - 'A'
		case c >= 'a' && c <= 'z':
			out[i] = c - 'a'
		case c == ' ':
			out[i] = 26
		case c >= '0' && c <= '9':
			out[i] = 27 + c - '0'
		default:
			out[i] = 61
		}
	}
	return out
}

// DecodeString maps recovered alphabet values back to text.
func DecodeString(b []byte) string {
	out := make([]byte, len(b))
	for i, v := range b {
		switch {
		case v < 26:
			out[i] = 'A' + v
		case v == 26:
			out[i] = ' '
		case v >= 27 && v <= 36:
			out[i] = '0' + v - 27
		default:
			out[i] = '?'
		}
	}
	return string(out)
}
