// Package core implements the paper's contribution: timing-based side and
// covert channels through cache LRU replacement state, next to the
// Flush+Reload channels the paper compares them with.
//
// Four channels share one Setup, one sender loop and one receive loop
// (see Algorithm):
//
//   - Algorithm 1 — the LRU channel with shared memory: sender and receiver
//     share the physical cache line "line 0" (e.g. via a shared library);
//     the receiver primes the set with lines 0..d-1, the sender encodes a 1
//     by touching line 0 (a cache HIT — the novelty of the attack), and the
//     receiver decodes by accessing lines d..N and timing line 0.
//
//   - Algorithm 2 — the LRU channel without shared memory: the sender owns
//     a private line N mapping to the same set; the receiver accesses only
//     its own lines 0..N-1 and decodes by timing line 0, which gets evicted
//     exactly when the sender's access pushed the set's LRU state forward.
//
//   - Flush+Reload (Sections II-A and VII), the baseline of Tables V-VII:
//     the sender flushes the shared line 0 to memory with clflush
//     ("F+R (mem)") or evicts it from L1 by loading the set's conflicting
//     lines ("F+R (L1)"), then reloads it to send a 1; the receiver only
//     times line 0. Both encode with a miss, unlike the LRU channels.
//
// Algorithm 3, the covert-channel framing, drives all four: the sender
// holds each bit for Ts cycles; the receiver samples every Tr cycles using
// the pointer-chase probe of Section IV-D.
//
// The package also contains the Table I eviction-probability study and the
// encoding-cost measurements that feed Tables IV and V.
package core

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/timing"
	"repro/internal/uarch"
)

// Algorithm selects the channel protocol.
type Algorithm int

// The two LRU channel protocols and the two Flush+Reload baselines.
const (
	// Alg1SharedMemory is Algorithm 1: sender and receiver share line 0.
	Alg1SharedMemory Algorithm = iota + 1
	// Alg2NoSharedMemory is Algorithm 2: disjoint address spaces.
	Alg2NoSharedMemory
	// FlushReloadMem is Flush+Reload over Algorithm 1's shared line 0,
	// flushed to memory with clflush.
	FlushReloadMem
	// FlushReloadL1 is Flush+Reload over the shared line 0, evicted from
	// L1 by loading the set's eight conflicting lines (no clflush
	// available, e.g. inside a sandbox).
	FlushReloadL1
)

// String names the protocol.
func (a Algorithm) String() string {
	switch a {
	case Alg1SharedMemory:
		return "Algorithm 1 (shared memory)"
	case Alg2NoSharedMemory:
		return "Algorithm 2 (no shared memory)"
	case FlushReloadMem:
		return "Flush+Reload (clflush to memory)"
	case FlushReloadL1:
		return "Flush+Reload (L1 eviction)"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Column names the channel as the columns and rows of Tables V-VII do.
func (a Algorithm) Column() string {
	switch a {
	case Alg1SharedMemory:
		return "L1 LRU Alg.1"
	case Alg2NoSharedMemory:
		return "L1 LRU Alg.2"
	case FlushReloadMem:
		return "F+R (mem)"
	case FlushReloadL1:
		return "F+R (L1)"
	default:
		return a.String()
	}
}

// flushReload reports whether a is one of the Flush+Reload baselines.
func (a Algorithm) flushReload() bool { return a == FlushReloadMem || a == FlushReloadL1 }

// Requestor ids used for cache counter attribution throughout the
// experiments.
const (
	ReqSender   = 0
	ReqReceiver = 1
	ReqOther    = 2
)

// Config parameterizes a channel experiment.
type Config struct {
	Profile   uarch.Profile
	Algorithm Algorithm
	Mode      sched.Mode

	// L1Policy defaults to Tree-PLRU, the policy of the parts in
	// Table III.
	L1Policy replacement.Kind

	// D is the receiver's split parameter: lines 0..D-1 are accessed in
	// the initialization phase, the rest in the decoding phase.
	D int
	// Ts is the sender's per-bit holding time in cycles (Algorithm 3).
	Ts uint64
	// Tr is the receiver's sampling period in cycles.
	Tr uint64

	// TargetSet is the L1 set carrying the channel (default 5).
	TargetSet int
	// ChainLen is the pointer-chase list length (default 7).
	ChainLen int

	// SameAddressSpace runs sender and receiver as two threads of one
	// process (the pthreads arrangement of Section VI-B, which is how
	// Algorithm 1 stays viable on AMD despite the utag predictor).
	SameAddressSpace bool

	// NoiseThreads adds background processes that touch random lines
	// (including the target set) every NoisePeriod cycles.
	NoiseThreads int
	NoisePeriod  uint64

	// PartitionLocked / LockReplacementState configure the PL secure
	// cache on the L1 (Section IX-B evaluation).
	PartitionLocked      bool
	LockReplacementState bool

	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Profile.Name == "" {
		c.Profile = uarch.SandyBridge()
	}
	if c.Algorithm == 0 {
		c.Algorithm = Alg1SharedMemory
	}
	if c.L1Policy == 0 { // replacement.TrueLRU is 0; default Tree-PLRU
		c.L1Policy = replacement.TreePLRU
	}
	if c.D == 0 {
		if c.Algorithm == Alg1SharedMemory {
			c.D = c.Profile.L1Ways
		} else {
			c.D = c.Profile.L1Ways / 2
		}
	}
	if c.Ts == 0 {
		c.Ts = 6000
	}
	if c.Tr == 0 {
		c.Tr = 600
	}
	if c.TargetSet == 0 {
		c.TargetSet = 5
	}
	if c.NoisePeriod == 0 {
		c.NoisePeriod = 5_000
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// senderPeriod is the cycle cost of one sender encode-loop iteration
// (address computation + the access): 31 cycles under SMT (Table V),
// 50_000 under time-slicing, where within-slice repeats are idempotent
// and only inflate event counts.
func (c Config) senderPeriod() uint64 {
	if c.Mode == sched.TimeSliced {
		return 50_000
	}
	return 31
}

// reservedSet is the L1 set holding the pointer-chase list: the last set.
func (c Config) reservedSet() int { return c.Profile.L1Sets - 1 }

// Setup is an instantiated channel: hierarchy, address spaces, resolved
// lines and the receiver's measurement apparatus. It carries one or more
// lanes; each lane is one target set with its own sender line and
// receiver lines, and the receiver sweeps every lane each sampling period
// (Section IV: "several sets can be used in parallel to increase the
// transmission rate or to reduce the noise").
type Setup struct {
	Cfg  Config
	Sys  *mem.System
	Hier *hier.Hierarchy
	TSC  *timing.TSC
	RNG  *rng.Rand

	SenderAS   *mem.AddressSpace
	ReceiverAS *mem.AddressSpace

	// ReceiverLines are lane 0's receiver lines 0..K-1 in the receiver's
	// virtual addresses (K = ways+1 for Algorithm 1, ways for
	// Algorithm 2).
	ReceiverLines []mem.Addr
	// SenderLine is the line the sender touches to encode a 1 on lane 0:
	// the alias of line 0 under Algorithm 1, or the private line N under
	// Algorithm 2.
	SenderLine mem.Addr

	Chaser *timing.Chaser

	lanes []lane
	// evictors are the sender's lines conflicting with SenderLine in L1,
	// which F+R (L1) loads to evict it without clflush.
	evictors []mem.Addr
}

// lane is one target set of the channel.
type lane struct {
	sender   mem.Addr
	receiver []mem.Addr
}

// NewSetup builds a one-lane channel on cfg.TargetSet.
func NewSetup(cfg Config) *Setup {
	cfg = cfg.withDefaults()
	return newSetup(cfg, []int{cfg.TargetSet})
}

// NewMultiSetup builds a channel with one lane per target set, carrying
// one bit per set per symbol. cfg.TargetSet is ignored.
func NewMultiSetup(cfg Config, targetSets []int) *Setup {
	if len(targetSets) == 0 {
		panic("core: NewMultiSetup needs at least one target set")
	}
	cfg = cfg.withDefaults()
	cfg.TargetSet = targetSets[0]
	return newSetup(cfg, targetSets)
}

func newSetup(cfg Config, targetSets []int) *Setup {
	if cfg.Algorithm.flushReload() && len(targetSets) > 1 {
		panic("core: a Flush+Reload channel has one lane")
	}
	for _, set := range targetSets {
		if set == cfg.reservedSet() {
			panic(fmt.Sprintf("core: target set %d collides with the reserved chase set", set))
		}
	}
	prof := cfg.Profile
	r := rng.New(cfg.Seed)
	s := &Setup{Cfg: cfg, RNG: r}

	s.Hier = hier.New(hier.Config{
		Profile:  prof,
		L1Policy: cfg.L1Policy, L2Policy: replacement.TreePLRU,
		PartitionLockedL1:      cfg.PartitionLocked,
		LockReplacementStateL1: cfg.LockReplacementState,
		WithLLC:                true,
		RNG:                    r.Split(),
	})
	s.TSC = timing.NewTSC(prof, r.Split())
	s.Sys = mem.NewSystem(prof.LineSize)

	s.ReceiverAS = s.Sys.NewAddressSpace()
	if cfg.SameAddressSpace {
		s.SenderAS = s.ReceiverAS
	} else {
		s.SenderAS = s.Sys.NewAddressSpace()
	}

	// Lane 0 resolves before the chase list and the other lanes after
	// it: resolution order fixes the physical page of every line.
	s.addLane(targetSets[0])
	s.Chaser = timing.NewChaser(s.Hier, s.ReceiverAS, cfg.reservedSet(), cfg.ChainLen, ReqReceiver, s.TSC)
	for _, set := range targetSets[1:] {
		s.addLane(set)
	}
	s.SenderLine, s.ReceiverLines = s.lanes[0].sender, s.lanes[0].receiver
	if cfg.Algorithm == FlushReloadL1 {
		set := s.Hier.L1().SetIndex(s.SenderLine.PhysLine)
		s.evictors = resolveAll(s.SenderAS, s.SenderAS.LinesForSet(prof.L1Sets, set, prof.L1Ways))
	}
	return s
}

// addLane resolves the sender and receiver lines of one target set.
func (s *Setup) addLane(set int) {
	prof := s.Cfg.Profile
	ways := prof.L1Ways
	var l lane
	switch s.Cfg.Algorithm {
	case Alg1SharedMemory, FlushReloadMem, FlushReloadL1:
		// Lines 0..N shared; the receiver uses all N+1, the sender
		// uses (its alias of) line 0. Flush+Reload needs only line 0
		// but resolves the same lines, so every frame stays put.
		if s.Cfg.SameAddressSpace {
			vs := s.ReceiverAS.LinesForSet(prof.L1Sets, set, ways+1)
			l.receiver = resolveAll(s.ReceiverAS, vs)
			l.sender = l.receiver[0]
		} else {
			sv, rv := mem.SharedLinesForSet(s.Sys, s.SenderAS, s.ReceiverAS, prof.L1Sets, set, ways+1)
			l.receiver = resolveAll(s.ReceiverAS, rv)
			l.sender = s.SenderAS.Resolve(sv[0])
		}
	case Alg2NoSharedMemory:
		// Receiver's private lines 0..N-1; sender's private line N.
		rv := s.ReceiverAS.LinesForSet(prof.L1Sets, set, ways)
		l.receiver = resolveAll(s.ReceiverAS, rv)
		sv := s.SenderAS.LinesForSet(prof.L1Sets, set, 1)
		l.sender = s.SenderAS.Resolve(sv[0])
	default:
		panic(fmt.Sprintf("core: unknown algorithm %d", int(s.Cfg.Algorithm)))
	}
	s.lanes = append(s.lanes, l)
}

// Lanes returns the number of target sets carrying one bit each.
func (s *Setup) Lanes() int { return len(s.lanes) }

func resolveAll(as *mem.AddressSpace, vs []uint64) []mem.Addr {
	out := make([]mem.Addr, len(vs))
	for i, v := range vs {
		out[i] = as.Resolve(v)
	}
	return out
}

// NewMachine builds a scheduler machine over the setup's hierarchy.
func (s *Setup) NewMachine() *sched.Machine {
	return sched.New(sched.Config{
		Hier: s.Hier, TSC: s.TSC, RNG: s.RNG.Split(),
		Mode: s.Cfg.Mode,
	})
}

// HitMeansOne reports the decode polarity: under Algorithm 1 and
// Flush+Reload a FAST access to line 0 (a hit) means the sender sent 1;
// under Algorithm 2 a SLOW access (a miss) means 1.
func (s *Setup) HitMeansOne() bool { return s.Cfg.Algorithm != Alg2NoSharedMemory }
