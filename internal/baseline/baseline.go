// Package baseline implements the existing cache covert channels the paper
// compares against (Sections II-A and VII): Flush+Reload in its
// flush-to-memory form (clflush, "F+R (mem)") and its L1-eviction form
// ("F+R (L1)", eight conflicting accesses evict the line from L1 only).
// They share the Setup machinery of internal/core so the encoding-latency
// and miss-rate comparisons (Tables V and VI) are apples-to-apples.
package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Kind selects a baseline channel.
type Kind int

// Baseline channels of Table V.
const (
	// FlushReloadMem flushes the shared line to memory with clflush.
	FlushReloadMem Kind = iota + 1
	// FlushReloadL1 evicts the shared line from L1 by accessing the
	// eight conflicting lines of the set (no clflush available, e.g.
	// inside a sandbox).
	FlushReloadL1
)

// String names the channel as in Table V.
func (k Kind) String() string {
	switch k {
	case FlushReloadMem:
		return "F+R (mem)"
	case FlushReloadL1:
		return "F+R (L1)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Channel is an instantiated baseline attack sharing a core.Setup's
// hierarchy and address spaces.
type Channel struct {
	Kind  Kind
	Setup *core.Setup
	// evictors are the sender-side conflicting lines used by F+R (L1) to
	// evict the target without clflush.
	evictors []mem.Addr
}

// New builds a baseline channel over the given setup, which must use
// core.Alg1SharedMemory (Flush+Reload needs the shared line).
func New(kind Kind, s *core.Setup) *Channel {
	c := &Channel{Kind: kind, Setup: s}
	if kind == FlushReloadL1 {
		prof := s.Hier.Profile()
		set := s.Hier.L1().SetIndex(s.SenderLine.PhysLine)
		vs := s.SenderAS.LinesForSet(prof.L1Sets, set, prof.L1Ways)
		for _, v := range vs {
			c.evictors = append(c.evictors, s.SenderAS.Resolve(v))
		}
	}
	return c
}

// Encode performs the sender's operation for one bit directly against the
// hierarchy and returns its cost in cycles — the Table V measurement. For
// the F+R channels a 1 is sent by (re)loading the line after the flush
// epoch; crucially both involve a miss in the target level, unlike the LRU
// channel.
func (c *Channel) Encode(bit byte) int {
	s := c.Setup
	const addressComputation = 27
	switch c.Kind {
	case FlushReloadMem:
		// The sender's per-bit op in F+R: flush, then access if 1.
		// Cost is dominated by clflush reaching memory.
		s.Hier.Flush(c.Setup.SenderLine.PhysLine)
		cost := addressComputation + sched.FlushCost
		if bit != 0 {
			cost += s.Hier.Load(s.SenderLine, core.ReqSender).Latency
		}
		return cost
	case FlushReloadL1:
		// Evict by walking the set's conflicting lines (8 accesses).
		cost := addressComputation
		for _, e := range c.evictors {
			cost += s.Hier.Load(e, core.ReqSender).Latency
		}
		if bit != 0 {
			cost += s.Hier.Load(s.SenderLine, core.ReqSender).Latency
		}
		return cost
	default:
		panic(fmt.Sprintf("baseline: unknown kind %d", int(c.Kind)))
	}
}

// EncodeCostOne returns the steady-state cost of encoding a 1-bit (the
// Table V convention): the target line and, for F+R (L1), the eviction set
// are warm from previous epochs, so the cost reflects only the per-bit
// work — the flush for F+R (mem), the 8-access walk for F+R (L1).
func (c *Channel) EncodeCostOne() int {
	s := c.Setup
	s.Hier.Warm(s.SenderLine, core.ReqSender)
	c.Encode(1) // warm-up epoch brings the eviction set into the caches
	return c.Encode(1)
}

// SenderProgram returns a scheduler program that transmits message with the
// baseline channel's sender operation, holding each bit for Ts cycles.
func (c *Channel) SenderProgram(message []byte, repeat bool) func(*sched.Env) {
	s := c.Setup
	return func(e *sched.Env) {
		for {
			for _, bit := range message {
				deadline := e.Now() + s.Cfg.Ts
				for e.Now() < deadline {
					switch c.Kind {
					case FlushReloadMem:
						e.Flush(s.SenderLine)
						if bit != 0 {
							e.Access(s.SenderLine)
						}
						e.Busy(27)
					case FlushReloadL1:
						for _, ev := range c.evictors {
							e.Access(ev)
						}
						if bit != 0 {
							e.Access(s.SenderLine)
						}
						e.Busy(27)
					}
				}
			}
			if !repeat {
				return
			}
		}
	}
}

// ReceiverProgram returns the Flush+Reload receiver: it reloads and
// times the shared line every Tr.
func (c *Channel) ReceiverProgram(out *[]core.Observation, maxSamples int) func(*sched.Env) {
	s := c.Setup
	return func(e *sched.Env) {
		s.Chaser.WarmUp()
		var tLast uint64
		for maxSamples <= 0 || len(*out) < maxSamples {
			e.BusyUntil(tLast + s.Cfg.Tr)
			tLast = e.Now()
			m := e.Measure(s.Chaser, s.ReceiverLines[0])
			*out = append(*out, core.Observation{
				Latency: m.Observed, Wall: e.Now(), TrueL1Hit: m.L1Hit,
			})
		}
		e.StopAll()
	}
}

// Run executes the baseline channel like core.Setup.Run does for the LRU
// channels, the config's NoiseThreads included.
func (c *Channel) Run(message []byte, repeat bool, maxSamples int, wallLimit uint64) *core.Trace {
	s := c.Setup
	m := s.NewMachine()
	var obs []core.Observation
	s.WarmSender()
	m.AddThread("sender", core.ReqSender, c.SenderProgram(message, repeat))
	m.AddThread("receiver", core.ReqReceiver, c.ReceiverProgram(&obs, maxSamples))
	for i := 0; i < s.Cfg.NoiseThreads; i++ {
		m.AddThread("noise", core.ReqOther, s.NoiseProgram())
	}
	m.Run(wallLimit)
	tr := &core.Trace{Observations: obs, Elapsed: m.Now()}
	tr.Threshold = stats.OtsuThreshold(tr.Latencies())
	return tr
}
