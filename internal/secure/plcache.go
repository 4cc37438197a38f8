// Package secure evaluates the paper's Section IX: how existing secure
// cache designs fare against the LRU channel, and the fixes that close it.
//
// Three designs are implemented and attacked:
//
//   - The Partition-Locked (PL) cache (Wang & Lee), in its original form —
//     which protects line contents but leaks through LRU state updates on
//     locked lines (Figure 11 top) — and with the paper's fix of locking
//     the replacement state too (Figure 10 blue boxes, Figure 11 bottom).
//
//   - A random-fill-style cache, which decouples misses from fills but
//     still updates replacement state on hits, so the hit-driven LRU
//     channel survives (Section IX-B "Randomization").
//
//   - A DAWG-style way partition that splits both the ways and the
//     replacement state between protection domains, which closes the
//     channel.
package secure

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// PLExperimentResult summarizes a Figure 11 run: the receiver's trace and
// how strongly it correlates with the sender's bits.
type PLExperimentResult struct {
	Trace *core.Trace
	// MeanZero/MeanOne are the receiver's mean observed latencies during
	// sender-0 and sender-1 periods.
	MeanZero, MeanOne float64
	// Separation is |MeanOne-MeanZero| in cycles: the leak's amplitude.
	Separation float64
	// AlwaysHit reports that every observation decoded as an L1 hit —
	// the fixed design's signature in Figure 11 (bottom).
	AlwaysHit bool
}

// RunPLCacheExperiment reproduces Figure 11: Algorithm 2 against a PL
// cache, with the sender's line locked. fixed selects the paper's repaired
// design (replacement state locked too). The sender alternates 0 and 1.
func RunPLCacheExperiment(fixed bool, samples int, seed uint64) PLExperimentResult {
	s := core.NewSetup(core.Config{
		Profile:   uarch.SandyBridge(),
		Algorithm: core.Alg2NoSharedMemory,
		Mode:      sched.SMT,
		Tr:        600, Ts: 6000, D: 1,
		PartitionLocked:      true,
		LockReplacementState: fixed,
		Seed:                 seed,
	})
	// The sender locks its line N before the channel runs (Section IX-B:
	// "line N ... is first locked by the sender").
	s.Hier.LoadOp(s.SenderLine, core.ReqSender, cache.OpLock)
	s.Hier.LoadOp(s.SenderLine, core.ReqSender, cache.OpLock) // ensure locked in L1

	tr := s.Run([]byte{0, 1}, true, samples, 1<<40)
	res := PLExperimentResult{Trace: tr}

	var sum0, sum1 float64
	var n0, n1 int
	for _, o := range tr.Observations {
		if (o.Wall/s.Cfg.Ts)%2 == 0 {
			sum0 += o.Latency
			n0++
		} else {
			sum1 += o.Latency
			n1++
		}
	}
	if n0 > 0 {
		res.MeanZero = sum0 / float64(n0)
	}
	if n1 > 0 {
		res.MeanOne = sum1 / float64(n1)
	}
	res.Separation = res.MeanOne - res.MeanZero
	if res.Separation < 0 {
		res.Separation = -res.Separation
	}

	th := s.Chaser.Threshold()
	res.AlwaysHit = true
	for _, o := range tr.Observations {
		if o.Latency > th {
			res.AlwaysHit = false
			break
		}
	}
	return res
}

// PLLeakDetectable applies a simple detector to the experiment: the leak is
// considered present when the 0-period and 1-period latency means are
// separated by more than a quarter of the L1/L2 latency gap.
func PLLeakDetectable(res PLExperimentResult) bool {
	gap := float64(uarch.SandyBridge().L2Latency-uarch.SandyBridge().L1Latency) / 4
	return res.Separation > gap
}
