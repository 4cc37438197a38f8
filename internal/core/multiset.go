package core

// Section IV notes that "in practice, several sets can be used in parallel
// to increase the transmission rate or to reduce the noise". This file
// implements that extension: a multi-set channel transmitting one bit per
// target set per symbol period, with the receiver sweeping every set each
// sampling period. The Spectre attack of Section VIII is itself a 63-way
// parallel use of the channel; here the parallelism carries payload bits.

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sched"
)

// MultiSetup is a parallel LRU channel over several target sets.
type MultiSetup struct {
	*Setup
	// TargetSets lists the L1 sets carrying one bit each.
	TargetSets []int
	// senderLines[i] is the line the sender touches to put a 1 on set i;
	// receiverLines[i] are the receiver's lines 0..K-1 for set i.
	senderLines   []mem.Addr
	receiverLines [][]mem.Addr
}

// NewMultiSetup builds a parallel channel over the given target sets (they
// must avoid the chaser's reserved set). The embedded Setup provides the
// hierarchy, clocks and the first target set's machinery.
func NewMultiSetup(cfg Config, targetSets []int) *MultiSetup {
	if len(targetSets) == 0 {
		panic("core: NewMultiSetup needs at least one target set")
	}
	cfg = cfg.withDefaults()
	cfg.TargetSet = targetSets[0]
	s := NewSetup(cfg)
	m := &MultiSetup{Setup: s, TargetSets: targetSets}

	prof := cfg.Profile
	for i, set := range targetSets {
		if set == cfg.reservedSet() {
			panic(fmt.Sprintf("core: target set %d collides with the reserved chase set", set))
		}
		if i == 0 {
			m.senderLines = append(m.senderLines, s.SenderLine)
			m.receiverLines = append(m.receiverLines, s.ReceiverLines)
			continue
		}
		switch cfg.Algorithm {
		case Alg1SharedMemory:
			if cfg.SameAddressSpace {
				vs := s.ReceiverAS.LinesForSet(prof.L1Sets, set, prof.L1Ways+1)
				lines := resolveAll(s.ReceiverAS, vs)
				m.receiverLines = append(m.receiverLines, lines)
				m.senderLines = append(m.senderLines, lines[0])
			} else {
				sv, rv := mem.SharedLinesForSet(s.Sys, s.SenderAS, s.ReceiverAS, prof.L1Sets, set, prof.L1Ways+1)
				m.receiverLines = append(m.receiverLines, resolveAll(s.ReceiverAS, rv))
				m.senderLines = append(m.senderLines, s.SenderAS.Resolve(sv[0]))
			}
		case Alg2NoSharedMemory:
			rv := s.ReceiverAS.LinesForSet(prof.L1Sets, set, prof.L1Ways)
			m.receiverLines = append(m.receiverLines, resolveAll(s.ReceiverAS, rv))
			sv := s.SenderAS.LinesForSet(prof.L1Sets, set, 1)
			m.senderLines = append(m.senderLines, s.SenderAS.Resolve(sv[0]))
		}
	}
	return m
}

// Lanes returns the number of parallel bit lanes.
func (m *MultiSetup) Lanes() int { return len(m.TargetSets) }

// MultiObservation is one receiver sweep: a latency per lane.
type MultiObservation struct {
	Latencies []float64
	Wall      uint64
}

// holdWord runs the sender's encode loop for one word until deadline:
// every iteration touches the sender line of each 1-lane (cache hits
// that push the lanes' replacement state) and burns the per-iteration
// address-computation budget.
func (m *MultiSetup) holdWord(e *sched.Env, word []byte, deadline uint64) {
	period := m.Cfg.senderPeriod()
	for e.Now() < deadline {
		issued := false
		for lane, bit := range word {
			if lane >= len(m.senderLines) {
				break
			}
			if bit != 0 {
				e.Access(m.senderLines[lane])
				issued = true
			}
		}
		if !issued {
			e.Busy(period)
		} else {
			e.Busy(period / 2)
		}
	}
}

// senderProgram transmits words (each word = Lanes() bits, one per set),
// holding each word for Ts cycles.
func (m *MultiSetup) senderProgram(words [][]byte, repeat bool) func(*sched.Env) {
	ts := m.Cfg.Ts
	return func(e *sched.Env) {
		for {
			for _, word := range words {
				m.holdWord(e, word, e.Now()+ts)
			}
			if !repeat {
				return
			}
		}
	}
}

// receiverProgram sweeps every lane each sampling period.
func (m *MultiSetup) receiverProgram(out *[]MultiObservation, maxSamples int) func(*sched.Env) {
	d := m.Cfg.D
	tr := m.Cfg.Tr
	return func(e *sched.Env) {
		m.Chaser.WarmUp()
		var tLast uint64
		for maxSamples <= 0 || len(*out) < maxSamples {
			for lane := range m.receiverLines {
				lines := m.receiverLines[lane]
				dd := d
				if dd > len(lines) {
					dd = len(lines)
				}
				for i := 0; i < dd; i++ {
					e.Access(lines[i])
				}
			}
			e.BusyUntil(tLast + tr)
			tLast = e.Now()
			obs := MultiObservation{Latencies: make([]float64, len(m.receiverLines))}
			for lane := range m.receiverLines {
				lines := m.receiverLines[lane]
				dd := d
				if dd > len(lines) {
					dd = len(lines)
				}
				for i := dd; i < len(lines); i++ {
					e.Access(lines[i])
				}
				meas := e.Measure(m.Chaser, lines[0])
				obs.Latencies[lane] = meas.Observed
			}
			obs.Wall = e.Now()
			*out = append(*out, obs)
			if len(*out) >= maxSamples && maxSamples > 0 {
				break
			}
		}
		e.StopAll()
	}
}

// Run transmits words through all lanes and collects receiver sweeps.
func (m *MultiSetup) Run(words [][]byte, repeat bool, maxSamples int, wallLimit uint64) []MultiObservation {
	mach := m.NewMachine()
	var obs []MultiObservation
	for _, l := range m.senderLines {
		m.Hier.Warm(l, ReqSender)
	}
	mach.AddThread("sender", ReqSender, m.senderProgram(words, repeat))
	mach.AddThread("receiver", ReqReceiver, m.receiverProgram(&obs, maxSamples))
	mach.Run(wallLimit)
	return obs
}

// scheduleSenderProgram transmits word j during wall ∈ [j·Ts, (j+1)·Ts)
// on an absolute symbol schedule, then returns. Unlike senderProgram,
// whose per-word deadlines are relative (deadline = now + Ts, so each
// word's encode-loop overshoot accumulates), the absolute schedule
// never drifts: after hundreds of symbols, word j still sits exactly in
// its slot. Streaming transports that index symbols by wall time
// (internal/transport) depend on this.
func (m *MultiSetup) scheduleSenderProgram(words [][]byte) func(*sched.Env) {
	ts := m.Cfg.Ts
	return func(e *sched.Env) {
		for j, word := range words {
			m.holdWord(e, word, uint64(j+1)*ts)
		}
	}
}

// RunSchedule transmits words on the absolute symbol schedule (word j
// held during wall ∈ [j·Ts, (j+1)·Ts)) and collects receiver sweeps
// until wallLimit. Unlike Run it also starts the config's NoiseThreads
// background processes, so noisy operating points can be measured on
// the parallel channel too.
func (m *MultiSetup) RunSchedule(words [][]byte, wallLimit uint64) []MultiObservation {
	mach := m.NewMachine()
	var obs []MultiObservation
	for _, l := range m.senderLines {
		m.Hier.Warm(l, ReqSender)
	}
	mach.AddThread("sender", ReqSender, m.scheduleSenderProgram(words))
	mach.AddThread("receiver", ReqReceiver, m.receiverProgram(&obs, 0))
	for i := 0; i < m.Cfg.NoiseThreads; i++ {
		mach.AddThread("noise", ReqOther, m.NoiseProgram())
	}
	mach.Run(wallLimit)
	return obs
}

// DecodeSweeps turns raw sweeps into one bit per lane per sweep using the
// fixed profile threshold and the protocol polarity.
func (m *MultiSetup) DecodeSweeps(obs []MultiObservation) [][]byte {
	th := m.FixedThreshold()
	hitIsOne := m.HitMeansOne()
	out := make([][]byte, len(obs))
	for i, o := range obs {
		bits := make([]byte, len(o.Latencies))
		for lane, lat := range o.Latencies {
			bits[lane] = ClassifyBit(lat, th, hitIsOne)
		}
		out[i] = bits
	}
	return out
}

// MeasureWordAccuracy sends each word for Ts cycles and reports the
// fraction of (sweep, lane) decodes that match the word active at the
// sweep's wall time — a throughput-oriented quality metric for the
// parallel channel.
func (m *MultiSetup) MeasureWordAccuracy(words [][]byte, samples int) float64 {
	obs := m.Run(words, true, samples, m.Cfg.Ts*uint64(len(words)*8+4))
	decoded := m.DecodeSweeps(obs)
	if len(decoded) == 0 {
		return 0
	}
	ok, total := 0, 0
	for i, o := range obs {
		word := words[(o.Wall/m.Cfg.Ts)%uint64(len(words))]
		for lane, bit := range decoded[i] {
			if lane >= len(word) {
				break
			}
			total++
			if bit == word[lane] {
				ok++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}
