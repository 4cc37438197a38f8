package core

import (
	"repro/internal/stats"
)

// Trace is the outcome of a channel run: the receiver's raw observation
// sequence plus derived quantities.
type Trace struct {
	Observations []Observation
	// Threshold is the hit/miss latency split chosen by Otsu's method
	// over the whole trace (the red dotted line of Figure 5).
	Threshold float64
	// Elapsed is the simulated wall time of the run in cycles.
	Elapsed uint64
	// BitsSent counts complete bit periods the sender transmitted.
	BitsSent int

	// lat caches Latencies; a Trace is immutable once built, so the
	// projection is computed at most once.
	lat []float64
}

// Latencies returns the observed latencies as a plain slice. The slice
// is cached on the trace; callers must not mutate it.
func (t *Trace) Latencies() []float64 {
	if t.lat == nil && len(t.Observations) > 0 {
		t.lat = make([]float64, len(t.Observations))
		for i, o := range t.Observations {
			t.lat[i] = o.Latency
		}
	}
	return t.lat
}

// ClassifyBit is the one threshold classifier every decode path shares:
// a latency at or below the threshold is a hit, and whether a hit
// decodes to 1 is the protocol polarity (Algorithm 1: fast = 1;
// Algorithm 2: slow = 1).
func ClassifyBit(latency, threshold float64, hitMeansOne bool) byte {
	if (latency <= threshold) == hitMeansOne {
		return 1
	}
	return 0
}

// BitsAt classifies each observation against an explicit threshold.
func (t *Trace) BitsAt(threshold float64, hitMeansOne bool) []byte {
	bits := make([]byte, len(t.Observations))
	for i, o := range t.Observations {
		bits[i] = ClassifyBit(o.Latency, threshold, hitMeansOne)
	}
	return bits
}

// RawBits classifies each observation into a received bit using the trace
// threshold and the protocol polarity.
func (t *Trace) RawBits(hitMeansOne bool) []byte {
	return t.BitsAt(t.Threshold, hitMeansOne)
}

// FractionOnesAt returns the fraction of observations that decode to 1
// against an explicit threshold, without materializing the bit slice.
func (t *Trace) FractionOnesAt(threshold float64, hitMeansOne bool) float64 {
	if len(t.Observations) == 0 {
		return 0
	}
	ones := 0
	for _, o := range t.Observations {
		ones += int(ClassifyBit(o.Latency, threshold, hitMeansOne))
	}
	return float64(ones) / float64(len(t.Observations))
}

// FractionOnes returns the fraction of decoded 1s — the metric of the
// time-sliced experiments (Figures 6, 8, 15).
func (t *Trace) FractionOnes(hitMeansOne bool) float64 {
	return t.FractionOnesAt(t.Threshold, hitMeansOne)
}

// Run executes the channel: the sender transmits message (repeating if
// repeat is set) while the receiver samples, until either maxSamples
// receiver observations have been collected or wallLimit cycles elapse.
func (s *Setup) Run(message []byte, repeat bool, maxSamples int, wallLimit uint64) *Trace {
	m := s.NewMachine()
	obs := make([]Observation, 0, s.sampleCapacity(maxSamples, wallLimit))
	s.WarmSender()
	m.AddThread("sender", ReqSender, s.SenderProgram(message, repeat))
	m.AddThread("receiver", ReqReceiver, s.ReceiverProgram(&obs, maxSamples))
	for i := 0; i < s.Cfg.NoiseThreads; i++ {
		m.AddThread("noise", ReqOther, s.NoiseProgram())
	}
	m.Run(wallLimit)

	tr := &Trace{Observations: obs, Elapsed: m.Now()}
	tr.Threshold = stats.OtsuThreshold(tr.Latencies())
	if s.Cfg.Ts > 0 {
		tr.BitsSent = int(tr.Elapsed / s.Cfg.Ts)
		if !repeat && tr.BitsSent > len(message) {
			tr.BitsSent = len(message)
		}
	}
	return tr
}

// ErrorRateResult is one point of Figure 4.
type ErrorRateResult struct {
	ErrorRate float64 // best-alignment edit distance per sent bit
	// RateBps is the effective transmission rate in bits/second at the
	// profile's clock frequency.
	RateBps float64
	Samples int
}

// MeasureErrorRate reproduces the Section V methodology: the sender
// transmits a random message of msgBits repeatedly at least repeats times;
// the receiver's samples are majority-decoded per bit period and the
// Wagner–Fischer edit distance to the sent string, minimized over
// alignments, gives the error rate.
func (s *Setup) MeasureErrorRate(msgBits, repeats int) ErrorRateResult {
	message := s.RNG.Split().Bits(msgBits)
	wall := s.Cfg.Ts * uint64(msgBits) * uint64(repeats+1)
	tr := s.Run(message, true, 0, wall)

	raw := tr.RawBits(s.HitMeansOne())
	// Each transmitted bit spans about Ts/Tr receiver samples; collapse
	// runs by majority vote, then align.
	perBit := float64(s.Cfg.Ts) / float64(s.Cfg.Tr)
	if len(tr.Observations) > 1 {
		// Calibrate with the actually achieved sampling period, which
		// exceeds Tr when the receiver's work per sample is longer.
		span := tr.Observations[len(tr.Observations)-1].Wall - tr.Observations[0].Wall
		achieved := float64(span) / float64(len(tr.Observations)-1)
		if achieved > 0 {
			perBit = float64(s.Cfg.Ts) / achieved
		}
	}
	if perBit < 1 {
		perBit = 1
	}
	decoded := stats.RunLengthDecode(raw, perBit)

	rate := stats.BestAlignmentErrorRate(message, decoded, 0)
	prof := s.Hier.Profile()
	return ErrorRateResult{
		ErrorRate: rate,
		RateBps:   prof.BitsPerSecond(float64(s.Cfg.Ts)),
		Samples:   len(tr.Observations),
	}
}

// sampleCapacity estimates how many observations a run will collect so
// the buffer can be allocated once up front: maxSamples when bounded,
// otherwise the wall limit divided by the sampling period Tr (the
// receiver takes at most one sample per Tr), capped so absurd wall
// limits (1<<40 is common) do not translate into absurd allocations.
func (s *Setup) sampleCapacity(maxSamples int, wallLimit uint64) int {
	const capLimit = 1 << 16
	if maxSamples > 0 {
		if maxSamples > capLimit {
			return capLimit
		}
		return maxSamples
	}
	if s.Cfg.Tr == 0 {
		return 64
	}
	est := wallLimit / s.Cfg.Tr
	if est > capLimit {
		return capLimit
	}
	if est < 16 {
		return 16
	}
	return int(est)
}

// MeasureFractionOnes runs the time-sliced experiment of Figure 6/8: the
// sender constantly transmits the single bit `bit`; the receiver takes
// measurements samples; the fraction of decoded 1s is returned. A fixed
// latency threshold is derived from the profile (midway between L1 and L2
// latency through the chase), because in the time-sliced setting a run may
// be all-hits or all-misses and Otsu would split noise.
func (s *Setup) MeasureFractionOnes(bit byte, measurements int) float64 {
	wall := s.Cfg.Tr*uint64(measurements+2) + 10_000_000
	tr := s.Run([]byte{bit}, true, measurements, wall)
	return tr.FractionOnesAt(s.FixedThreshold(), s.HitMeansOne())
}

// FixedThreshold returns the profile-derived hit/miss latency split for a
// full pointer-chase probe: chase floor plus the midpoint of the L1 and L2
// latencies plus measurement overhead.
func (s *Setup) FixedThreshold() float64 {
	prof := s.Hier.Profile()
	chain := len(s.Chaser.Elements())
	base := float64(chain*prof.L1Latency + prof.MeasureOverhead)
	// The outer float64() stops a fused multiply-add (see rng.Float64).
	return base + float64(float64(prof.L1Latency+prof.L2Latency)/2)
}

// EncodeCost returns the sender's encoding latency in cycles for one bit —
// the LRU-channel column of Table V: the address-computation overhead plus
// a single L1 hit (the victim line is warm).
func (s *Setup) EncodeCost() int {
	s.WarmSender()
	res := s.Hier.Load(s.SenderLine, ReqSender)
	const addressComputation = 27 // cycles of gadget arithmetic (Table V)
	return addressComputation + res.Latency
}
