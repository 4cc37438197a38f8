package core

import (
	"repro/internal/sched"
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

// run warms every lane's sender line, then runs sender against the
// receiver (and the config's NoiseThreads) until either maxSweeps
// receiver sweeps have been collected or wallLimit cycles elapse. It
// returns the observations, one per lane per sweep, and the elapsed
// wall time.
func (s *Setup) run(sender func(*sched.Env), maxSweeps int, wallLimit uint64) ([]Observation, uint64) {
	m := s.NewMachine()
	obs := make([]Observation, 0, s.sampleCapacity(maxSweeps, wallLimit)*len(s.lanes))
	s.WarmSender()
	m.AddThread("sender", ReqSender, sender)
	m.AddThread("receiver", ReqReceiver, s.receiverProgram(&obs, maxSweeps))
	for i := 0; i < s.Cfg.NoiseThreads; i++ {
		m.AddThread("noise", ReqOther, s.NoiseProgram())
	}
	m.Run(wallLimit)
	return obs, m.Now()
}

// Run executes the one-lane channel: the sender transmits message
// (repeating if repeat is set) while the receiver samples, until either
// maxSamples receiver observations have been collected or wallLimit
// cycles elapse.
func (s *Setup) Run(message []byte, repeat bool, maxSamples int, wallLimit uint64) *Trace {
	obs, elapsed := s.run(s.SenderProgram(message, repeat), maxSamples, wallLimit)
	tr := &Trace{Observations: obs, Elapsed: elapsed}
	tr.Threshold = stats.OtsuThreshold(tr.Latencies())
	if s.Cfg.Ts > 0 {
		tr.BitsSent = int(tr.Elapsed / s.Cfg.Ts)
		if !repeat && tr.BitsSent > len(message) {
			tr.BitsSent = len(message)
		}
	}
	return tr
}

// RunWords transmits words through all lanes (each word = Lanes() bits,
// one per lane), holding each word for Ts cycles from the moment the
// previous one ended, and collects receiver sweeps. Observation i belongs
// to lane i mod Lanes().
func (s *Setup) RunWords(words [][]byte, repeat bool, maxSweeps int, wallLimit uint64) []Observation {
	ts := s.Cfg.Ts
	obs, _ := s.run(func(e *sched.Env) {
		for {
			for _, word := range words {
				s.holdWord(e, word, e.Now()+ts)
			}
			if !repeat {
				return
			}
		}
	}, maxSweeps, wallLimit)
	return obs
}

// RunSchedule transmits words on an absolute symbol schedule, word j held
// during wall ∈ [j·Ts, (j+1)·Ts), and collects receiver sweeps until
// wallLimit. RunWords' relative deadlines (now + Ts) accumulate each
// word's encode-loop overshoot; the absolute schedule never drifts, so
// after hundreds of symbols word j still sits exactly in its slot.
// Streaming transports that index symbols by wall time
// (internal/transport) depend on this.
func (s *Setup) RunSchedule(words [][]byte, wallLimit uint64) []Observation {
	ts := s.Cfg.Ts
	obs, _ := s.run(func(e *sched.Env) {
		for j, word := range words {
			s.holdWord(e, word, uint64(j+1)*ts)
		}
	}, 0, wallLimit)
	return obs
}

// MeasureWordAccuracy sends each word for Ts cycles and reports the
// fraction of (sweep, lane) decodes that match the word active at the
// sweep's wall time — a throughput-oriented quality metric for the
// multi-lane channel.
func (s *Setup) MeasureWordAccuracy(words [][]byte, samples int) float64 {
	obs := s.RunWords(words, true, samples, s.Cfg.Ts*uint64(len(words)*8+4))
	th := s.Chaser.Threshold()
	hitIsOne := s.HitMeansOne()
	ok, total := 0, 0
	for i, o := range obs {
		word := words[(o.Wall/s.Cfg.Ts)%uint64(len(words))]
		lane := i % len(s.lanes)
		if lane >= len(word) {
			continue
		}
		total++
		if ClassifyBit(o.Latency, th, hitIsOne) == word[lane] {
			ok++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
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

// sampleCapacity estimates how many sweeps a run will collect so the
// buffer can be allocated once up front: maxSweeps when bounded,
// otherwise the wall limit divided by the sampling period Tr (the
// receiver takes at most one sweep per Tr), capped so absurd wall
// limits (1<<40 is common) do not translate into absurd allocations.
func (s *Setup) sampleCapacity(maxSweeps int, wallLimit uint64) int {
	const capLimit = 1 << 16
	if maxSweeps > 0 {
		if maxSweeps > capLimit {
			return capLimit
		}
		return maxSweeps
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
// measurements samples; the fraction of decoded 1s is returned. The
// chaser's fixed, profile-derived threshold splits hits from misses,
// because in the time-sliced setting a run may be all-hits or all-misses
// and Otsu would split noise.
func (s *Setup) MeasureFractionOnes(bit byte, measurements int) float64 {
	wall := s.Cfg.Tr*uint64(measurements+2) + 10_000_000
	tr := s.Run([]byte{bit}, true, measurements, wall)
	return tr.FractionOnesAt(s.Chaser.Threshold(), s.HitMeansOne())
}

// EncodeCost returns the sender's steady-state cost in cycles of encoding
// a 1 — Table V: the line is warm and one warm-up encode has brought
// F+R (L1)'s eviction set into the caches, so the cost is the
// address-computation overhead plus the per-bit work: a single L1 hit for
// the LRU channels, the flush and the reload for F+R (mem), the 8-access
// walk and the reload for F+R (L1).
func (s *Setup) EncodeCost() int {
	s.WarmSender()
	s.encode(1)
	return s.encode(1)
}

// encode performs the sender's operation for one bit directly against the
// hierarchy, outside any scheduler, and returns its cost in cycles.
func (s *Setup) encode(bit byte) int {
	cost := addressComputation
	if s.Cfg.Algorithm == FlushReloadMem {
		s.Hier.Flush(s.SenderLine.PhysLine)
		cost += sched.FlushCost
	}
	for _, ev := range s.evictors {
		cost += s.Hier.Load(ev, ReqSender).Latency
	}
	if bit != 0 {
		cost += s.Hier.Load(s.SenderLine, ReqSender).Latency
	}
	return cost
}
