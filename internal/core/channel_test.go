package core

import (
	"testing"

	"repro/internal/replacement"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// Every channel has a distinct protocol name and the column name Tables
// V-VII print; an unknown value still renders as something.
func TestAlgorithmStringAndColumn(t *testing.T) {
	want := map[Algorithm]string{
		Alg1SharedMemory: "L1 LRU Alg.1", Alg2NoSharedMemory: "L1 LRU Alg.2",
		FlushReloadMem: "F+R (mem)", FlushReloadL1: "F+R (L1)",
	}
	seen := map[string]bool{}
	for a, col := range want {
		if got := a.Column(); got != col {
			t.Errorf("%d.Column() = %q, want %q", int(a), got, col)
		}
		if s := a.String(); s == "" || seen[s] {
			t.Errorf("%d.String() = %q: empty or repeated", int(a), s)
		} else {
			seen[s] = true
		}
	}
	if Algorithm(9).String() != "Algorithm(9)" || Algorithm(9).Column() != "Algorithm(9)" {
		t.Errorf("unknown algorithm renders as %q / %q", Algorithm(9).String(), Algorithm(9).Column())
	}
}

func TestNewSetupUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an unknown algorithm")
		}
	}()
	NewSetup(Config{Algorithm: Algorithm(42)})
}

func TestDefaultsFilled(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Profile.Name == "" || cfg.Algorithm != Alg1SharedMemory {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.D != 8 { // Algorithm 1 default d = ways
		t.Errorf("Alg1 default d = %d", cfg.D)
	}
	cfg2 := Config{Algorithm: Alg2NoSharedMemory}.withDefaults()
	if cfg2.D != 4 { // the paper's Figure 5 setting
		t.Errorf("Alg2 default d = %d", cfg2.D)
	}
	if cfg.L1Policy != replacement.TreePLRU {
		t.Errorf("default policy = %v", cfg.L1Policy)
	}
}

func TestSetupAlg1SharesPhysicalLine(t *testing.T) {
	s := NewSetup(Config{Algorithm: Alg1SharedMemory, Seed: 1})
	if s.SenderLine.PhysLine != s.ReceiverLines[0].PhysLine {
		t.Error("Algorithm 1 sender and receiver line 0 are different physical lines")
	}
	if s.SenderLine.VirtLine == s.ReceiverLines[0].VirtLine {
		t.Error("distinct address spaces should map line 0 at distinct virtual lines")
	}
	if len(s.ReceiverLines) != 9 { // N+1 for 8 ways
		t.Errorf("Algorithm 1 receiver lines = %d, want 9", len(s.ReceiverLines))
	}
}

func TestSetupAlg2DisjointLines(t *testing.T) {
	s := NewSetup(Config{Algorithm: Alg2NoSharedMemory, Seed: 1})
	if len(s.ReceiverLines) != 8 { // N for 8 ways
		t.Errorf("Algorithm 2 receiver lines = %d, want 8", len(s.ReceiverLines))
	}
	for i, l := range s.ReceiverLines {
		if l.PhysLine == s.SenderLine.PhysLine {
			t.Errorf("receiver line %d aliases the sender's private line", i)
		}
	}
}

func TestSetupLinesMapToTargetSet(t *testing.T) {
	for _, alg := range []Algorithm{Alg1SharedMemory, Alg2NoSharedMemory} {
		s := NewSetup(Config{Algorithm: alg, TargetSet: 11, Seed: 2})
		for i, l := range s.ReceiverLines {
			if got := s.Hier.L1().SetIndex(l.PhysLine); got != 11 {
				t.Errorf("%v receiver line %d in set %d", alg, i, got)
			}
		}
		if got := s.Hier.L1().SetIndex(s.SenderLine.PhysLine); got != 11 {
			t.Errorf("%v sender line in set %d", alg, got)
		}
	}
}

func TestSameAddressSpaceSetup(t *testing.T) {
	s := NewSetup(Config{Algorithm: Alg1SharedMemory, SameAddressSpace: true, Seed: 3})
	if s.SenderAS != s.ReceiverAS {
		t.Error("SameAddressSpace did not share the address space")
	}
	if s.SenderLine != s.ReceiverLines[0] {
		t.Error("sender should use the receiver's own line 0 in-process")
	}
}

func TestHitMeansOnePolarity(t *testing.T) {
	if !NewSetup(Config{Algorithm: Alg1SharedMemory, Seed: 4}).HitMeansOne() {
		t.Error("Algorithm 1: hit should mean 1")
	}
	if NewSetup(Config{Algorithm: Alg2NoSharedMemory, Seed: 4}).HitMeansOne() {
		t.Error("Algorithm 2: miss should mean 1")
	}
}

// The headline behaviour (Figure 5 top): under SMT with Algorithm 1, an
// alternating 0/1 message produces clearly bimodal receiver latencies with
// the right polarity and near-perfect ground-truth agreement.
func TestAlg1SMTTransfersAlternatingBits(t *testing.T) {
	s := NewSetup(Config{
		Algorithm: Alg1SharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, Seed: 42,
	})
	tr := s.Run([]byte{0, 1}, true, 400, 1<<40)
	if len(tr.Observations) != 400 {
		t.Fatalf("got %d observations", len(tr.Observations))
	}
	bits := tr.RawBits(true)
	ones := 0
	for _, b := range bits {
		ones += int(b)
	}
	// Half the time the sender sends 1: expect roughly balanced bits.
	if ones < 100 || ones > 300 {
		t.Errorf("decoded %d ones out of 400; channel not transferring", ones)
	}
	// Decoded bits must flip in runs of ~Ts/Tr = 10, not at random.
	transitions := 0
	for i := 1; i < len(bits); i++ {
		if bits[i] != bits[i-1] {
			transitions++
		}
	}
	if transitions > 120 {
		t.Errorf("%d transitions in 400 samples; expected runs of ~10", transitions)
	}
}

func TestAlg1ErrorRateLowAtPaperSettings(t *testing.T) {
	s := NewSetup(Config{
		Algorithm: Alg1SharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, D: 8, Seed: 7,
	})
	res := s.MeasureErrorRate(128, 5)
	if res.ErrorRate > 0.1 {
		t.Errorf("Algorithm 1 error rate %v at Tr=600/Ts=6000, want < 10%%", res.ErrorRate)
	}
	if res.RateBps < 400e3 {
		t.Errorf("transmission rate %v bps, want hundreds of Kbps", res.RateBps)
	}
}

func TestAlg2ErrorRateOddDBeatsEvenD(t *testing.T) {
	run := func(d int) float64 {
		s := NewSetup(Config{
			Algorithm: Alg2NoSharedMemory, Mode: sched.SMT,
			Tr: 600, Ts: 6000, D: d, Seed: 7,
		})
		return s.MeasureErrorRate(128, 4).ErrorRate
	}
	odd, even := run(1), run(4)
	// Section V-A: even d makes the Tree-PLRU point into the wrong
	// subtree and the receiver fails to evict line 0.
	if odd > 0.15 {
		t.Errorf("Algorithm 2 with d=1: error %v, want < 15%%", odd)
	}
	if even < odd {
		t.Errorf("even d (%v) should be worse than odd d (%v) on Tree-PLRU", even, odd)
	}
}

// The defining novelty vs Flush+Reload: the sender encodes entirely with
// cache HITS. Verify the sender's L1 miss count stays at its warm-up level
// while transmitting ones.
func TestSenderEncodesWithHitsOnly(t *testing.T) {
	s := NewSetup(Config{
		Algorithm: Alg1SharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, Seed: 9,
	})
	tr := s.Run([]byte{1}, true, 100, 1<<40)
	if len(tr.Observations) == 0 {
		t.Fatal("no observations")
	}
	st := s.Hier.L1().RequestorStats(ReqSender)
	if st.Accesses < 100 {
		t.Fatalf("sender made only %d accesses", st.Accesses)
	}
	missRate := float64(st.Misses) / float64(st.Accesses)
	if missRate > 0.02 {
		t.Errorf("sender L1 miss rate %v while sending 1s; the LRU channel needs hits only", missRate)
	}
}

func TestTrueL1HitGroundTruthMatchesDecode(t *testing.T) {
	s := NewSetup(Config{
		Algorithm: Alg1SharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, Seed: 10,
	})
	tr := s.Run([]byte{0, 1}, true, 300, 1<<40)
	agree := 0
	for _, o := range tr.Observations {
		decodedHit := o.Latency <= tr.Threshold
		if decodedHit == o.TrueL1Hit {
			agree++
		}
	}
	if rate := float64(agree) / float64(len(tr.Observations)); rate < 0.95 {
		t.Errorf("threshold decode agrees with ground truth only %v of the time", rate)
	}
}

func TestEncodeCostMatchesTableV(t *testing.T) {
	// Table V: L1 LRU encoding 31 cycles on E5-2690 (27 + one L1 hit).
	s := NewSetup(Config{Algorithm: Alg1SharedMemory, Seed: 11})
	got := s.EncodeCost()
	if got < 28 || got > 40 {
		t.Errorf("encode cost = %d cycles, want ~31", got)
	}
}

func TestTimeSlicedAlg1Distinguishes0And1(t *testing.T) {
	frac := func(bit byte) float64 {
		s := NewSetup(Config{
			Algorithm: Alg1SharedMemory, Mode: sched.TimeSliced,
			Tr: 10_000_000, Ts: 1 << 62, D: 8, Seed: 13,
		})
		return s.MeasureFractionOnes(bit, 60)
	}
	f0, f1 := frac(0), frac(1)
	if f1-f0 < 0.2 {
		t.Errorf("time-sliced fractions: sending0=%v sending1=%v; want clear separation", f0, f1)
	}
	if f0 > 0.3 {
		t.Errorf("sending 0 yields %v ones, want low", f0)
	}
}

func TestFractionOnesRangeAndDeterminism(t *testing.T) {
	s1 := NewSetup(Config{Algorithm: Alg1SharedMemory, Mode: sched.TimeSliced, Tr: 2_000_000, Ts: 1 << 62, Seed: 14})
	a := s1.MeasureFractionOnes(1, 30)
	s2 := NewSetup(Config{Algorithm: Alg1SharedMemory, Mode: sched.TimeSliced, Tr: 2_000_000, Ts: 1 << 62, Seed: 14})
	b := s2.MeasureFractionOnes(1, 30)
	if a != b {
		t.Errorf("same seed, different fractions: %v vs %v", a, b)
	}
	if a < 0 || a > 1 {
		t.Errorf("fraction out of range: %v", a)
	}
}

func TestNoiseThreadsIncreaseAlg2Error(t *testing.T) {
	run := func(noise int) float64 {
		s := NewSetup(Config{
			Algorithm: Alg2NoSharedMemory, Mode: sched.SMT,
			Tr: 600, Ts: 6000, D: 1, Seed: 15,
			NoiseThreads: noise, NoisePeriod: 2000,
		})
		return s.MeasureErrorRate(64, 4).ErrorRate
	}
	quiet, noisy := run(0), run(2)
	if noisy < quiet {
		t.Errorf("noise threads reduced error rate: quiet=%v noisy=%v", quiet, noisy)
	}
}

func TestZenProfileChannelStillWorks(t *testing.T) {
	// Same-address-space Algorithm 1 on Zen (Figure 7 top arrangement):
	// with averaging, the channel must still show signal despite the
	// coarse TSC.
	s := NewSetup(Config{
		Profile: uarch.Zen(), Algorithm: Alg1SharedMemory,
		Mode: sched.SMT, SameAddressSpace: true,
		Tr: 1000, Ts: 100_000, Seed: 16,
	})
	tr := s.Run([]byte{0, 1}, true, 600, 1<<40)
	// Split samples by the sender's bit period and compare means.
	var zeroSum, oneSum float64
	var zeroN, oneN int
	for _, o := range tr.Observations {
		bitIndex := (o.Wall / 100_000) % 2
		if bitIndex == 0 {
			zeroSum += o.Latency
			zeroN++
		} else {
			oneSum += o.Latency
			oneN++
		}
	}
	if zeroN == 0 || oneN == 0 {
		t.Fatal("samples not spread over bit periods")
	}
	// Algorithm 1: sending 1 keeps line 0 hot -> lower latency.
	if zeroSum/float64(zeroN) <= oneSum/float64(oneN) {
		t.Errorf("Zen: mean latency for 0-bits (%v) should exceed 1-bits (%v)",
			zeroSum/float64(zeroN), oneSum/float64(oneN))
	}
}
