package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/perfctr"
	"repro/internal/sched"
)

func smtSetup(alg Algorithm, seed uint64) *Setup {
	return NewSetup(Config{Algorithm: alg, Mode: sched.SMT, Tr: 600, Ts: 6000, Seed: seed})
}

// The Flush+Reload runs are pinned bit for bit: every observation
// (latency bits, wall time, ground truth) and the sender's per-level
// counters hash to a fixed value per (channel, noise threads) cell.
func TestFlushReloadRunCharacterization(t *testing.T) {
	for _, tc := range []struct {
		alg   Algorithm
		noise int
		want  uint64
	}{
		{FlushReloadMem, 0, 0x9f5746eae91cc995},
		{FlushReloadMem, 2, 0xe7f53583ab423ec6},
		{FlushReloadL1, 0, 0x94606a3ca8d2ea59},
		{FlushReloadL1, 2, 0xaf06a71f8d358b87},
	} {
		s := NewSetup(Config{
			Algorithm: tc.alg, Mode: sched.SMT,
			Tr: 600, Ts: 6000, Seed: 21,
			NoiseThreads: tc.noise, NoisePeriod: 500,
		})
		tr := s.Run([]byte{1, 0, 1, 1, 0}, true, 300, 1<<40)
		h := fnv.New64a()
		for _, o := range tr.Observations {
			fmt.Fprintf(h, "%x %d %v;", math.Float64bits(o.Latency), o.Wall, o.TrueL1Hit)
		}
		rep := perfctr.Collect(s.Hier, ReqSender)
		fmt.Fprintf(h, "%+v %+v %+v", rep.L1D, rep.L2, rep.LLC)
		if got := h.Sum64(); len(tr.Observations) != 300 || got != tc.want {
			t.Errorf("%v noise=%d: %d observations, hash %#x; want 300, %#x",
				tc.alg.Column(), tc.noise, len(tr.Observations), got, tc.want)
		}
	}
}

// Table V row: F+R (mem) encoding is an order of magnitude more expensive
// than the LRU channel's (336 vs 31 cycles on E5-2690), and F+R (L1) sits
// in between (35-56 cycles).
func TestTableVEncodingOrdering(t *testing.T) {
	lru := smtSetup(Alg1SharedMemory, 1).EncodeCost()
	frMem := smtSetup(FlushReloadMem, 2).EncodeCost()
	frL1 := smtSetup(FlushReloadL1, 3).EncodeCost()
	if !(lru < frL1 && frL1 < frMem) {
		t.Errorf("encode costs: LRU=%d, F+R(L1)=%d, F+R(mem)=%d; want LRU < F+R(L1) < F+R(mem)", lru, frL1, frMem)
	}
	if frMem < 150 {
		t.Errorf("F+R(mem) encode = %d cycles, should be dominated by the flush (~300)", frMem)
	}
	if lru > 40 {
		t.Errorf("LRU encode = %d cycles, want ~31", lru)
	}
}

// Table VI: the LRU-channel sender's L1 miss rate is lower than the
// Flush+Reload sender's, because F+R re-misses the target line every bit.
func TestTableVISenderMissRates(t *testing.T) {
	sLRU := smtSetup(Alg1SharedMemory, 4)
	sLRU.Run([]byte{1, 0}, true, 200, 1<<40)
	lruRep := perfctr.Collect(sLRU.Hier, ReqSender)

	sFR := smtSetup(FlushReloadMem, 5)
	sFR.Run([]byte{1, 0}, true, 200, 1<<40)
	frRep := perfctr.Collect(sFR.Hier, ReqSender)

	if lruRep.L1D.Accesses == 0 || frRep.L1D.Accesses == 0 {
		t.Fatalf("senders idle: lru=%+v fr=%+v", lruRep, frRep)
	}
	if lruRep.L1D.MissRate() >= frRep.L1D.MissRate() {
		t.Errorf("LRU sender L1D miss rate %v should be below F+R's %v",
			lruRep.L1D.MissRate(), frRep.L1D.MissRate())
	}
	// The LRU sender misses essentially never after warm-up.
	if lruRep.L1D.MissRate() > 0.01 {
		t.Errorf("LRU sender L1D miss rate = %v, want ~0", lruRep.L1D.MissRate())
	}
}

// Flush+Reload still transfers bits in the simulator (sanity for the
// comparison baseline).
func TestFlushReloadTransfers(t *testing.T) {
	s := smtSetup(FlushReloadMem, 6)
	tr := s.Run([]byte{0, 1}, true, 200, 1<<40)
	if len(tr.Observations) != 200 {
		t.Fatalf("got %d observations", len(tr.Observations))
	}
	if !s.HitMeansOne() {
		t.Fatal("a fast reload must decode to 1")
	}
	ones := 0
	for _, b := range tr.RawBits(s.HitMeansOne()) {
		ones += int(b)
	}
	if ones < 40 || ones > 160 {
		t.Errorf("F+R decoded %d/200 ones; channel looks broken", ones)
	}
}

func TestFlushReloadRunStartsNoiseThreads(t *testing.T) {
	for _, alg := range []Algorithm{FlushReloadMem, FlushReloadL1} {
		s := NewSetup(Config{
			Algorithm: alg, Mode: sched.SMT,
			Tr: 600, Ts: 6000, Seed: 11,
			NoiseThreads: 2, NoisePeriod: 500,
		})
		s.Run([]byte{1, 0}, true, 50, 1<<40)
		if st := s.Hier.L1().RequestorStats(ReqOther); st.Accesses == 0 {
			t.Errorf("%v: Run ran no noise accesses with NoiseThreads = 2", alg.Column())
		}
	}
}

func TestFlushReloadL1NeedsNoFlush(t *testing.T) {
	// F+R(L1) must evict the line using only loads: after one encode the
	// target is out of L1 but still in L2 or deeper.
	s := smtSetup(FlushReloadL1, 8)
	s.Hier.Warm(s.SenderLine, ReqSender)
	s.encode(0) // eviction epoch, no reload
	if s.Hier.L1().Contains(s.SenderLine.PhysLine) {
		t.Error("F+R(L1) encode(0) left the target in L1")
	}
	if !s.Hier.L2().Contains(s.SenderLine.PhysLine) {
		t.Error("F+R(L1) should not push the target past L2")
	}
}

// A Flush+Reload setup resolves Algorithm 1's lane: the same seed puts
// every line on the same frame.
func TestFlushReloadSharesAlg1Frames(t *testing.T) {
	alg1 := smtSetup(Alg1SharedMemory, 12)
	for _, alg := range []Algorithm{FlushReloadMem, FlushReloadL1} {
		s := smtSetup(alg, 12)
		if s.SenderLine != alg1.SenderLine || s.ReceiverLines[0] != alg1.ReceiverLines[0] {
			t.Errorf("%v: line 0 moved", alg.Column())
		}
	}
}

func TestFlushReloadRejectsLanes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a two-lane Flush+Reload channel")
		}
	}()
	NewMultiSetup(Config{Algorithm: FlushReloadMem}, []int{5, 9})
}
