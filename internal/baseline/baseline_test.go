package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perfctr"
	"repro/internal/sched"
)

func alg1Setup(seed uint64) *core.Setup {
	return core.NewSetup(core.Config{
		Algorithm: core.Alg1SharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, Seed: seed,
	})
}

func TestKindString(t *testing.T) {
	if FlushReloadMem.String() != "F+R (mem)" || FlushReloadL1.String() != "F+R (L1)" ||
		Kind(9).String() == "" {
		t.Error("Kind strings wrong")
	}
}

// Table V row: F+R (mem) encoding is an order of magnitude more expensive
// than the LRU channel's (336 vs 31 cycles on E5-2690), and F+R (L1) sits
// in between (35-56 cycles).
func TestTableVEncodingOrdering(t *testing.T) {
	s := alg1Setup(1)
	lru := s.EncodeCost()
	frMem := New(FlushReloadMem, alg1Setup(2)).EncodeCostOne()
	frL1 := New(FlushReloadL1, alg1Setup(3)).EncodeCostOne()
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
	// LRU channel run.
	sLRU := alg1Setup(4)
	sLRU.Run([]byte{1, 0}, true, 200, 1<<40)
	lruRep := perfctr.Collect(sLRU.Hier, core.ReqSender)

	// F+R (mem) run with the same framing.
	sFR := alg1Setup(5)
	ch := New(FlushReloadMem, sFR)
	ch.Run([]byte{1, 0}, true, 200, 1<<40)
	frRep := perfctr.Collect(sFR.Hier, core.ReqSender)

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
	s := alg1Setup(6)
	ch := New(FlushReloadMem, s)
	tr := ch.Run([]byte{0, 1}, true, 200, 1<<40)
	if len(tr.Observations) != 200 {
		t.Fatalf("got %d observations", len(tr.Observations))
	}
	bits := tr.RawBits(true) // hit (fast reload) = sender accessed = 1
	ones := 0
	for _, b := range bits {
		ones += int(b)
	}
	if ones < 40 || ones > 160 {
		t.Errorf("F+R decoded %d/200 ones; channel looks broken", ones)
	}
}

func TestRunStartsNoiseThreads(t *testing.T) {
	for _, kind := range []Kind{FlushReloadMem, FlushReloadL1} {
		s := core.NewSetup(core.Config{
			Algorithm: core.Alg1SharedMemory, Mode: sched.SMT,
			Tr: 600, Ts: 6000, Seed: 11,
			NoiseThreads: 2, NoisePeriod: 500,
		})
		New(kind, s).Run([]byte{1, 0}, true, 50, 1<<40)
		if st := s.Hier.L1().RequestorStats(core.ReqOther); st.Accesses == 0 {
			t.Errorf("%v: Run ran no noise accesses with NoiseThreads = 2", kind)
		}
	}
}

func TestFlushReloadL1NeedsNoFlush(t *testing.T) {
	// F+R(L1) must evict the line using only loads: after one encode the
	// target is out of L1 but still in L2 or deeper.
	s := alg1Setup(8)
	ch := New(FlushReloadL1, s)
	s.Hier.Warm(s.SenderLine, core.ReqSender)
	ch.Encode(0) // eviction epoch, no reload
	if s.Hier.L1().Contains(s.SenderLine.PhysLine) {
		t.Error("F+R(L1) encode(0) left the target in L1")
	}
	if !s.Hier.L2().Contains(s.SenderLine.PhysLine) {
		t.Error("F+R(L1) should not push the target past L2")
	}
}

func TestEncodeUnknownKindPanics(t *testing.T) {
	ch := &Channel{Kind: Kind(42), Setup: alg1Setup(9)}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ch.Encode(1)
}

func TestPerfctrCombined(t *testing.T) {
	s := alg1Setup(10)
	s.Run([]byte{1}, true, 50, 1<<40)
	a := perfctr.Collect(s.Hier, core.ReqSender)
	b := perfctr.Collect(s.Hier, core.ReqReceiver)
	both := perfctr.CollectCombined(s.Hier, core.ReqSender, core.ReqReceiver)
	if both.L1D.Accesses != a.L1D.Accesses+b.L1D.Accesses {
		t.Errorf("combined accesses %d != %d + %d", both.L1D.Accesses, a.L1D.Accesses, b.L1D.Accesses)
	}
	if both.String() == "" {
		t.Error("empty report string")
	}
}
