package timing

import (
	"testing"

	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/uarch"
)

func intelRig(t *testing.T) (*hier.Hierarchy, *mem.System, *mem.AddressSpace, *TSC) {
	t.Helper()
	h := hier.New(hier.Config{
		Profile:  uarch.SandyBridge(),
		L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU,
	})
	sys := mem.NewSystem(64)
	as := sys.NewAddressSpace()
	return h, sys, as, NewTSC(uarch.SandyBridge(), rng.New(1))
}

func TestObserveQuantizationIntel(t *testing.T) {
	tsc := NewTSC(uarch.SandyBridge(), rng.New(2))
	v := tsc.Observe(36)
	if v != float64(int64(v)) {
		t.Errorf("Intel observation %v not integral", v)
	}
}

func TestObserveQuantizationAMD(t *testing.T) {
	tsc := NewTSC(uarch.Zen(), rng.New(2))
	q := float64(uarch.Zen().TSCQuantum)
	for i := 0; i < 100; i++ {
		v := tsc.Observe(40)
		if r := v / q; r != float64(int64(r)) {
			t.Fatalf("AMD observation %v is not a multiple of quantum %v", v, q)
		}
	}
}

func TestObserveMonotoneInMean(t *testing.T) {
	tsc := NewTSC(uarch.SandyBridge(), rng.New(3))
	var hit, miss float64
	const n = 2000
	for i := 0; i < n; i++ {
		hit += tsc.Observe(32)  // 8 L1 hits
		miss += tsc.Observe(40) // 7 hits + L2 hit
	}
	if miss/n-hit/n < 6 {
		t.Errorf("mean separation = %v, want ~8", miss/n-hit/n)
	}
}

// Figure 3 (left): with the pointer chase on Intel, the L1-hit and L1-miss
// distributions must be cleanly separable.
func TestChaseSeparatesHitMissIntel(t *testing.T) {
	h, _, as, tsc := intelRig(t)
	ch := NewChaser(h, as, 63, 0, 1, tsc)
	ch.WarmUp()

	target := as.Resolve(as.LinesForSet(64, 5, 1)[0])
	var hits, misses []float64
	for i := 0; i < 2000; i++ {
		h.Load(target, 1) // ensure in L1
		hits = append(hits, ch.Measure(target).Observed)
		h.Flush(target.PhysLine)
		h.Load(target, 1)             // now in L1 again; evict only from L1:
		h.L1().Flush(target.PhysLine) // leaves L2 copy -> true L1 miss, L2 hit
		misses = append(misses, ch.Measure(target).Observed)
		h.Flush(target.PhysLine)
	}
	th := stats.OtsuThreshold(append(append([]float64{}, hits...), misses...))
	wrongHits := 0
	for _, v := range hits {
		if v > th {
			wrongHits++
		}
	}
	wrongMisses := 0
	for _, v := range misses {
		if v <= th {
			wrongMisses++
		}
	}
	if rate := float64(wrongHits+wrongMisses) / float64(len(hits)+len(misses)); rate > 0.05 {
		t.Errorf("chase misclassification rate %v on Intel, want < 5%%", rate)
	}
}

// Appendix A (Figure 13): the naive single-access measurement must NOT
// separate an L1 hit from an L2 hit.
func TestSingleAccessCannotSeparate(t *testing.T) {
	h, _, as, tsc := intelRig(t)
	ch := NewChaser(h, as, 63, 0, 1, tsc)
	target := as.Resolve(as.LinesForSet(64, 5, 1)[0])
	var hits, misses []float64
	for i := 0; i < 2000; i++ {
		h.Load(target, 1)
		hits = append(hits, ch.MeasureSingle(target).Observed)
		h.L1().Flush(target.PhysLine)
		misses = append(misses, ch.MeasureSingle(target).Observed)
	}
	mh, mm := stats.Summarize(hits), stats.Summarize(misses)
	// The distributions overlap: their means differ by less than one
	// standard deviation.
	if diff := mm.Mean - mh.Mean; diff > mh.Std {
		t.Errorf("single-access measurement separates hit from miss (Δmean=%v, σ=%v); Appendix A says it must not", diff, mh.Std)
	}
}

// On AMD the quantum is so coarse that a single chase measurement cannot
// reliably decode a bit, but the distributions still differ — the receiver
// must average (Section VI-A).
func TestAMDChaseNeedsAveraging(t *testing.T) {
	prof := uarch.Zen()
	h := hier.New(hier.Config{Profile: prof, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU})
	sys := mem.NewSystem(64)
	as := sys.NewAddressSpace()
	tsc := NewTSC(prof, rng.New(5))
	ch := NewChaser(h, as, 63, 0, 1, tsc)
	ch.WarmUp()
	target := as.Resolve(as.LinesForSet(64, 5, 1)[0])
	var hits, misses []float64
	for i := 0; i < 4000; i++ {
		h.Load(target, 1)
		ch.WarmUp()
		hits = append(hits, ch.Measure(target).Observed)
		h.L1().Flush(target.PhysLine)
		ch.WarmUp()
		misses = append(misses, ch.Measure(target).Observed)
	}
	mh, mm := stats.Summarize(hits), stats.Summarize(misses)
	if mm.Mean <= mh.Mean {
		t.Errorf("AMD miss mean %v not above hit mean %v", mm.Mean, mh.Mean)
	}
	// Single-shot separation must be poor: the distributions share
	// quantization buckets.
	th := stats.OtsuThreshold(append(append([]float64{}, hits...), misses...))
	wrong := 0
	for _, v := range hits {
		if v > th {
			wrong++
		}
	}
	for _, v := range misses {
		if v <= th {
			wrong++
		}
	}
	rate := float64(wrong) / float64(len(hits)+len(misses))
	if rate < 0.02 {
		t.Errorf("AMD single-shot error rate %v suspiciously low; coarse TSC should blur the channel", rate)
	}
}

func TestChaserThresholdBetweenHitAndMiss(t *testing.T) {
	h, _, as, tsc := intelRig(t)
	ch := NewChaser(h, as, 63, 0, 1, tsc)
	th := ch.Threshold()
	prof := h.Profile()
	allHit := float64((len(ch.Elements())+1)*prof.L1Latency + prof.MeasureOverhead)
	oneMiss := allHit - float64(prof.L1Latency) + float64(prof.L2Latency)
	if th <= allHit || th >= oneMiss {
		t.Errorf("threshold %v not between all-hit %v and one-miss %v", th, allHit, oneMiss)
	}
}

func TestChaserElementsInReservedSet(t *testing.T) {
	h, _, as, tsc := intelRig(t)
	ch := NewChaser(h, as, 63, 0, 1, tsc)
	for _, e := range ch.Elements() {
		if got := h.L1().SetIndex(e.PhysLine); got != 63 {
			t.Errorf("chase element in set %d, want 63", got)
		}
	}
	if len(ch.Elements()) != DefaultChainLength {
		t.Errorf("chain length = %d", len(ch.Elements()))
	}
}

func TestChaserCustomLength(t *testing.T) {
	h, _, as, tsc := intelRig(t)
	ch := NewChaser(h, as, 63, 11, 1, tsc)
	if len(ch.Elements()) != 11 {
		t.Errorf("chain length = %d, want 11", len(ch.Elements()))
	}
}

func TestMeasureDoesNotPolluteTargetSet(t *testing.T) {
	// The probe elements live in set 63; measuring a target in set 5 must
	// leave every other set's replacement state untouched except set 5.
	h, _, as, tsc := intelRig(t)
	ch := NewChaser(h, as, 63, 0, 1, tsc)
	ch.WarmUp()
	target := as.Resolve(as.LinesForSet(64, 5, 1)[0])
	h.Load(target, 1)
	var before [64]string
	for s := 0; s < 64; s++ {
		before[s] = h.L1().PolicyState(s)
	}
	ch.Measure(target)
	for s := 0; s < 64; s++ {
		after := h.L1().PolicyState(s)
		if s == 5 || s == 63 {
			continue
		}
		if after != before[s] {
			t.Errorf("set %d state changed by measurement: %s -> %s", s, before[s], after)
		}
	}
}

func TestDVFSWobbleDriftsAMD(t *testing.T) {
	tsc := NewTSC(uarch.Zen(), rng.New(9))
	seen := map[float64]bool{}
	for i := 0; i < 20000; i++ {
		seen[tsc.Observe(45)] = true
	}
	if len(seen) < 2 {
		t.Error("AMD observations never drifted across quantization buckets")
	}
}

func TestIntelNoDVFSWobble(t *testing.T) {
	tsc := NewTSC(uarch.SandyBridge(), rng.New(9))
	if tsc.scale != 1 {
		t.Fatal("initial scale not 1")
	}
	for i := 0; i < 1000; i++ {
		tsc.Observe(40)
	}
	if tsc.scale != 1 {
		t.Error("Intel profile scale drifted despite zero wobble")
	}
}

func TestObserveNeverNegative(t *testing.T) {
	tsc := NewTSC(uarch.SandyBridge(), rng.New(10))
	for i := 0; i < 10000; i++ {
		if v := tsc.Observe(0); v < 0 {
			t.Fatalf("negative observation %v", v)
		}
		if v := tsc.ObserveSingle(0); v < 0 {
			t.Fatalf("negative single observation %v", v)
		}
	}
}
