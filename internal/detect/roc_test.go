package detect

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/perfctr"
)

// report builds a synthetic counter view with the given L1 geometry.
func report(accesses, misses, crossEv uint64) perfctr.Report {
	var rep perfctr.Report
	rep.L1D.Accesses = accesses
	rep.L1D.Misses = misses
	rep.L1D.Evictions = crossEv
	rep.L1D.CrossEvictions = crossEv
	return rep
}

func repeat(rep perfctr.Report, n int) []perfctr.Report {
	out := make([]perfctr.Report, n)
	for i := range out {
		out[i] = rep
	}
	return out
}

// A cleanly separable population must sweep to AUC 1 and a perfect
// operating point at the deployed threshold.
func TestROCSeparable(t *testing.T) {
	pos := repeat(report(10_000, 100, 150), 8) // 1.5% cross rate, 1% misses
	neg := repeat(report(10_000, 100, 20), 8)  // 0.2% cross rate
	roc := SweepCrossEvictionThreshold(pos, neg, DefaultThresholds(), DefaultROCThresholds())
	if roc.AUC != 1.0 {
		t.Errorf("separable AUC = %v, want 1.0", roc.AUC)
	}
	p := roc.PointAt(AttackThresholds().L1CrossEvictionRate)
	if p.TPR != 1.0 || p.FPR != 0.0 {
		t.Errorf("deployed point TPR=%v FPR=%v, want 1, 0", p.TPR, p.FPR)
	}
	if roc.PosN != 8 || roc.NegN != 8 {
		t.Errorf("sample sizes %d/%d, want 8/8", roc.PosN, roc.NegN)
	}
}

// An indistinguishable population must sweep to AUC 0.5 (every swept
// point has TPR == FPR, so the anchored staircase is the diagonal).
func TestROCIndistinguishable(t *testing.T) {
	rep := report(10_000, 100, 100)
	roc := SweepCrossEvictionThreshold(repeat(rep, 4), repeat(rep, 4),
		DefaultThresholds(), DefaultROCThresholds())
	if math.Abs(roc.AUC-0.5) > 1e-12 {
		t.Errorf("identical populations AUC = %v, want 0.5", roc.AUC)
	}
}

// Lowering the threshold can only add flags: both rates must be
// monotone non-decreasing along the default (descending) grid, and the
// +Inf point must reflect only the fixed miss-rate rules.
func TestROCMonotoneAlongGrid(t *testing.T) {
	pos := []perfctr.Report{
		report(10_000, 100, 150),
		report(10_000, 100, 60),
		report(10_000, 3000, 10), // miss-rate rule catches this one at any threshold
	}
	neg := []perfctr.Report{
		report(10_000, 100, 25),
		report(10_000, 100, 5),
	}
	roc := SweepCrossEvictionThreshold(pos, neg, DefaultThresholds(), DefaultROCThresholds())
	for i := 1; i < len(roc.Points); i++ {
		if roc.Points[i].TPR < roc.Points[i-1].TPR || roc.Points[i].FPR < roc.Points[i-1].FPR {
			t.Fatalf("curve not monotone at grid point %d: %+v -> %+v",
				i, roc.Points[i-1], roc.Points[i])
		}
	}
	if first := roc.Points[0]; !math.IsInf(first.Threshold, 1) || first.TPR != 1.0/3 {
		t.Errorf("criterion-off point = %+v, want TPR 1/3 (the miss-rate catch)", first)
	}
}

// The gates must hold during a sweep: a process below the decision
// floor or the minimum cross-eviction count stays benign even at the
// tightest threshold.
func TestROCRespectsGates(t *testing.T) {
	base := AttackThresholds()
	small := report(base.MinAccesses-1, 0, base.MinCrossEvictions+10)
	few := report(10_000, 0, base.MinCrossEvictions-1)
	roc := SweepCrossEvictionThreshold(
		[]perfctr.Report{small, few}, nil, base, DefaultROCThresholds())
	for _, p := range roc.Points {
		if p.TPR != 0 {
			t.Fatalf("gated processes flagged at threshold %v", p.Threshold)
		}
	}
}

// Under ROCBaseThresholds the swept monitor reads only L1D counters:
// at every grid threshold, a report's verdict must not move whatever
// its L2 and LLC counters say. The ROC sweep's benign co-runs rely on
// this to skip the levels below the L1D.
func TestROCBaseReadsOnlyL1D(t *testing.T) {
	l1 := []perfctr.Report{
		report(10_000, 100, 150),  // flagged below 1.5% cross-evictions
		report(10_000, 3000, 20),  // heavy misser, few cross-evictions
		report(10_000, 0, 0),      // all hits
		report(150, 150, 150),     // below the decision floor
		report(300_000, 9000, 10), // below the cross-eviction gate
	}
	lower := []cache.Stats{
		{},
		{Accesses: 50, Misses: 50},
		{Accesses: 1 << 20, Misses: 1 << 20, Evictions: 1 << 20},
		{Accesses: 1 << 20, Hits: 1 << 20},
		{Accesses: 7, Hits: 3, Misses: 4, CrossEvictions: 4, Bypasses: 2},
	}
	for _, th := range DefaultROCThresholds() {
		base := ROCBaseThresholds()
		base.L1CrossEvictionRate = th
		m := NewMonitor(base)
		for i, rep := range l1 {
			want := m.Classify(rep)
			for _, l2 := range lower {
				for _, llc := range lower {
					for _, hasLLC := range []bool{false, true} {
						r := rep
						r.L2, r.LLC, r.HasLLC = l2, llc, hasLLC
						if got := m.Classify(r); got != want {
							t.Fatalf("threshold %v, report %d: verdict %v with L2 %+v, LLC %+v (HasLLC %v), %v without; "+
								"benignPairReports (sweep.go) co-runs the ROC negatives on the L1D alone, so an L2 or LLC "+
								"rule in ROCBaseThresholds needs those levels modelled there again",
								th, i, got, l2, llc, hasLLC, want)
						}
					}
				}
			}
		}
	}
}

// Empty populations must not panic and must report zero rates.
func TestROCEmptyPopulations(t *testing.T) {
	roc := SweepCrossEvictionThreshold(nil, nil, DefaultThresholds(), DefaultROCThresholds())
	if roc.PosN != 0 || roc.NegN != 0 {
		t.Fatalf("sample sizes %d/%d", roc.PosN, roc.NegN)
	}
	for _, p := range roc.Points {
		if p.TPR != 0 || p.FPR != 0 {
			t.Fatalf("empty populations produced rates %+v", p)
		}
	}
	if math.Abs(roc.AUC-0.5) > 1e-12 {
		t.Errorf("degenerate AUC = %v, want the diagonal 0.5", roc.AUC)
	}
}

func TestPointAtPicksClosest(t *testing.T) {
	roc := ROC{Points: []ROCPoint{
		{Threshold: math.Inf(1), TPR: 0.1},
		{Threshold: 0.01, TPR: 0.5},
		{Threshold: 0.001, TPR: 0.9},
	}}
	if p := roc.PointAt(0.008); p.Threshold != 0.01 {
		t.Errorf("PointAt(0.008) picked %v", p.Threshold)
	}
	if p := roc.PointAt(math.Inf(1)); !math.IsInf(p.Threshold, 1) {
		t.Errorf("PointAt(+Inf) picked %v", p.Threshold)
	}
}
