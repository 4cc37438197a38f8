package detect

// The ROC sweep: the monitor of this package decides at ONE operating
// point (the thresholds it was built with), which is how the paper and
// the Table VI reproduction report detection — a single verdict per
// process. "Security Analysis of Cache Replacement Policies" (Cañones
// et al.) frames why that is not enough: a detector's worth is its
// whole threshold-sensitivity curve, because a deployment that cannot
// tolerate false positives will run a lax threshold and a paranoid one
// a tight threshold, and two defenses can order differently at
// different points. This file sweeps the monitor's cross-eviction
// criterion — the one that catches the LRU-state attacker — across a
// threshold grid and reports the resulting ROC curve: attacker
// true-positive rate against benign-workload false-positive rate, with
// the area under the curve as the scalar summary.

import (
	"math"
	"sort"

	"repro/internal/perfctr"
)

// ROCPoint is one operating point of a threshold sweep.
type ROCPoint struct {
	// Threshold is the L1 cross-eviction rate above which the monitor
	// flags a process (+Inf disables the criterion: only the fixed
	// miss-rate rules remain).
	Threshold float64
	// TPR is the fraction of attacker processes flagged; FPR the
	// fraction of benign processes flagged.
	TPR, FPR float64
}

// ROC is the curve swept over a threshold grid, most conservative
// (highest threshold) first.
type ROC struct {
	Points []ROCPoint
	// AUC is the trapezoidal area under the curve through the swept
	// points, anchored at (0,0) and (1,1) — the "throttle the detector
	// randomly" interpolation standard for stepwise detectors.
	AUC float64
	// PosN and NegN are the sample sizes behind the rates.
	PosN, NegN int
}

// ROCBaseThresholds is the monitor configuration the ROC sweep varies:
// the decision gates kept, the classic miss-rate rules disabled, and
// the cross-eviction criterion live (its rate is what the grid
// replaces). The miss-rate rules are a fixed, separate detector — their
// verdicts cannot move with the swept threshold, and against the
// Figure 9 suite at L1 scale they fire on essentially every process
// (cache-stressing benchmarks miss constantly), which would pin the
// false-positive rate at 1 and flatten every curve. Disabling them
// isolates the criterion whose threshold sensitivity is under study.
func ROCBaseThresholds() Thresholds {
	return Thresholds{
		MinAccesses:         200,
		L1MissRate:          math.Inf(1),
		L2MissRate:          math.Inf(1),
		MinL2Refs:           50,
		L1CrossEvictionRate: AttackThresholds().L1CrossEvictionRate,
		MinCrossEvictions:   AttackThresholds().MinCrossEvictions,
	}
}

// DefaultROCThresholds is the sweep grid: from the criterion fully off
// (+Inf), through the deployed AttackThresholds operating point
// (0.008), down to a hair above zero. The grid is fixed so that swept
// curves are directly comparable — and golden-pinnable — across
// defenses and runs.
func DefaultROCThresholds() []float64 {
	return []float64{
		math.Inf(1), 0.1, 0.05, 0.02, 0.01, 0.008,
		0.005, 0.002, 0.001, 0.0005, 0.0001,
	}
}

// SweepCrossEvictionThreshold classifies every report under the full
// monitor — base's miss-rate rules unchanged — at each cross-eviction
// threshold of the grid, and returns the ROC curve. Because lowering
// the threshold can only add Suspicious verdicts, the curve is
// monotone along the grid.
func SweepCrossEvictionThreshold(pos, neg []perfctr.Report, base Thresholds, thresholds []float64) ROC {
	roc := ROC{PosN: len(pos), NegN: len(neg)}
	for _, th := range thresholds {
		t := base
		t.L1CrossEvictionRate = th
		m := NewMonitor(t)
		roc.Points = append(roc.Points, ROCPoint{
			Threshold: th,
			TPR:       flaggedFraction(m, pos),
			FPR:       flaggedFraction(m, neg),
		})
	}
	roc.AUC = auc(roc.Points)
	return roc
}

// PointAt returns the swept point closest to the given threshold (the
// deployed operating point, usually), or a zero point when the curve
// is empty.
func (r ROC) PointAt(threshold float64) ROCPoint {
	var best ROCPoint
	bestDist := math.Inf(1)
	for _, p := range r.Points {
		d := math.Abs(p.Threshold - threshold)
		if math.IsInf(p.Threshold, 1) && math.IsInf(threshold, 1) {
			d = 0
		}
		if d < bestDist {
			bestDist = d
			best = p
		}
	}
	return best
}

func flaggedFraction(m *Monitor, reps []perfctr.Report) float64 {
	if len(reps) == 0 {
		return 0
	}
	flagged := 0
	for _, rep := range reps {
		if m.Classify(rep) == Suspicious {
			flagged++
		}
	}
	return float64(flagged) / float64(len(reps))
}

// auc integrates the (FPR, TPR) staircase by trapezoid, anchored at
// (0,0) and (1,1).
func auc(points []ROCPoint) float64 {
	type xy struct{ x, y float64 }
	pts := make([]xy, 0, len(points)+2)
	pts = append(pts, xy{0, 0}, xy{1, 1})
	for _, p := range points {
		pts = append(pts, xy{p.FPR, p.TPR})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].x != pts[j].x {
			return pts[i].x < pts[j].x
		}
		return pts[i].y < pts[j].y
	})
	var area float64
	for i := 1; i < len(pts); i++ {
		// float64() stops a fused multiply-add (see rng.Float64).
		area += float64((pts[i].x - pts[i-1].x) * (pts[i].y + pts[i-1].y) / 2)
	}
	return area
}
