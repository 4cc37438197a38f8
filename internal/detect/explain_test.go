package detect

import (
	"testing"

	"repro/internal/perfctr"
)

// counts builds a report from hand-picked counters: L1D accesses,
// misses and cross-evictions, then L2 accesses and misses.
func counts(l1Acc, l1Miss, l1Cross, l2Acc, l2Miss uint64) perfctr.Report {
	var rep perfctr.Report
	rep.L1D.Accesses, rep.L1D.Misses = l1Acc, l1Miss
	rep.L1D.Evictions, rep.L1D.CrossEvictions = l1Cross, l1Cross
	rep.L2.Accesses, rep.L2.Misses = l2Acc, l2Miss
	return rep
}

// TestExplainCharacterisation pins the exact verdict and explanation
// text of every criterion path: the abstain floor, each criterion
// tripping, each gate holding a criterion back, the strict comparison
// at its boundary, and the disabled (+Inf) miss-rate lines of the ROC
// base configuration.
func TestExplainCharacterisation(t *testing.T) {
	withLLC := counts(1000, 10, 0, 100, 10)
	withLLC.HasLLC = true
	withLLC.LLC.Accesses, withLLC.LLC.Misses = 10, 10

	cases := []struct {
		name    string
		th      Thresholds
		rep     perfctr.Report
		verdict Verdict
		explain string
	}{
		{"abstain floor", DefaultThresholds(), counts(10, 10, 0, 10, 10), Benign,
			`benign (below the 200-access decision floor; L1D miss 100.00% over 10 refs, L2 miss 100.00% over 10 refs)`},
		{"abstain floor with cross evictions", AttackThresholds(), counts(199, 199, 199, 0, 0), Benign,
			`benign (below the 200-access decision floor; L1D miss 100.00% over 199 refs, L2 miss 0.00% over 0 refs, L1D cross-eviction 100.00% (199 displaced))`},
		{"cross-eviction trip", AttackThresholds(), counts(10_000, 100, 100, 100, 10), Suspicious,
			`suspicious (L1D cross-eviction rate 1.00% > threshold 0.80% [l1d.cross_eviction_rate = l1d.cross_evictions / l1d.accesses]; L1D miss 1.00% over 10000 refs, L2 miss 10.00% over 100 refs, L1D cross-eviction 1.00% (100 displaced))`},
		{"cross-eviction high but gated", AttackThresholds(), counts(1000, 10, 15, 100, 10), Benign,
			`benign (no threshold exceeded; L1D miss 1.00% over 1000 refs, L2 miss 10.00% over 100 refs, L1D cross-eviction 1.50% (15 displaced))`},
		{"cross-eviction at its gate", AttackThresholds(), counts(1000, 10, 16, 100, 10), Suspicious,
			`suspicious (L1D cross-eviction rate 1.60% > threshold 0.80% [l1d.cross_eviction_rate = l1d.cross_evictions / l1d.accesses]; L1D miss 1.00% over 1000 refs, L2 miss 10.00% over 100 refs, L1D cross-eviction 1.60% (16 displaced))`},
		{"l1 miss trip", DefaultThresholds(), counts(1000, 1000, 0, 1000, 100), Suspicious,
			`suspicious (L1D miss rate 100.00% > threshold 2.00% [l1d.miss_rate = l1d.misses / l1d.accesses]; L1D miss 100.00% over 1000 refs, L2 miss 10.00% over 1000 refs)`},
		{"l1 miss trip under attack thresholds", AttackThresholds(), counts(1000, 300, 5, 300, 30), Suspicious,
			`suspicious (L1D miss rate 30.00% > threshold 2.00% [l1d.miss_rate = l1d.misses / l1d.accesses]; L1D miss 30.00% over 1000 refs, L2 miss 10.00% over 300 refs, L1D cross-eviction 0.50% (5 displaced))`},
		{"l1 miss exactly at the line", DefaultThresholds(), counts(1000, 20, 0, 20, 20), Benign,
			`benign (no threshold exceeded; L1D miss 2.00% over 1000 refs, L2 miss 100.00% over 20 refs)`},
		{"l2 miss trip", DefaultThresholds(), counts(1000, 10, 0, 60, 40), Suspicious,
			`suspicious (L2 miss rate 66.67% > threshold 50.00% [l2.miss_rate = l2.misses / l2.accesses]; L1D miss 1.00% over 1000 refs, L2 miss 66.67% over 60 refs)`},
		{"l2 gated off", DefaultThresholds(), counts(1000, 10, 0, 40, 40), Benign,
			`benign (no threshold exceeded; L1D miss 1.00% over 1000 refs, L2 miss 100.00% over 40 refs)`},
		{"l2 at its gate", DefaultThresholds(), counts(1000, 10, 0, 50, 26), Suspicious,
			`suspicious (L2 miss rate 52.00% > threshold 50.00% [l2.miss_rate = l2.misses / l2.accesses]; L1D miss 1.00% over 1000 refs, L2 miss 52.00% over 50 refs)`},
		{"benign default", DefaultThresholds(), counts(5000, 50, 40, 50, 5), Benign,
			`benign (no threshold exceeded; L1D miss 1.00% over 5000 refs, L2 miss 10.00% over 50 refs)`},
		{"benign attack", AttackThresholds(), counts(5000, 50, 20, 50, 5), Benign,
			`benign (no threshold exceeded; L1D miss 1.00% over 5000 refs, L2 miss 10.00% over 50 refs, L1D cross-eviction 0.40% (20 displaced))`},
		{"benign with llc", DefaultThresholds(), withLLC, Benign,
			`benign (no threshold exceeded; L1D miss 1.00% over 1000 refs, L2 miss 10.00% over 100 refs)`},
		{"roc base inf lines", ROCBaseThresholds(), counts(1000, 1000, 0, 1000, 1000), Benign,
			`benign (no threshold exceeded; L1D miss 100.00% over 1000 refs, L2 miss 100.00% over 1000 refs, L1D cross-eviction 0.00% (0 displaced))`},
		{"roc base cross trip", ROCBaseThresholds(), counts(1000, 1000, 100, 1000, 1000), Suspicious,
			`suspicious (L1D cross-eviction rate 10.00% > threshold 0.80% [l1d.cross_eviction_rate = l1d.cross_evictions / l1d.accesses]; L1D miss 100.00% over 1000 refs, L2 miss 100.00% over 1000 refs, L1D cross-eviction 10.00% (100 displaced))`},
		{"roc base idle l2", ROCBaseThresholds(), counts(400, 0, 0, 0, 0), Benign,
			`benign (no threshold exceeded; L1D miss 0.00% over 400 refs, L2 miss 0.00% over 0 refs, L1D cross-eviction 0.00% (0 displaced))`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor(tc.th)
			if got := m.Classify(tc.rep); got != tc.verdict {
				t.Errorf("Classify = %v, want %v", got, tc.verdict)
			}
			if got := m.Explain(tc.rep); got != tc.explain {
				t.Errorf("Explain =\n%q\nwant\n%q", got, tc.explain)
			}
		})
	}
}
