// Package perfctr renders the hardware-performance-counter views used by
// Tables VI and VII: per-process cache references and miss rates at every
// level of the hierarchy, as Linux perf would report them. In the simulator
// the counters are exact (the cache layer attributes every access to a
// requestor id), so a Report is just each level's cache.Stats for one
// process, and its miss rates are cache.Stats.MissRate.
package perfctr

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/hier"
)

// Report is the perf view of one process (requestor id) over a run.
type Report struct {
	Requestor int
	L1D       cache.Stats
	L2        cache.Stats
	LLC       cache.Stats
	HasLLC    bool
}

// Collect reads the per-requestor counters out of the hierarchy.
func Collect(h *hier.Hierarchy, requestor int) Report {
	rep := Report{Requestor: requestor}
	rep.L1D = h.L1().RequestorStats(requestor)
	rep.L2 = h.L2().RequestorStats(requestor)
	if llc := h.LLC(); llc != nil {
		rep.HasLLC = true
		rep.LLC = llc.RequestorStats(requestor)
	}
	return rep
}

// FromL1Stats builds the report of a process on a model with a single
// cache level (random fill, DAWG, the ROC sweep's benign co-runs): L1D
// counters from s, an idle L2.
func FromL1Stats(requestor int, s cache.Stats) Report {
	return Report{Requestor: requestor, L1D: s}
}

// CollectCombined merges the counters of several requestors (Table VII
// reports victim + attacker together during a Spectre run).
func CollectCombined(h *hier.Hierarchy, requestors ...int) Report {
	rep := Report{Requestor: -1}
	for _, r := range requestors {
		one := Collect(h, r)
		rep.L1D.Add(one.L1D)
		rep.L2.Add(one.L2)
		rep.LLC.Add(one.LLC)
		rep.HasLLC = rep.HasLLC || one.HasLLC
	}
	return rep
}

// String renders the report in the Table VI style: each level's miss
// rate as a percentage.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L1D %6.2f%%  L2 %6.2f%%", 100*r.L1D.MissRate(), 100*r.L2.MissRate())
	if r.HasLLC {
		fmt.Fprintf(&b, "  LLC %6.2f%%", 100*r.LLC.MissRate())
	}
	return b.String()
}
