package lruleak

// The secret-recovery defense matrix is pinned byte-for-byte at a fixed
// seed, matching the PR 2 pinning scheme (see determinism_test.go):
// the simulator is exactly reproducible from a seed, so the golden is
// machine-independent and regenerable with UPDATE_GOLDEN=1. The pinned
// table is also asserted semantically: it must SHOW the acceptance
// property — full recovery on the unprotected cache, chance under DAWG.

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/workload"
)

// attackGoldenSpec keeps the pinned matrix small enough for CI: one
// victim, the headline policy, every defense.
func attackGoldenSpec() AttackSpec {
	return AttackSpec{
		Victims:  []string{"ttable"},
		Policies: []string{"treeplru"},
		Symbols:  6,
	}
}

func TestAttackSweepGoldenPinned(t *testing.T) {
	cells := AttackSweep(attackGoldenSpec(), goldenSeed, RunOptions{Workers: 1})
	want := RenderAttackSweep(cells)
	checkGolden(t, "attacksweep", want)

	for _, workers := range []int{2, 8} {
		got := RenderAttackSweep(AttackSweep(attackGoldenSpec(), goldenSeed, RunOptions{Workers: workers}))
		if got != want {
			t.Errorf("attack sweep at Workers=%d diverges from the serial run", workers)
		}
	}

	// The pinned table must exhibit the acceptance property.
	byDefense := map[AttackDefense]AttackCell{}
	for _, c := range cells {
		byDefense[c.Defense] = c
	}
	if base := byDefense[attack.DefenseNone]; base.Recovery.Mean != 1.0 {
		t.Errorf("baseline Tree-PLRU recovery %.2f, want 1.0", base.Recovery.Mean)
	}
	if base := byDefense[attack.DefenseNone]; base.AttackerFlagged != 1.0 || base.VictimFlagged != 0.0 {
		t.Errorf("baseline detection: attacker %.1f / victim %.1f, want flagged / clean",
			base.AttackerFlagged, base.VictimFlagged)
	}
	if dawg := byDefense[attack.DefenseDAWG]; dawg.Recovery.Mean > 0.3 {
		t.Errorf("DAWG recovery %.2f, want chance level", dawg.Recovery.Mean)
	}
}

// The full matrix (all victims × policies × defenses) must keep its
// grid shape and stay worker-invariant; its contents are exercised by
// internal/attack's tests, so one small-symbol pass suffices here.
func TestAttackSweepGridShape(t *testing.T) {
	spec := AttackSpec{Symbols: 2, Votes: 2, ProfilingRounds: 2}
	cells := AttackSweep(spec, 5, RunOptions{})
	want := 3 * 3 * 5 // victims × policies × defenses
	if len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := c.Victim + "/" + c.Policy.String() + "/" + c.Defense.String()
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
	}
}

// The d-split partial prime at d=1 — the paper's Figure 11 operating
// point — must separate the PL-cache variants in the pinned matrix:
// the original design leaks above chance, the fixed design sits at
// chance. The canonical full prime (attacksweep.golden) cannot tell
// them apart; this golden is the key-recovery restating of Figure 11.
func TestDSplitSweepGoldenPinned(t *testing.T) {
	spec := AttackSpec{
		Victims:  []string{"ttable"},
		Policies: []string{"treeplru"},
		Defenses: []string{"none", "plcache", "plcache-fix"},
		Probes:   []string{"d=1"},
		Symbols:  6,
		Trials:   3,
	}
	cells := AttackSweep(spec, goldenSeed, RunOptions{Workers: 1})
	want := RenderAttackSweep(cells)
	checkGolden(t, "probesweep", want)

	if got := RenderAttackSweep(AttackSweep(spec, goldenSeed, RunOptions{Workers: 4})); got != want {
		t.Error("d-split sweep at Workers=4 diverges from the serial run")
	}

	byDefense := map[AttackDefense]AttackCell{}
	for _, c := range cells {
		byDefense[c.Defense] = c
	}
	chance := 8.5 // (16+1)/2 for the T-table's nibble space
	if base := byDefense[attack.DefenseNone]; base.Recovery.Mean != 1.0 {
		t.Errorf("baseline d=1 recovery %.2f, want 1.0", base.Recovery.Mean)
	}
	if pl := byDefense[attack.DefensePLCache]; pl.Recovery.Mean <= 1.0/16 || pl.Guesses.Mean > 0.7*chance {
		t.Errorf("plcache d=1 should leak above chance: recovery %.2f, guesses %.1f",
			pl.Recovery.Mean, pl.Guesses.Mean)
	}
	if fix := byDefense[attack.DefensePLCacheFixed]; fix.Recovery.Mean > 0.15 || fix.Guesses.Mean < 0.7*chance {
		t.Errorf("plcache-fix d=1 should sit at chance: recovery %.2f, guesses %.1f",
			fix.Recovery.Mean, fix.Guesses.Mean)
	}
}

// The scheduled attack — victim and attacker as unsynchronized sched
// threads — must still recover the demo key on the baseline cache in
// both sharing modes, pinned alongside the synchronous rows.
func TestScheduledSweepGoldenPinned(t *testing.T) {
	spec := AttackSpec{
		Victims:   []string{"ttable"},
		Policies:  []string{"lru", "treeplru"},
		Defenses:  []string{"none"},
		Schedules: []string{"sync", "smt", "tslice"},
		Symbols:   6,
		Votes:     8,
	}
	cells := AttackSweep(spec, goldenSeed, RunOptions{Workers: 1})
	want := RenderAttackSweep(cells)
	checkGolden(t, "schedsweep", want)

	if got := RenderAttackSweep(AttackSweep(spec, goldenSeed, RunOptions{Workers: 4})); got != want {
		t.Error("scheduled sweep at Workers=4 diverges from the serial run")
	}
	for _, c := range cells {
		if c.Recovery.Mean != 1.0 {
			t.Errorf("%v/%v: recovery %.2f, want 1.0 (the scheduled attack must survive jitter)",
				c.Schedule, c.Policy, c.Recovery.Mean)
		}
	}
}

// The vote-overhead study prices scheduling jitter: the scheduled
// attacks need at least as many votes per symbol as the synchronous
// baseline, and all three schedules reach full recovery by the
// ceiling.
func TestVoteOverheadGoldenPinned(t *testing.T) {
	rows := VoteOverheadStudy("ttable", TreePLRU, 8, 10, goldenSeed, RunOptions{Workers: 1})
	want := RenderVoteOverhead(rows)
	checkGolden(t, "voteoverhead", want)

	votes := map[AttackSchedule]int{}
	for _, r := range rows {
		if !r.Recovered {
			t.Errorf("%v: no full recovery within the vote ceiling", r.Schedule)
		}
		votes[r.Schedule] = r.Votes
	}
	sync := votes[attack.ScheduleSync]
	if sync < 1 {
		t.Fatalf("sync baseline votes = %d", sync)
	}
	for _, sc := range []AttackSchedule{attack.ScheduleSMT, attack.ScheduleTimeSliced} {
		if votes[sc] < sync {
			t.Errorf("%v needs %d votes, fewer than the sync baseline's %d — jitter cannot help",
				sc, votes[sc], sync)
		}
	}
}

// The detection threshold sweep: per-defense ROC curves over the
// cross-eviction criterion, pinned with their AUCs. The semantic
// anchors: the unprotected attacker is cleanly separable from the
// benign Figure 9 population (and caught at the deployed threshold
// with zero false positives), while DAWG's partitioning makes the
// attacker structurally invisible to the criterion.
func TestROCSweepGoldenPinned(t *testing.T) {
	res := ROCSweep(ROCSpec{}, goldenSeed, RunOptions{Workers: 1})
	want := RenderROC(res)
	checkGolden(t, "roc", want)

	if got := RenderROC(ROCSweep(ROCSpec{}, goldenSeed, RunOptions{Workers: 8})); got != want {
		t.Error("ROC sweep at Workers=8 diverges from the serial run")
	}

	byDefense := map[AttackDefense]DefenseROC{}
	for _, c := range res.Curves {
		byDefense[c.Defense] = c
	}
	if none := byDefense[attack.DefenseNone]; none.ROC.AUC < 0.9 {
		t.Errorf("unprotected AUC %.3f, want near-perfect separability", none.ROC.AUC)
	}
	if p := byDefense[attack.DefenseNone].ROC.PointAt(res.Deployed); p.TPR != 1.0 || p.FPR != 0.0 {
		t.Errorf("deployed operating point TPR=%.2f FPR=%.2f, want 1, 0", p.TPR, p.FPR)
	}
	if dawg := byDefense[attack.DefenseDAWG]; dawg.ROC.AUC != 0.0 {
		t.Errorf("DAWG AUC %.3f, want 0 (structurally zero cross-evictions)", dawg.ROC.AUC)
	}
	// Monotone curves: lowering the threshold only adds flags.
	for _, c := range res.Curves {
		for i := 1; i < len(c.ROC.Points); i++ {
			a, b := c.ROC.Points[i-1], c.ROC.Points[i]
			if b.TPR < a.TPR || b.FPR < a.FPR {
				t.Errorf("%v: curve not monotone at point %d", c.Defense, i)
			}
		}
	}
}

// referenceBenignPair is the co-run that benignPairReports stands in
// for: the same generators, slices and address offset, issued one
// hier.Load at a time on the full baseline hierarchy (L1D and L2).
func referenceBenignPair(a, b, refs, slice int, seed uint64) *hier.Hierarchy {
	gens := [2]workload.Generator{workload.SuiteBenchmark(a, seed), workload.SuiteBenchmark(b, seed^0x9e3779b9)}
	h := hier.New(hier.Config{Profile: SandyBridge(), L1Policy: TreePLRU, L2Policy: TreePLRU})
	var issued [2]int
	for turn := 0; issued[0] < refs || issued[1] < refs; turn++ {
		p := turn % 2
		for n := min(slice, refs-issued[p]); n > 0; n-- {
			l := gens[p].Next().Addr/64 + uint64(p)*benignPairTagStride
			h.Load(mem.Addr{Virt: l * 64, Phys: l * 64, VirtLine: l, PhysLine: l}, p)
			issued[p]++
		}
	}
	return h
}

// The ROC negatives co-run on the L1D alone. Their L1D counters must
// equal those of the same co-run on the full baseline hierarchy, for
// pairs covering all 12 suite benchmarks, at slices that cut across
// the staging chunks. A drift in the L1 geometry or policy fails here.
func TestBenignPairL1MatchesHierarchy(t *testing.T) {
	pairs := [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {3, 8}, {1, 11}}
	const refs, slice = 12_000, 2_500
	var evictions, cross uint64
	for _, p := range pairs {
		for _, seed := range []uint64{3, 701} {
			got := benignPairReports(p[0], p[1], refs, slice, seed)
			h := referenceBenignPair(p[0], p[1], refs, slice, seed)
			for r := range got {
				want := h.L1().RequestorStats(r)
				if got[r].Requestor != r || got[r].L1D != want {
					t.Fatalf("pair %v seed %d requestor %d: L1D %+v, hierarchy co-run %+v",
						p, seed, r, got[r].L1D, want)
				}
				evictions += want.Evictions
				cross += want.CrossEvictions
			}
		}
	}
	if evictions == 0 || cross == 0 {
		t.Fatalf("the co-runs never evicted (%d evictions, %d cross): the comparison proves nothing", evictions, cross)
	}
}

// Trials must aggregate: a 2-trial cell reports N == 2 and a flagged
// fraction in [0, 1].
func TestAttackSweepTrialsAggregate(t *testing.T) {
	spec := AttackSpec{
		Victims:  []string{"sqmul"},
		Policies: []string{"treeplru"},
		Defenses: []string{"none"},
		Symbols:  4, Votes: 2, ProfilingRounds: 4,
		Trials: 2,
	}
	cells := AttackSweep(spec, 11, RunOptions{})
	if len(cells) != 1 {
		t.Fatalf("got %d cells", len(cells))
	}
	c := cells[0]
	if c.Recovery.N != 2 {
		t.Errorf("recovery summary over %d trials, want 2", c.Recovery.N)
	}
	if c.AttackerFlagged < 0 || c.AttackerFlagged > 1 || c.VictimFlagged < 0 || c.VictimFlagged > 1 {
		t.Errorf("flagged fractions out of range: %v %v", c.AttackerFlagged, c.VictimFlagged)
	}
}

// Grid names resolve once, before any cell runs: an unknown name panics
// the way an unknown victim does, and alias spellings run one grid.
func TestSweepsResolveNames(t *testing.T) {
	mustPanic := func(name string, run func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		run()
	}
	for _, spec := range []AttackSpec{
		{Policies: []string{"mru2"}},
		{Defenses: []string{"magic"}},
		{Probes: []string{"d=x"}},
		{Schedules: []string{"cooperative"}},
		{Profiles: []ProfileRef{{CPU: "m1"}}},
	} {
		spec.Victims = []string{"ttable"}
		mustPanic(fmt.Sprintf("AttackSweep(%+v)", spec), func() { AttackSweep(spec, 1, RunOptions{Workers: 1}) })
	}
	mustPanic("ROCSweep(policy mru2)", func() { ROCSweep(ROCSpec{Policies: []string{"mru2"}}, 1, RunOptions{Workers: 1}) })
	mustPanic("ROCSweep(defense magic)", func() { ROCSweep(ROCSpec{Defenses: []string{"magic"}}, 1, RunOptions{Workers: 1}) })

	tiny := func(pol, def, probe, sched, cpu string) string {
		return RenderAttackSweep(AttackSweep(AttackSpec{
			Victims: []string{"ttable"}, Policies: []string{pol}, Defenses: []string{def},
			Probes: []string{probe}, Schedules: []string{sched}, Profiles: []ProfileRef{{CPU: cpu}},
			Symbols: 2, Votes: 1, ProfilingRounds: 1,
		}, 3, RunOptions{Workers: 1}))
	}
	if a, b := tiny("Tree-PLRU", "plcache", "d=1", "smt", "Sandy Bridge"), tiny("tree", "pl", "d1", "hyperthreaded", "sandy"); a != b {
		t.Errorf("alias spellings render differently:\n%s\n%s", a, b)
	}

	sets := 128
	prof, err := ProfileRef{CPU: "zen", L1Sets: &sets}.Profile()
	if err != nil || prof.Arch != "Zen" || prof.L1Sets != 128 || prof.L1Ways != Zen().L1Ways {
		t.Errorf("ProfileRef{zen, l1Sets 128} = %s %d×%d, %v", prof.Arch, prof.L1Sets, prof.L1Ways, err)
	}
}
