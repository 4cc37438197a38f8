package secure_test

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/replacement"
	"repro/internal/secure"
	"repro/internal/victim"
)

// The exact accuracies `securesim -design both` prints at its default
// seed. Both experiments are deterministic in the seed, so any change to
// the DAWG or random-fill models' lookup, fill, victim choice or
// generator draw order moves them.
func TestSecureSimDesignsPinned(t *testing.T) {
	if got := secure.DAWGLeakExperiment(4000, 2020); got != 0.477 {
		t.Errorf("DAWGLeakExperiment(4000, 2020) = %v, want 0.477", got)
	}
	if got := secure.RandomFillLeakExperiment(1000, 120, 2020); got != 0.934 {
		t.Errorf("RandomFillLeakExperiment(1000, 120, 2020) = %v, want 0.934", got)
	}
}

// A key-recovery run against DAWG reports consistent L1D counters for
// both parties and no cross-domain evictions: a domain's lines are
// installed and displaced only by that domain. The exact counts pin
// what the steady phase sees once the warm-up's counters are zeroed:
// every access of either party hits inside its own partition.
func TestDAWGAttackReportsPinned(t *testing.T) {
	for _, tc := range []struct {
		victim                 string
		pol                    replacement.Kind
		victimHits, victimMiss uint64
		attHits, attMiss       uint64
	}{
		{"ttable", replacement.TreePLRU, 5200, 0, 1024, 0},
		{"ttable", replacement.Random, 5200, 0, 1024, 0},
		{"lookup", replacement.TreePLRU, 5200, 0, 512, 0},
	} {
		v, err := victim.ByName(tc.victim, 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg := attack.Config{Victim: v, Defense: attack.DefenseDAWG, Policy: tc.pol, Seed: 7}
		res := attack.Run(cfg, victim.DemoSecret(v, 4, 99))
		check := func(side string, s cache.Stats, hits, misses uint64) {
			if s.Accesses != s.Hits+s.Misses {
				t.Errorf("%s/%v %s: L1D accesses %d != hits %d + misses %d", tc.victim, tc.pol, side, s.Accesses, s.Hits, s.Misses)
			}
			if s.CrossEvictions != 0 {
				t.Errorf("%s/%v %s: %d cross-domain evictions, want 0", tc.victim, tc.pol, side, s.CrossEvictions)
			}
			if s.Hits != hits || s.Misses != misses {
				t.Errorf("%s/%v %s: L1D hits/misses %d/%d, want %d/%d", tc.victim, tc.pol, side, s.Hits, s.Misses, hits, misses)
			}
		}
		check("victim", res.VictimReport.L1D, tc.victimHits, tc.victimMiss)
		check("attacker", res.AttackerReport.L1D, tc.attHits, tc.attMiss)
	}
}
