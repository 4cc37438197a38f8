package core

import (
	"testing"

	"repro/internal/replacement"
)

func studyCfg(pol replacement.Kind) EvictionStudyConfig {
	return EvictionStudyConfig{Policy: pol, Trials: 2000, Seed: 11}
}

// Table I row 1: true LRU evicts line 0 with probability 1 under both
// sequences and both initial conditions, at every iteration.
func TestTableITrueLRUAlwaysEvicts(t *testing.T) {
	for _, cond := range []InitCond{InitRandom, InitSequential} {
		for _, seq := range []Sequence{Seq1, Seq2} {
			res := RunEvictionStudy(studyCfg(replacement.TrueLRU), cond, seq)
			for it, p := range res.Prob {
				if p != 1 {
					t.Errorf("LRU %v seq%d iter %d: P(evict) = %v, want 1", cond, seq, it+1, p)
				}
			}
		}
	}
}

// Table I, Tree-PLRU / Sequence 1: the eviction probability must grow with
// loop iterations and reach ~100% by iteration 8 under both conditions
// (paper: 50.4% -> 82.8% -> 99.2% -> 100% for random init).
func TestTableITreePLRUSeq1Converges(t *testing.T) {
	for _, cond := range []InitCond{InitRandom, InitSequential} {
		res := RunEvictionStudy(studyCfg(replacement.TreePLRU), cond, Seq1)
		if res.Prob[0] < 0.3 || res.Prob[0] > 0.95 {
			t.Errorf("%v iter1 = %v, want mid-range", cond, res.Prob[0])
		}
		if res.Prob[7] < 0.99 {
			t.Errorf("%v iter8 = %v, want ~1", cond, res.Prob[7])
		}
		if res.Prob[2] < res.Prob[0] {
			t.Errorf("%v: eviction probability decreased: %v", cond, res.Prob[:3])
		}
	}
}

// Table I, Tree-PLRU / Sequence 2: saturates around 62%, NOT at 100% —
// the leakage floor that limits Algorithm 2 under hyper-threading.
func TestTableITreePLRUSeq2Saturates(t *testing.T) {
	res := RunEvictionStudy(studyCfg(replacement.TreePLRU), InitRandom, Seq2)
	if res.Prob[7] < 0.45 || res.Prob[7] > 0.8 {
		t.Errorf("Tree-PLRU seq2 iter8 = %v, want ~0.62", res.Prob[7])
	}
}

// Table I, sequential initial condition helps Sequence 1 at iteration 1
// (paper: 50.4% random vs 90.9% sequential for Tree-PLRU) — the reason the
// receiver should keep its lines in order (Section IV-C conclusion).
func TestTableISequentialInitHelps(t *testing.T) {
	rnd := RunEvictionStudy(studyCfg(replacement.TreePLRU), InitRandom, Seq1)
	seq := RunEvictionStudy(studyCfg(replacement.TreePLRU), InitSequential, Seq1)
	if seq.Prob[0] <= rnd.Prob[0] {
		t.Errorf("sequential init (%v) should beat random init (%v) at iteration 1",
			seq.Prob[0], rnd.Prob[0])
	}
}

// Bit-PLRU reaches ~100% on Sequence 1 by iteration 8 (paper: 100%).
func TestTableIBitPLRUSeq1EventuallyEvicts(t *testing.T) {
	res := RunEvictionStudy(studyCfg(replacement.BitPLRU), InitRandom, Seq1)
	if res.Prob[7] < 0.9 {
		t.Errorf("Bit-PLRU seq1 iter8 = %v, want ~1", res.Prob[7])
	}
}

func TestRunTableIShape(t *testing.T) {
	var cells []TableICell
	for _, sp := range TableISpecs() {
		cells = append(cells, RunTableISpec(sp, 500, 3)...)
	}
	// 2 conditions x 3 policies x 2 sequences x 4 iterations.
	if len(cells) != 48 {
		t.Fatalf("Table I has %d cells, want 48", len(cells))
	}
	for _, c := range cells {
		if c.Prob < 0 || c.Prob > 1 {
			t.Errorf("cell %+v out of range", c)
		}
		if c.Policy == replacement.TrueLRU && c.Prob != 1 {
			t.Errorf("LRU cell %+v != 1", c)
		}
	}
}

func TestEvictionStudyDeterministic(t *testing.T) {
	a := RunEvictionStudy(studyCfg(replacement.TreePLRU), InitRandom, Seq2)
	b := RunEvictionStudy(studyCfg(replacement.TreePLRU), InitRandom, Seq2)
	for i := range a.Prob {
		if a.Prob[i] != b.Prob[i] {
			t.Fatalf("same seed, different results at iter %d", i)
		}
	}
}

func TestInitCondString(t *testing.T) {
	if InitRandom.String() != "random" || InitSequential.String() != "sequential" {
		t.Error("InitCond strings wrong")
	}
}

// The study materializes each phase before running it, which only the
// deterministic policies allow; Random must be refused, not simulated.
func TestEvictionStudyRejectsRandom(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunEvictionStudy ran the Random policy")
		}
	}()
	RunEvictionStudy(studyCfg(replacement.Random), InitRandom, Seq1)
}
