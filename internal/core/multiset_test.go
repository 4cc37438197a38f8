package core

import (
	"testing"

	"repro/internal/sched"
)

func multiCfg(seed uint64) Config {
	return Config{
		Algorithm: Alg1SharedMemory, Mode: sched.SMT,
		Tr: 2000, Ts: 20_000, Seed: seed,
	}
}

func TestNewMultiSetupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty set list")
		}
	}()
	NewMultiSetup(multiCfg(1), nil)
}

func TestNewMultiSetupRejectsReservedSet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for reserved-set collision")
		}
	}()
	NewMultiSetup(multiCfg(1), []int{5, 63})
}

// Lane i's lines sit on targetSets[i], also for a list that starts at set
// 0, which the one-lane TargetSet default must not rewrite.
func TestMultiSetupLanesDistinct(t *testing.T) {
	for _, tc := range []struct {
		alg  Algorithm
		sets []int
	}{
		{Alg1SharedMemory, []int{3, 9, 17, 30}},
		{Alg1SharedMemory, []int{0, 9}},
		{Alg2NoSharedMemory, []int{0, 9}},
	} {
		cfg := multiCfg(2)
		cfg.Algorithm = tc.alg
		m := NewMultiSetup(cfg, tc.sets)
		if m.Lanes() != len(tc.sets) {
			t.Fatalf("lanes = %d, want %d", m.Lanes(), len(tc.sets))
		}
		for lane, set := range tc.sets {
			for i, l := range m.lanes[lane].receiver {
				if got := m.Hier.L1().SetIndex(l.PhysLine); got != set {
					t.Errorf("%v sets %v: lane %d line %d in set %d, want %d", tc.alg, tc.sets, lane, i, got, set)
				}
			}
			if got := m.Hier.L1().SetIndex(m.lanes[lane].sender.PhysLine); got != set {
				t.Errorf("%v sets %v: lane %d sender line in set %d, want %d", tc.alg, tc.sets, lane, got, set)
			}
		}
	}
}

func TestMultiSetupAlg1SharesLineZero(t *testing.T) {
	m := NewMultiSetup(multiCfg(3), []int{3, 9})
	for lane, l := range m.lanes {
		if l.sender.PhysLine != l.receiver[0].PhysLine {
			t.Errorf("lane %d: sender and receiver line 0 differ", lane)
		}
	}
}

// The headline extension property: four lanes transfer four bits per
// symbol with high per-bit accuracy under SMT.
func TestMultiSetTransfersParallelBits(t *testing.T) {
	m := NewMultiSetup(multiCfg(4), []int{3, 9, 17, 30})
	words := [][]byte{
		{1, 0, 1, 0},
		{0, 1, 0, 1},
		{1, 1, 0, 0},
	}
	acc := m.MeasureWordAccuracy(words, 150)
	if acc < 0.85 {
		t.Errorf("parallel decode accuracy %v, want >= 0.85", acc)
	}
}

func TestMultiSetAlg2Works(t *testing.T) {
	cfg := multiCfg(5)
	cfg.Algorithm = Alg2NoSharedMemory
	cfg.D = 1
	m := NewMultiSetup(cfg, []int{4, 11})
	words := [][]byte{{1, 0}, {0, 1}}
	acc := m.MeasureWordAccuracy(words, 120)
	if acc < 0.75 {
		t.Errorf("Algorithm 2 parallel accuracy %v", acc)
	}
}

func TestMultiSetThroughputScalesWithLanes(t *testing.T) {
	// Same wall time, more lanes -> more correctly received bits.
	count := func(sets []int) int {
		m := NewMultiSetup(multiCfg(6), sets)
		word := make([]byte, len(sets))
		for i := range word {
			word[i] = byte(i % 2)
		}
		obs := m.RunWords([][]byte{word}, true, 100, 1<<40)
		th := m.Chaser.Threshold()
		ok := 0
		for i, o := range obs {
			if ClassifyBit(o.Latency, th, m.HitMeansOne()) == word[i%len(sets)] {
				ok++
			}
		}
		return ok
	}
	one := count([]int{3})
	four := count([]int{3, 9, 17, 30})
	if four < 3*one {
		t.Errorf("4 lanes delivered %d correct bits vs %d for 1 lane; expected ~4x", four, one)
	}
}

// A run's observations are whole sweeps: maxSweeps sweeps of one
// observation per lane, lane i mod Lanes(), all stamped with the wall
// time the sweep ended.
func TestRunWordsSweepLayout(t *testing.T) {
	m := NewMultiSetup(multiCfg(7), []int{3, 9, 17})
	obs := m.RunWords([][]byte{{1, 0, 1}}, true, 20, 1<<40)
	if len(obs) != 20*3 {
		t.Fatalf("%d observations, want 60", len(obs))
	}
	for i := 0; i < len(obs); i += 3 {
		if obs[i].Wall != obs[i+1].Wall || obs[i].Wall != obs[i+2].Wall {
			t.Fatalf("sweep %d walls %d/%d/%d differ", i/3, obs[i].Wall, obs[i+1].Wall, obs[i+2].Wall)
		}
		if i > 0 && obs[i].Wall <= obs[i-1].Wall {
			t.Fatalf("sweep %d ended at %d, not after %d", i/3, obs[i].Wall, obs[i-1].Wall)
		}
	}
}

// A sweep the wall-clock limit cuts short leaves nothing behind, so the
// observation count stays a whole number of sweeps.
func TestRunScheduleKeepsWholeSweeps(t *testing.T) {
	m := NewMultiSetup(multiCfg(9), []int{3, 9, 17, 30})
	// About one wall limit in ten lands inside a sweep's decode phase.
	for wall := uint64(3_000); wall < 9_000; wall += 37 {
		if obs := m.RunSchedule([][]byte{{1, 1, 0, 0}, {0, 1, 0, 1}}, wall); len(obs)%4 != 0 {
			t.Errorf("wall %d: %d observations, not whole 4-lane sweeps", wall, len(obs))
		}
	}
}

func TestRunWordsStartsNoiseThreads(t *testing.T) {
	cfg := multiCfg(10)
	cfg.NoiseThreads, cfg.NoisePeriod = 2, 500
	m := NewMultiSetup(cfg, []int{3, 9})
	m.RunWords([][]byte{{1, 0}}, true, 50, 1<<40)
	if st := m.Hier.L1().RequestorStats(ReqOther); st.Accesses == 0 {
		t.Error("RunWords ran no noise accesses with NoiseThreads = 2")
	}
}
