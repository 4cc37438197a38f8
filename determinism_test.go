package lruleak

// The engine's contract: a parallel run is bit-identical to a serial
// run, and the engine-based drivers are bit-identical to the
// pre-engine serial drivers. The serial reference implementations below
// are verbatim copies of the hand-rolled trial loops the drivers had
// before the refactor (one pinned figure, one pinned table, plus the
// Table I grid), kept only in this test file.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// serialFigure4 is the pre-refactor Figure4 driver: the inline grid
// loop over Tr × Ts × d running one error-rate experiment per cell.
func serialFigure4(prof Profile, alg core.Algorithm, msgBits, repeats int, seed uint64) []Figure4Point {
	var out []Figure4Point
	for _, tr := range []uint64{600, 1000, 3000} {
		for _, ts := range []uint64{4500, 6000, 12000, 30000} {
			for d := 1; d <= prof.L1Ways; d++ {
				s := NewChannel(ChannelConfig{
					Profile: prof, Algorithm: alg, Mode: sched.SMT,
					Tr: tr, Ts: ts, D: d, Seed: seed + ts + tr + uint64(d),
				})
				res := s.MeasureErrorRate(msgBits, repeats)
				out = append(out, Figure4Point{
					Tr: tr, Ts: ts, D: d,
					RateKbps:  res.RateBps / 1000,
					ErrorRate: res.ErrorRate,
				})
			}
		}
	}
	return out
}

// serialTableIV is the pre-refactor TableIV driver.
func serialTableIV(msgBits, repeats int, seed uint64) []TableIVCell {
	var out []TableIVCell
	for _, prof := range []Profile{SandyBridge(), Zen()} {
		ts, tr := uint64(6000), uint64(600)
		same := false
		if prof.Arch == "Zen" {
			ts, tr = 100_000, 1000
			same = true
		}
		for _, alg := range []core.Algorithm{Alg1SharedMemory, Alg2NoSharedMemory} {
			s := NewChannel(ChannelConfig{
				Profile: prof, Algorithm: alg, Mode: sched.SMT,
				Tr: tr, Ts: ts, Seed: seed,
				SameAddressSpace: same && alg == Alg1SharedMemory,
			})
			res := s.MeasureErrorRate(msgBits, repeats)
			out = append(out, TableIVCell{
				Profile: prof, Mode: sched.SMT, Algorithm: alg,
				RateBps: res.RateBps, ErrorRate: res.ErrorRate,
			})
		}
		k := 10.0
		if prof.Arch == "Zen" {
			k = 100
		}
		trSlice := 100_000_000.0
		out = append(out, TableIVCell{
			Profile: prof, Mode: sched.TimeSliced, Algorithm: Alg1SharedMemory,
			RateBps: prof.Freq * 1e9 / (trSlice * k),
		})
		out = append(out, TableIVCell{
			Profile: prof, Mode: sched.TimeSliced, Algorithm: Alg2NoSharedMemory,
		})
	}
	return out
}

// serialTableI is the pre-refactor core.RunTableI grid loop, copied
// verbatim (it must NOT be built from TableISpecs/RunTableISpec, or the
// comparison would be circular).
func serialTableI(trials int, seed uint64) []core.TableICell {
	var cells []core.TableICell
	for _, cond := range []core.InitCond{core.InitRandom, core.InitSequential} {
		for _, pol := range []ReplacementKind{TrueLRU, TreePLRU, BitPLRU} {
			for _, seq := range []core.Sequence{core.Seq1, core.Seq2} {
				res := core.RunEvictionStudy(core.EvictionStudyConfig{
					Policy: pol, Trials: trials, Seed: seed,
				}, cond, seq)
				for _, it := range []int{1, 2, 3, 8} {
					cells = append(cells, core.TableICell{
						Init: cond, Policy: pol, Seq: seq,
						Iteration: it, Prob: res.Prob[it-1],
					})
				}
			}
		}
	}
	return cells
}

func TestFigure4MatchesSerialReferenceAtAnyWorkerCount(t *testing.T) {
	const msgBits, repeats, seed = 8, 1, 77
	want := RenderFigure4(serialFigure4(SandyBridge(), Alg1SharedMemory, msgBits, repeats, seed))
	if want == "" {
		t.Fatal("empty reference render")
	}
	for _, workers := range []int{1, 8} {
		got := RenderFigure4(Figure4(SandyBridge(), Alg1SharedMemory, msgBits, repeats, seed,
			RunOptions{Workers: workers}))
		if got != want {
			t.Errorf("Figure4 at Workers=%d diverges from the serial reference", workers)
		}
	}
}

func TestTableIVMatchesSerialReferenceAtAnyWorkerCount(t *testing.T) {
	const msgBits, repeats, seed = 16, 1, 41
	want := RenderTableIV(serialTableIV(msgBits, repeats, seed))
	for _, workers := range []int{1, 8} {
		got := RenderTableIV(TableIV(msgBits, repeats, seed, RunOptions{Workers: workers}))
		if got != want {
			t.Errorf("TableIV at Workers=%d diverges from the serial reference", workers)
		}
	}
}

func TestTableIMatchesSerialReferenceAtAnyWorkerCount(t *testing.T) {
	want := RenderTableI(serialTableI(200, 9))
	for _, workers := range []int{1, 8} {
		got := RenderTableI(TableI(200, 9, RunOptions{Workers: workers}))
		if got != want {
			t.Errorf("TableI at Workers=%d diverges from the serial reference", workers)
		}
	}
}

// The remaining grid drivers have no pre-refactor twin to compare
// against (their cell decomposition changed), but parallel and serial
// runs must still render identically.
func TestDriversSerialParallelIdentical(t *testing.T) {
	serial := RunOptions{Workers: 1}
	parallel := RunOptions{Workers: 8}

	t.Run("Figure3", func(t *testing.T) {
		a := Figure3(SandyBridge(), 600, 5, serial).Render()
		b := Figure3(SandyBridge(), 600, 5, parallel).Render()
		if a != b {
			t.Error("Figure3 renders differ")
		}
	})
	t.Run("Figure6", func(t *testing.T) {
		a := RenderFigure6(Figure6(SandyBridge(), []uint64{10_000_000}, 20, 5, serial))
		b := RenderFigure6(Figure6(SandyBridge(), []uint64{10_000_000}, 20, 5, parallel))
		if a != b {
			t.Error("Figure6 renders differ")
		}
	})
	t.Run("TableV", func(t *testing.T) {
		a := RenderTableV(TableV(5, serial))
		b := RenderTableV(TableV(5, parallel))
		if a != b {
			t.Error("TableV renders differ")
		}
	})
	t.Run("TableVII", func(t *testing.T) {
		a := RenderTableVII(TableVII(EncodeString("AB"), 5, serial))
		b := RenderTableVII(TableVII(EncodeString("AB"), 5, parallel))
		if a != b {
			t.Error("TableVII renders differ")
		}
	})
	t.Run("Sweep", func(t *testing.T) {
		spec := SweepSpec{
			Profiles: []Profile{SandyBridge()},
			Policies: []ReplacementKind{TreePLRU, FIFO},
			MsgBits:  8, Repeats: 1,
		}
		a := RenderSweep(Sweep(spec, 5, serial))
		b := RenderSweep(Sweep(spec, 5, parallel))
		if a != b {
			t.Error("Sweep renders differ")
		}
		if len(Sweep(spec, 5, serial)) != 4 {
			t.Error("sweep grid shape")
		}
	})
}

// --- golden pinning ---
//
// The testdata/ goldens are the spec: every paper table, figure, sweep
// and ablation is pinned byte-for-byte at a fixed seed. This file pins
// the perfctr tables (VI, VII), the securesim defence-cost study
// (Figure 9) and the stream sweep; papergolden_test.go pins the other
// tables and figures plus ablations.golden; attacksweep_test.go and
// leakagesweep_test.go pin the attack, ROC and leakage grids. The
// simulator is exactly reproducible from a seed, so these goldens are
// machine-independent; a diff means an (intended or not) behaviour
// change in the simulator, the drivers, or the renderers. Regenerate
// with UPDATE_GOLDEN=1 go test -run Golden .

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file instead when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverges from golden %s:\n--- got ---\n%s--- want ---\n%s",
			name, path, got, want)
	}
}

const goldenSeed = 7

func TestTableVIGoldenPinned(t *testing.T) {
	want := RenderTableVI(TableVI(50, goldenSeed, RunOptions{Workers: 1}))
	checkGolden(t, "table6", want)
	if got := RenderTableVI(TableVI(50, goldenSeed, RunOptions{Workers: 8})); got != want {
		t.Error("Table VI diverges across worker counts")
	}
}

func TestTableVIIGoldenPinned(t *testing.T) {
	want := RenderTableVII(TableVII(EncodeString("AB"), goldenSeed, RunOptions{Workers: 1}))
	checkGolden(t, "table7", want)
	if got := RenderTableVII(TableVII(EncodeString("AB"), goldenSeed, RunOptions{Workers: 8})); got != want {
		t.Error("Table VII diverges across worker counts")
	}
}

func TestFigure9GoldenPinned(t *testing.T) {
	want := RenderFigure9(Figure9(50_000, goldenSeed, RunOptions{Workers: 1}))
	checkGolden(t, "figure9", want)
	if got := RenderFigure9(Figure9(50_000, goldenSeed, RunOptions{Workers: 8})); got != want {
		t.Error("Figure 9 diverges across worker counts")
	}
}

// The stream sweep (the transport layer's capacity grid) must be
// bit-identical across worker counts, like every other engine driver.
func TestStreamSweepWorkersIdentical(t *testing.T) {
	spec := StreamSpec{
		Codecs:       []string{"none", "hamming74"},
		LaneCounts:   []int{4},
		NoiseThreads: []int{0, 3},
		PayloadBytes: 48,
	}
	want := RenderStreamSweep(StreamSweep(spec, goldenSeed, RunOptions{Workers: 1}))
	checkGolden(t, "streamsweep", want)
	for _, workers := range []int{2, 8} {
		got := RenderStreamSweep(StreamSweep(spec, goldenSeed, RunOptions{Workers: workers}))
		if got != want {
			t.Errorf("stream sweep at Workers=%d diverges from the serial run", workers)
		}
	}
}
