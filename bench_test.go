package lruleak

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md §5. Each bench regenerates its
// experiment end to end; emitBench attaches the headline quantity so
// `go test -bench` output doubles as a results table, and writes one JSON
// line per benchmark when BENCH_JSON is set (see benchreport_test.go).
//
// The drivers run through internal/engine; benches that measure the
// engine's parallel speedup pin Workers explicitly, the rest use the
// session default.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/replacement"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/codec"
	"repro/internal/uarch"
	"repro/internal/victim"
)

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := TableI(1000, 1, RunOptions{})
		if len(cells) != 48 {
			b.Fatal("table shape")
		}
	}
	emitBench(b, nil)
}

func BenchmarkFigure3PointerChase(b *testing.B) {
	var sep int
	for i := 0; i < b.N; i++ {
		p := Figure3(SandyBridge(), 500, uint64(i+1), RunOptions{})
		if p.Separable {
			sep++
		}
	}
	emitBench(b, map[string]float64{"separable-frac": float64(sep) / float64(b.N)})
}

func BenchmarkFigure13SingleAccess(b *testing.B) {
	var sep int
	for i := 0; i < b.N; i++ {
		p := Figure13(SandyBridge(), 500, uint64(i+1), RunOptions{})
		if p.Separable {
			sep++
		}
	}
	// Appendix A: this should stay at 0.
	emitBench(b, map[string]float64{"separable-frac": float64(sep) / float64(b.N)})
}

func BenchmarkFigure4Alg1(b *testing.B) {
	emitBench(b, map[string]float64{"mean-error-rate": benchFigure4(b, Alg1SharedMemory)})
}

func BenchmarkFigure4Alg2(b *testing.B) {
	emitBench(b, map[string]float64{"mean-error-rate": benchFigure4(b, Alg2NoSharedMemory)})
}

// benchFigure4 regenerates the sweep b.N times and returns the mean
// per-cell error rate across iterations.
func benchFigure4(b *testing.B, alg core.Algorithm) float64 {
	var mean float64
	for i := 0; i < b.N; i++ {
		pts := Figure4(SandyBridge(), alg, 32, 2, uint64(i+1), RunOptions{})
		var sum float64
		for _, p := range pts {
			sum += p.ErrorRate
		}
		mean += sum / float64(len(pts))
	}
	return mean / float64(b.N)
}

func BenchmarkFigure5Trace(b *testing.B) {
	var cyclesPerBit float64
	for i := 0; i < b.N; i++ {
		f := Figure5(SandyBridge(), Alg1SharedMemory, 200, uint64(i+1), RunOptions{})
		if len(f.Trace.Observations) != 200 {
			b.Fatal("trace length")
		}
		if f.Trace.BitsSent > 0 {
			cyclesPerBit = float64(f.Trace.Elapsed) / float64(f.Trace.BitsSent)
		}
	}
	emitBench(b, map[string]float64{"sim-cycles-per-bit": cyclesPerBit})
}

func BenchmarkFigure6TimeSliced(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		pts := Figure6(SandyBridge(), []uint64{10_000_000}, 40, uint64(i+1), RunOptions{})
		var f0, f1 float64
		for _, p := range pts {
			if p.D == 8 && p.SendingBit == 0 {
				f0 = p.FractionOnes
			}
			if p.D == 8 && p.SendingBit == 1 {
				f1 = p.FractionOnes
			}
		}
		gap += f1 - f0
	}
	emitBench(b, map[string]float64{"d8-separation": gap / float64(b.N)})
}

func BenchmarkFigure7AMDTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := Figure7(Alg1SharedMemory, 300, uint64(i+1), RunOptions{})
		if len(f.Smoothed) != len(f.Trace.Observations) {
			b.Fatal("smoothing length")
		}
	}
	emitBench(b, nil)
}

func BenchmarkFigure8AMDTimeSliced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := Figure6(Zen(), []uint64{10_000_000}, 30, uint64(i+1), RunOptions{})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
	emitBench(b, nil)
}

func BenchmarkFigure9ReplacementPolicies(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		rows := Figure9(300_000, uint64(i+1), RunOptions{})
		var fifo []float64
		for _, r := range rows {
			fifo = append(fifo, r.NormCPI["FIFO"])
		}
		geo = geomean(fifo)
	}
	emitBench(b, map[string]float64{"fifo-cpi-vs-plru": geo})
}

func BenchmarkFigure11PLCache(b *testing.B) {
	var sep float64
	for i := 0; i < b.N; i++ {
		res := Figure11(150, uint64(i+1), RunOptions{})
		sep += res.Original.Separation - res.Fixed.Separation
	}
	emitBench(b, map[string]float64{"leak-amplitude-removed": sep / float64(b.N)})
}

func BenchmarkFigure14SkylakeTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := Figure5(Skylake(), Alg1SharedMemory, 200, uint64(i+1), RunOptions{})
		if len(f.Trace.Observations) != 200 {
			b.Fatal("trace length")
		}
	}
	emitBench(b, nil)
}

func BenchmarkFigure15SkylakeTimeSliced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := Figure6(Skylake(), []uint64{10_000_000}, 30, uint64(i+1), RunOptions{})
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
	emitBench(b, nil)
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := TableIV(32, 2, uint64(i+1), RunOptions{})
		if len(cells) != 8 {
			b.Fatalf("table IV has %d cells", len(cells))
		}
	}
	emitBench(b, nil)
}

// speedupVariants enumerates the worker counts of the parallel-speedup
// benchmarks. The workers=all variant is meaningless on a single-core
// runner — the "parallel" run is the serial run plus pool overhead, and
// publishing its 1.0x ratio misled a whole baseline — so it is skipped
// there, and every variant records the worker count that actually ran
// plus GOMAXPROCS so the emitted JSON is self-describing.
func speedupVariants(b *testing.B, run func(b *testing.B, workers int)) {
	procs := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=all", procs}} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.name == "workers=all" && procs == 1 {
				b.Skip("GOMAXPROCS=1: workers=all would be the workers=1 run; skipping the meaningless 1.0x ratio")
			}
			run(b, bc.workers)
			emitBench(b, map[string]float64{
				"workers":    float64(RunOptions{Workers: bc.workers}.ResolvedWorkers()),
				"gomaxprocs": float64(procs),
			})
		})
	}
}

// BenchmarkTableIVParallelSpeedup is the engine's headline number: the
// same full Table IV sweep at one worker and at all cores. On a
// multi-core runner the ns/op ratio between the two sub-benches is the
// wall-time speedup (>= 2x expected: the sweep's two heavyweight Zen
// cells run concurrently instead of back to back).
func BenchmarkTableIVParallelSpeedup(b *testing.B) {
	speedupVariants(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			cells := TableIV(32, 2, uint64(i+1), RunOptions{Workers: workers})
			if len(cells) != 8 {
				b.Fatal("table shape")
			}
		}
	})
}

// BenchmarkSweepParallelSpeedup scales further than Table IV: a 24-cell
// profile × policy grid, where the engine's speedup approaches the core
// count because the cells are uniform.
func BenchmarkSweepParallelSpeedup(b *testing.B) {
	spec := SweepSpec{
		Policies: []ReplacementKind{TreePLRU, BitPLRU, FIFO, Random},
		MsgBits:  16, Repeats: 1,
	}
	speedupVariants(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			cells := Sweep(spec, uint64(i+1), RunOptions{Workers: workers})
			if len(cells) != 24 {
				b.Fatalf("sweep has %d cells", len(cells))
			}
		}
	})
}

func BenchmarkTableV(b *testing.B) {
	var lru float64
	for i := 0; i < b.N; i++ {
		rows := TableV(uint64(i+1), RunOptions{})
		lru = float64(rows[0].LRU)
	}
	emitBench(b, map[string]float64{"lru-encode-cycles": lru})
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := TableVI(100, uint64(i+1), RunOptions{})
		if len(rows) != 12 {
			b.Fatalf("table VI has %d rows", len(rows))
		}
	}
	emitBench(b, nil)
}

func BenchmarkTableVII(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		rows := TableVII(EncodeString("KEY"), uint64(i+1), RunOptions{})
		for _, r := range rows {
			if r.Disclosure == spectre.LRUAlg1 {
				acc += r.Accuracy
			}
		}
	}
	emitBench(b, map[string]float64{"lru-alg1-recovery": acc / float64(2*b.N)})
}

func BenchmarkSpectreLRUChannel(b *testing.B) {
	secret := EncodeString("THE MAGIC WORDS ARE SQUEAMISH OSSIFRAGE")
	var acc float64
	for i := 0; i < b.N; i++ {
		a := NewSpectre(SpectreConfig{Disclosure: DiscLRUAlg1, Seed: uint64(i + 1)}, secret)
		acc += a.Accuracy()
	}
	emitBench(b, map[string]float64{"recovery-accuracy": acc / float64(b.N)})
}

// --- Ablation benches (DESIGN.md §5) ---

// Associativity sweep for the Table I study: eviction reliability of
// Tree-PLRU Sequence 1 across 4/8/16 ways.
func BenchmarkAblationAssociativity(b *testing.B) {
	for _, ways := range []int{4, 8, 16} {
		b.Run(benchName("ways", ways), func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				res := core.RunEvictionStudy(core.EvictionStudyConfig{
					Policy: replacement.TreePLRU, Ways: ways,
					Trials: 2000, Seed: uint64(i + 1),
				}, core.InitSequential, core.Seq1)
				p = res.Prob[0]
			}
			emitBench(b, map[string]float64{"evict-prob-iter1": p})
		})
	}
}

// Pointer-chase chain-length sweep: how many local elements the probe needs
// before hit and miss separate on the Sandy Bridge profile.
func BenchmarkAblationChainLength(b *testing.B) {
	for _, chain := range []int{3, 5, 7, 11, 15} {
		b.Run(benchName("chain", chain), func(b *testing.B) {
			var sep int
			for i := 0; i < b.N; i++ {
				s := NewChannel(ChannelConfig{ChainLen: chain, Seed: uint64(i + 1)})
				if chaseSeparates(s) {
					sep++
				}
			}
			emitBench(b, map[string]float64{"separable-frac": float64(sep) / float64(b.N)})
		})
	}
}

// TSC-granularity sweep: at what readout quantum the single-shot channel
// dies (the Intel vs AMD order-of-magnitude gap of Section VI).
func BenchmarkAblationTSCGranularity(b *testing.B) {
	for _, quantum := range []int{1, 4, 8, 16, 24, 48} {
		b.Run(benchName("quantum", quantum), func(b *testing.B) {
			prof := uarch.SandyBridge()
			prof.TSCQuantum = quantum
			var err float64
			for i := 0; i < b.N; i++ {
				s := NewChannel(ChannelConfig{
					Profile: prof, Algorithm: Alg1SharedMemory,
					Mode: sched.SMT, Tr: 600, Ts: 6000, Seed: uint64(i + 1),
				})
				err += s.MeasureErrorRate(32, 3).ErrorRate
			}
			emitBench(b, map[string]float64{"error-rate": err / float64(b.N)})
		})
	}
}

// d-parity ablation: the Section V-A observation that even d fails on
// Tree-PLRU for Algorithm 2.
func BenchmarkAblationDParity(b *testing.B) {
	for _, d := range []int{1, 2, 4, 5} {
		b.Run(benchName("d", d), func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				s := NewChannel(ChannelConfig{
					Algorithm: Alg2NoSharedMemory, Mode: sched.SMT,
					Tr: 600, Ts: 6000, D: d, Seed: uint64(i + 1),
				})
				err += s.MeasureErrorRate(32, 3).ErrorRate
			}
			emitBench(b, map[string]float64{"error-rate": err / float64(b.N)})
		})
	}
}

// Spectre rounds ablation: randomized-round averaging vs the prefetcher
// (Appendix C).
func BenchmarkAblationSpectreRounds(b *testing.B) {
	secret := EncodeString("KEY")
	for _, rounds := range []int{1, 4, 16} {
		b.Run(benchName("rounds", rounds), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				a := NewSpectre(SpectreConfig{
					Disclosure: DiscLRUAlg2, Prefetcher: PrefetchNextLine,
					Rounds: rounds, Seed: uint64(i + 1),
				}, secret)
				acc += a.Accuracy()
			}
			emitBench(b, map[string]float64{"recovery-accuracy": acc / float64(b.N)})
		})
	}
}

// Minimum speculation window per disclosure primitive (Section VIII).
func BenchmarkAblationSpeculationWindow(b *testing.B) {
	secret := EncodeString("AB")
	for _, d := range []struct {
		name string
		disc spectre.Disclosure
	}{{"lru1", spectre.LRUAlg1}, {"lru2", spectre.LRUAlg2}, {"frmem", spectre.FRMem}} {
		b.Run(d.name, func(b *testing.B) {
			var w float64
			for i := 0; i < b.N; i++ {
				w = float64(spectre.MinimumWindow(
					SpectreConfig{Disclosure: d.disc, Seed: uint64(i + 1)},
					secret, 1.0, 4, 400))
			}
			emitBench(b, map[string]float64{"min-window-cycles": w})
		})
	}
}

// Multi-set parallel channel (Section IV extension): per-bit accuracy and
// effective parallel throughput with 4 lanes.
func BenchmarkMultiSetChannel(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		m := NewMultiChannel(ChannelConfig{
			Algorithm: Alg1SharedMemory, Mode: sched.SMT,
			Tr: 2000, Ts: 20_000, Seed: uint64(i + 1),
		}, []int{3, 9, 17, 30})
		acc += m.MeasureWordAccuracy([][]byte{{1, 0, 1, 0}, {0, 1, 1, 0}}, 100)
	}
	emitBench(b, map[string]float64{"per-bit-accuracy": acc / float64(b.N)})
}

// Streaming-transport goodput ablation: end-to-end payload transfer
// (framing + ECC + lane striping) across codec × lanes × noise, at the
// stream demo operating point. The headline metrics are delivered
// goodput and residual frame-error rate — the transport-layer
// restatement of Figure 4's capacity-vs-reliability trade.
func BenchmarkStreamGoodput(b *testing.B) {
	for _, cname := range codec.Names() {
		for _, lanes := range []int{1, 4} {
			for _, noise := range []int{0, 3} {
				name := fmt.Sprintf("codec=%s/lanes=%d/noise=%d", cname, lanes, noise)
				b.Run(name, func(b *testing.B) {
					c, err := codec.ByName(cname)
					if err != nil {
						b.Fatal(err)
					}
					var goodput, fer, byteErrs float64
					for i := 0; i < b.N; i++ {
						pt := transport.MeasureCapacity(transport.Config{
							Channel: core.Config{
								Algorithm: core.Alg1SharedMemory, Mode: sched.SMT,
								Tr: 2000, Ts: 8000,
								NoiseThreads: noise, NoisePeriod: 2000,
							},
							Lanes: transport.DefaultLanes(lanes),
							Codec: c,
						}, 64, uint64(i+1))
						goodput += pt.GoodputBps
						fer += pt.FrameErrorRate
						byteErrs += float64(pt.ByteErrors)
					}
					emitBench(b, map[string]float64{
						"goodput-kbps":     goodput / float64(b.N) / 1000,
						"frame-error-rate": fer / float64(b.N),
						"byte-errors":      byteErrs / float64(b.N),
					})
				})
			}
		}
	}
}

// InvisiSpec mitigation (Section IX-B): recovery accuracy with and without.
func BenchmarkAblationInvisiSpec(b *testing.B) {
	secret := EncodeString("KEY")
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				a := NewSpectre(SpectreConfig{
					Disclosure: DiscLRUAlg1, InvisiSpec: on, Seed: uint64(i + 1),
				}, secret)
				acc += a.Accuracy()
			}
			emitBench(b, map[string]float64{"recovery-accuracy": acc / float64(b.N)})
		})
	}
}

// Key-recovery ablation (victim × defense): the secret-recovery
// subsystem end to end — template profiling, recovery, detection — per
// cell of the defense matrix. Headline metrics: exact-recovery rate,
// guesses-to-first-correct, and whether the monitor flagged each party.
func BenchmarkKeyRecovery(b *testing.B) {
	for _, vname := range victim.Names() {
		for _, def := range attack.Defenses() {
			b.Run(fmt.Sprintf("victim=%s/defense=%v", vname, def), func(b *testing.B) {
				v, err := victim.ByName(vname, 64)
				if err != nil {
					b.Fatal(err)
				}
				secret := victim.DemoSecret(v, 8, 42)
				var rec, guesses, attFlagged, vicClean float64
				for i := 0; i < b.N; i++ {
					res := attack.Run(attack.Config{
						Victim: v, Defense: def, Policy: replacement.TreePLRU,
						Seed: uint64(i + 1),
					}, secret)
					rec += res.RecoveryRate
					guesses += res.MeanGuesses
					if res.AttackerVerdict == detect.Suspicious {
						attFlagged++
					}
					if res.VictimVerdict == detect.Benign {
						vicClean++
					}
				}
				emitBench(b, map[string]float64{
					"recovery-rate":    rec / float64(b.N),
					"mean-guesses":     guesses / float64(b.N),
					"attacker-flagged": attFlagged / float64(b.N),
					"victim-clean":     vicClean / float64(b.N),
				})
			})
		}
	}
}

// Scheduled key recovery: the attack run as unsynchronized sched
// threads (SMT and time-sliced), the regression watch for the
// scheduler-native attack path. Votes sit above the measured jitter
// overhead so the quality metric pins full recovery.
func BenchmarkScheduledKeyRecovery(b *testing.B) {
	for _, sc := range []attack.Schedule{attack.ScheduleSMT, attack.ScheduleTimeSliced} {
		b.Run(fmt.Sprintf("schedule=%v", sc), func(b *testing.B) {
			v, err := victim.ByName("ttable", 64)
			if err != nil {
				b.Fatal(err)
			}
			secret := victim.DemoSecret(v, 8, 42)
			var rec, guesses float64
			for i := 0; i < b.N; i++ {
				res := attack.Run(attack.Config{
					Victim: v, Policy: replacement.TreePLRU,
					Schedule: sc, Votes: 8, Seed: uint64(i + 1),
				}, secret)
				rec += res.RecoveryRate
				guesses += res.MeanGuesses
			}
			emitBench(b, map[string]float64{
				"recovery-rate": rec / float64(b.N),
				"mean-guesses":  guesses / float64(b.N),
			})
		})
	}
}

// The d-split partial prime against the PL-cache variants: the quality
// metrics pin the Figure 11 separation (original leaks, fix at
// chance) that the canonical prime cannot see.
func BenchmarkDSplitProbe(b *testing.B) {
	for _, def := range []attack.Defense{attack.DefensePLCache, attack.DefensePLCacheFixed} {
		b.Run(fmt.Sprintf("defense=%v", def), func(b *testing.B) {
			v, err := victim.ByName("ttable", 64)
			if err != nil {
				b.Fatal(err)
			}
			secret := victim.DemoSecret(v, 8, 42)
			var rec, guesses float64
			for i := 0; i < b.N; i++ {
				res := attack.Run(attack.Config{
					Victim: v, Defense: def, Policy: replacement.TreePLRU,
					Probe: attack.ProbeDSplit(1), Seed: uint64(i + 1),
				}, secret)
				rec += res.RecoveryRate
				guesses += res.MeanGuesses
			}
			emitBench(b, map[string]float64{
				"recovery-rate": rec / float64(b.N),
				"mean-guesses":  guesses / float64(b.N),
			})
		})
	}
}

// The detection threshold sweep end to end; the per-defense AUCs are
// the quality metrics (a drifting AUC means the attacker's or the
// benign suite's counter profile moved).
func BenchmarkROCSweep(b *testing.B) {
	metrics := map[string]float64{}
	for i := 0; i < b.N; i++ {
		res := ROCSweep(ROCSpec{}, uint64(i+1), RunOptions{})
		for _, c := range res.Curves {
			metrics["auc-"+c.Defense.String()] = c.ROC.AUC
		}
	}
	emitBench(b, metrics)
}

// Detection evasion (Sections VII/X): fraction of runs in which a
// miss-rate monitor flags the F+R sender but not the LRU sender.
func BenchmarkDetectionEvasion(b *testing.B) {
	var evaded int
	for i := 0; i < b.N; i++ {
		m := detect.NewMonitor(detect.Thresholds{})
		sFR := NewChannel(ChannelConfig{Algorithm: Alg1SharedMemory, Mode: sched.SMT,
			Tr: 600, Ts: 6000, Seed: uint64(2*i + 1)})
		NewBaseline(FlushReloadMem, sFR).Run([]byte{1, 0}, true, 600, 1<<40)
		sLRU := NewChannel(ChannelConfig{Algorithm: Alg1SharedMemory, Mode: sched.SMT,
			Tr: 600, Ts: 6000, Seed: uint64(2*i + 2)})
		sLRU.Run([]byte{1, 0}, true, 600, 1<<40)
		frCaught := m.ClassifyProcess(sFR.Hier, core.ReqSender) == detect.Suspicious
		lruMissed := m.ClassifyProcess(sLRU.Hier, core.ReqSender) == detect.Benign
		if frCaught && lruMissed {
			evaded++
		}
	}
	emitBench(b, map[string]float64{"fr-caught-lru-missed": float64(evaded) / float64(b.N)})
}

// --- helpers ---

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func geomean(xs []float64) float64 { return perf.GeoMean(xs) }

func chaseSeparates(s *Channel) bool {
	target := s.ReceiverLines[0]
	var hits, misses []float64
	for i := 0; i < 200; i++ {
		s.Hier.Load(target, 1)
		s.Chaser.WarmUp()
		hits = append(hits, s.Chaser.Measure(target).Observed)
		s.Hier.L1().Flush(target.PhysLine)
		s.Chaser.WarmUp()
		misses = append(misses, s.Chaser.Measure(target).Observed)
		s.Hier.Flush(target.PhysLine)
	}
	all := append(append([]float64{}, hits...), misses...)
	return separationError(hits, misses, otsu(all)) < 0.05
}

func otsu(xs []float64) float64 { return stats.OtsuThreshold(xs) }

// BenchmarkMetricsOverhead prices the engine's per-cell telemetry: the
// same many-small-cell grid on a persistent pool, uninstrumented vs
// instrumented. The cells are deliberately tiny (~µs of xorshift work
// through a pooled workspace) so the per-cell hooks — a handful of
// atomic adds plus a histogram observe — are as visible as they can
// ever be; real experiment cells are orders of magnitude heavier. CI
// pins telemetry=on to >= 0.8x the telemetry=off sibling via
// cmd/benchdiff -require, a box-speed-immune guard that the hooks stay
// in the noise.
func BenchmarkMetricsOverhead(b *testing.B) {
	const cells = 256
	jobs := make([]engine.Job[uint64], cells)
	for i := range jobs {
		jobs[i] = engine.Job[uint64]{
			Name: fmt.Sprintf("cell%d", i),
			Seed: uint64(i + 1),
			RunW: func(seed uint64, ws *engine.Workspace) uint64 {
				buf := ws.Get("scratch", func() any { return make([]uint64, 64) }).([]uint64)
				x := seed
				for k := 0; k < 2048; k++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					buf[k&63] += x
				}
				return x
			},
		}
	}
	run := func(b *testing.B, pool *engine.Pool) uint64 {
		var sink uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range engine.Run(jobs, engine.Options{Pool: pool}) {
				sink ^= res.Value
			}
		}
		return sink
	}

	b.Run("telemetry=off", func(b *testing.B) {
		pool := engine.NewPool(0)
		defer pool.Close()
		run(b, pool)
		emitBench(b, map[string]float64{"cells": cells})
	})
	b.Run("telemetry=on", func(b *testing.B) {
		reg := metrics.NewRegistry()
		tel := engine.NewTelemetry(reg)
		pool := engine.NewPoolWithTelemetry(0, tel)
		defer pool.Close()
		run(b, pool)
		es := metrics.Snapshot(reg)
		want := float64(b.N * cells)
		if es["engine_cells_completed_total"] != want || es["engine_cell_wall_seconds.count"] != want {
			b.Fatalf("telemetry lost cells: completed=%v histogram=%v, want %v",
				es["engine_cells_completed_total"], es["engine_cell_wall_seconds.count"], want)
		}
		emitBench(b, map[string]float64{"cells": cells})
	})
}

// BenchmarkLeakageEnumeration times the reachable-state-space
// enumerator on the two paths the leakage study exercises: the
// exhaustive BFS (Tree-PLRU at 16 ways, 32768 states) and the sampling
// fallback (true LRU at 16 ways, whose 16! closure blows the cap, so
// that run pays the capped BFS plus the full sampling budget). CI's
// benchdiff pin holds the exhaustive path well ahead of the sampled
// one — if BFS ever drifts toward the fallback's cost, the MaxStates
// cap is mis-set.
func BenchmarkLeakageEnumeration(b *testing.B) {
	b.Run("mode=exhaustive", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			sp := leakage.Enumerate(replacement.TreePLRU, 16, leakage.Options{})
			if !sp.Exhaustive {
				b.Fatal("Tree-PLRU/16 should enumerate exhaustively")
			}
			states = len(sp.States)
		}
		emitBench(b, map[string]float64{"states": float64(states)})
	})
	b.Run("mode=sampled", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			sp := leakage.Enumerate(replacement.TrueLRU, 16, leakage.Options{})
			if sp.Exhaustive {
				b.Fatal("true LRU/16 should fall back to sampling")
			}
			cov = sp.Coverage
		}
		emitBench(b, map[string]float64{"coverage": cov})
	})
}
