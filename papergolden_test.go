package lruleak

// The paper's evaluation pinned byte-for-byte: every table and figure
// that no other golden covers, rendered by its own renderer at seed 1,
// plus ablations.golden for the results that have no driver of their
// own (the Spectre LRU channel, the ablations DESIGN.md §5 lists, the
// multi-set channel, stream goodput, the key-recovery victim × defense
// grid and detection evasion). Each golden must also be identical at
// every worker count. Regenerate with UPDATE_GOLDEN=1 go test -run Golden .

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/replacement"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/codec"
	"repro/internal/uarch"
	"repro/internal/victim"
)

// paperSeed is the seed every golden in this file renders at.
const paperSeed = 1

// paperGoldens maps each testdata/<name>.golden to the run that renders
// it. Trial counts are sized so the whole set stays a few seconds of
// single-worker compute.
var paperGoldens = []struct {
	name   string
	render func(opt RunOptions) string
}{
	{"table1", func(opt RunOptions) string { return RenderTableI(TableI(1000, paperSeed, opt)) }},
	{"table4", func(opt RunOptions) string { return RenderTableIV(TableIV(32, 2, paperSeed, opt)) }},
	{"table5", func(opt RunOptions) string { return RenderTableV(TableV(paperSeed, opt)) }},
	{"figure3", func(opt RunOptions) string { return Figure3(SandyBridge(), 500, paperSeed, opt).Render() }},
	{"figure4alg1", func(opt RunOptions) string {
		return RenderFigure4(Figure4(SandyBridge(), Alg1SharedMemory, 32, 2, paperSeed, opt))
	}},
	{"figure4alg2", func(opt RunOptions) string {
		return RenderFigure4(Figure4(SandyBridge(), Alg2NoSharedMemory, 32, 2, paperSeed, opt))
	}},
	{"figure5", func(opt RunOptions) string {
		return Figure5(SandyBridge(), Alg1SharedMemory, 200, paperSeed, opt).Render()
	}},
	{"figure6", func(opt RunOptions) string {
		return RenderFigure6(Figure6(SandyBridge(), []uint64{10_000_000}, 40, paperSeed, opt))
	}},
	{"figure7", func(opt RunOptions) string { return Figure7(Alg1SharedMemory, 300, paperSeed, opt).Render() }},
	{"figure8", func(opt RunOptions) string {
		return RenderFigure6(Figure6(Zen(), []uint64{10_000_000}, 30, paperSeed, opt))
	}},
	{"figure11", func(opt RunOptions) string { return Figure11(150, paperSeed, opt).Render() }},
	{"figure13", func(opt RunOptions) string { return Figure13(SandyBridge(), 500, paperSeed, opt).Render() }},
	{"figure14", func(opt RunOptions) string {
		return Figure5(Skylake(), Alg1SharedMemory, 200, paperSeed, opt).Render()
	}},
	{"figure15", func(opt RunOptions) string {
		return RenderFigure6(Figure6(Skylake(), []uint64{10_000_000}, 30, paperSeed, opt))
	}},
	{"ablations", renderAblations},
}

func TestPaperGoldenPinned(t *testing.T) {
	for _, g := range paperGoldens {
		t.Run(g.name, func(t *testing.T) {
			want := g.render(RunOptions{Workers: 1})
			checkGolden(t, g.name, want)
			for _, workers := range []int{2, 8} {
				if got := g.render(RunOptions{Workers: workers}); got != want {
					t.Errorf("%s at Workers=%d diverges from the serial run", g.name, workers)
				}
			}
		})
	}
}

// renderAblations runs one engine job per line of ablations.golden.
// Each line calls one library API and prints the values it returns.
func renderAblations(opt RunOptions) string {
	var jobs []engine.Job[string]
	line := func(label string, run func(seed uint64) string) {
		jobs = append(jobs, engine.Job[string]{
			Name: label, Seed: paperSeed,
			Run: func(seed uint64) string { return fmt.Sprintf("%-47s %s\n", label, run(seed)) },
		})
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

	line("spectre-lru-channel", func(seed uint64) string {
		a := NewSpectre(SpectreConfig{Disclosure: DiscLRUAlg1, Seed: seed},
			EncodeString("THE MAGIC WORDS ARE SQUEAMISH OSSIFRAGE"))
		return "recovery-accuracy=" + g(a.Accuracy())
	})

	// Table I eviction reliability of Tree-PLRU Sequence 1 across ways.
	for _, ways := range []int{4, 8, 16} {
		line(fmt.Sprintf("associativity ways=%d", ways), func(seed uint64) string {
			res := core.RunEvictionStudy(core.EvictionStudyConfig{
				Policy: replacement.TreePLRU, Ways: ways, Trials: 2000, Seed: seed,
			}, core.InitSequential, core.Seq1)
			return "evict-prob-iter1=" + g(res.Prob[0])
		})
	}

	// How many local pointer-chase elements the probe needs before hit
	// and miss separate on Sandy Bridge.
	for _, chain := range []int{3, 5, 7, 11, 15} {
		line(fmt.Sprintf("chain-length chain=%d", chain), func(seed uint64) string {
			s := NewChannel(ChannelConfig{ChainLen: chain, Seed: seed})
			return fmt.Sprintf("separable=%v", chaseSeparates(s))
		})
	}

	// The readout quantum at which the single-shot channel dies (the
	// Intel vs AMD gap of Section VI).
	for _, quantum := range []int{1, 4, 8, 16, 24, 48} {
		line(fmt.Sprintf("tsc-granularity quantum=%d", quantum), func(seed uint64) string {
			prof := uarch.SandyBridge()
			prof.TSCQuantum = quantum
			s := NewChannel(ChannelConfig{
				Profile: prof, Algorithm: Alg1SharedMemory,
				Mode: sched.SMT, Tr: 600, Ts: 6000, Seed: seed,
			})
			return "error-rate=" + g(s.MeasureErrorRate(32, 3).ErrorRate)
		})
	}

	// Section V-A: even d fails on Tree-PLRU under Algorithm 2.
	for _, d := range []int{1, 2, 4, 5} {
		line(fmt.Sprintf("d-parity d=%d", d), func(seed uint64) string {
			s := NewChannel(ChannelConfig{
				Algorithm: Alg2NoSharedMemory, Mode: sched.SMT,
				Tr: 600, Ts: 6000, D: d, Seed: seed,
			})
			return "error-rate=" + g(s.MeasureErrorRate(32, 3).ErrorRate)
		})
	}

	// Randomized measurement rounds versus the prefetcher (Appendix C).
	for _, rounds := range []int{1, 4, 16} {
		line(fmt.Sprintf("spectre-rounds rounds=%d", rounds), func(seed uint64) string {
			a := NewSpectre(SpectreConfig{
				Disclosure: DiscLRUAlg2, Prefetcher: PrefetchNextLine,
				Rounds: rounds, Seed: seed,
			}, EncodeString("KEY"))
			return "recovery-accuracy=" + g(a.Accuracy())
		})
	}

	// Minimum speculation window per disclosure primitive (Section VIII).
	for _, d := range []struct {
		name string
		disc spectre.Disclosure
	}{{"lru1", spectre.LRUAlg1}, {"lru2", spectre.LRUAlg2}, {"frmem", spectre.FRMem}} {
		line("speculation-window "+d.name, func(seed uint64) string {
			w := spectre.MinimumWindow(SpectreConfig{Disclosure: d.disc, Seed: seed},
				EncodeString("AB"), 1.0, 4, 400)
			return fmt.Sprintf("min-window-cycles=%d", w)
		})
	}

	// Multi-set parallel channel (Section IV extension) with 4 lanes.
	line("multi-set lanes=4", func(seed uint64) string {
		m := NewMultiChannel(ChannelConfig{
			Algorithm: Alg1SharedMemory, Mode: sched.SMT,
			Tr: 2000, Ts: 20_000, Seed: seed,
		}, []int{3, 9, 17, 30})
		return "per-bit-accuracy=" + g(m.MeasureWordAccuracy([][]byte{{1, 0, 1, 0}, {0, 1, 1, 0}}, 100))
	})

	// End-to-end transport goodput (framing + ECC + lane striping) at
	// the stream demo operating point (§6).
	for _, cname := range codec.Names() {
		for _, lanes := range []int{1, 4} {
			for _, noise := range []int{0, 3} {
				label := fmt.Sprintf("stream-goodput codec=%s lanes=%d noise=%d", cname, lanes, noise)
				line(label, func(seed uint64) string {
					c, err := codec.ByName(cname)
					if err != nil {
						return err.Error()
					}
					pt := transport.MeasureCapacity(transport.Config{
						Channel: core.Config{
							Algorithm: core.Alg1SharedMemory, Mode: sched.SMT,
							Tr: 2000, Ts: 8000,
							NoiseThreads: noise, NoisePeriod: 2000,
						},
						Lanes: transport.DefaultLanes(lanes),
						Codec: c,
					}, 64, seed)
					return fmt.Sprintf("goodput-bps=%.0f frame-error-rate=%s byte-errors=%d",
						pt.GoodputBps, g(pt.FrameErrorRate), pt.ByteErrors)
				})
			}
		}
	}

	// InvisiSpec (Section IX-B): recovery accuracy with and without.
	for _, on := range []bool{false, true} {
		line(fmt.Sprintf("invisispec on=%v", on), func(seed uint64) string {
			a := NewSpectre(SpectreConfig{Disclosure: DiscLRUAlg1, InvisiSpec: on, Seed: seed},
				EncodeString("KEY"))
			return "recovery-accuracy=" + g(a.Accuracy())
		})
	}

	// Secret recovery end to end per cell of the victim × defense matrix.
	for _, vname := range victim.Names() {
		for _, def := range attack.Defenses() {
			line(fmt.Sprintf("key-recovery victim=%s defense=%v", vname, def), func(seed uint64) string {
				v, err := victim.ByName(vname, 64)
				if err != nil {
					return err.Error()
				}
				res := attack.Run(attack.Config{
					Victim: v, Defense: def, Policy: replacement.TreePLRU, Seed: seed,
				}, victim.DemoSecret(v, 8, 42))
				return fmt.Sprintf("recovery-rate=%s mean-guesses=%s attacker=%v victim=%v",
					g(res.RecoveryRate), g(res.MeanGuesses), res.AttackerVerdict, res.VictimVerdict)
			})
		}
	}

	// Sections VII/X: a miss-rate monitor flags the F+R sender but not
	// the LRU sender.
	line("detection-evasion", func(seed uint64) string {
		m := detect.NewMonitor(detect.Thresholds{})
		sFR := NewChannel(ChannelConfig{Algorithm: Alg1SharedMemory, Mode: sched.SMT,
			Tr: 600, Ts: 6000, Seed: seed})
		NewBaseline(FlushReloadMem, sFR).Run([]byte{1, 0}, true, 600, 1<<40)
		sLRU := NewChannel(ChannelConfig{Algorithm: Alg1SharedMemory, Mode: sched.SMT,
			Tr: 600, Ts: 6000, Seed: seed + 1})
		sLRU.Run([]byte{1, 0}, true, 600, 1<<40)
		return fmt.Sprintf("fr-sender=%v lru-sender=%v",
			m.ClassifyProcess(sFR.Hier, core.ReqSender), m.ClassifyProcess(sLRU.Hier, core.ReqSender))
	})

	var b strings.Builder
	for _, l := range engine.Values(engine.Run(jobs, opt)) {
		b.WriteString(l)
	}
	return b.String()
}

// chaseSeparates reports whether 200 pointer-chase probes of the
// receiver's target line split into L1 hits and misses with under 5%
// misclassified at the Otsu threshold.
func chaseSeparates(s *Channel) bool {
	target := s.ReceiverLines[0]
	var hits, misses []float64
	for i := 0; i < 200; i++ {
		s.Hier.Load(target, core.ReqReceiver)
		s.Chaser.WarmUp()
		hits = append(hits, s.Chaser.Measure(target).Observed)
		s.Hier.L1().Flush(target.PhysLine)
		s.Chaser.WarmUp()
		misses = append(misses, s.Chaser.Measure(target).Observed)
		s.Hier.Flush(target.PhysLine)
	}
	all := append(append([]float64{}, hits...), misses...)
	return separationError(hits, misses, stats.OtsuThreshold(all)) < 0.05
}
