package lruleak

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/perf"
	"repro/internal/replacement"
	"repro/internal/sched"
	"repro/internal/secure"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// This file contains one driver per figure of the paper's evaluation. Each
// returns structured data plus a Render method producing the textual
// equivalent of the plot. cmd/lruchan and cmd/securesim call these, and
// the testdata/ goldens pin their rendered output.
//
// Every driver declares its evaluation grid as engine jobs — one job per
// independent experiment cell (one simulated machine) — and hands the grid
// to engine.Run. Results come back in submission order, so the output is
// identical at any worker count.

// HistogramPair is Figures 3 and 13: latency distributions of a probed
// access that hit or missed L1.
type HistogramPair struct {
	Title     string
	Hit, Miss *stats.Histogram
	// Separable reports whether an Otsu threshold classifies at least
	// 95% of samples correctly.
	Separable bool
	Threshold float64
}

// Render draws both histograms.
func (h *HistogramPair) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n--- L1 hit ---\n%s--- L1 miss ---\n%s", h.Title, h.Hit.Render(40), h.Miss.Render(40))
	fmt.Fprintf(&b, "threshold %.1f cycles, single-shot separable: %v\n", h.Threshold, h.Separable)
	return b.String()
}

// histogramChunk is one job's worth of hit/miss latency samples.
type histogramChunk struct {
	hits, misses []float64
}

// histogramChunkSize is the number of samples one histogram job
// collects. The chunk count depends only on the requested sample count,
// never on the worker count, so the merged histogram is deterministic.
const histogramChunkSize = 256

// collectHistogramChunk samples hit and miss latencies on a fresh
// channel with either the pointer chase (Figure 3) or the naive single
// access (Figure 13).
func collectHistogramChunk(prof Profile, pointerChase bool, samples int, seed uint64) histogramChunk {
	s := NewChannel(ChannelConfig{Profile: prof, Seed: seed})
	target := s.ReceiverLines[0]
	ch := histogramChunk{
		hits:   make([]float64, 0, samples),
		misses: make([]float64, 0, samples),
	}
	measure := func() float64 {
		s.Chaser.WarmUp()
		if pointerChase {
			return s.Chaser.Measure(target).Observed
		}
		return s.Chaser.MeasureSingle(target).Observed
	}
	for i := 0; i < samples; i++ {
		s.Hier.Load(target, core.ReqReceiver)
		ch.hits = append(ch.hits, measure())
		s.Hier.L1().Flush(target.PhysLine) // leave the L2 copy: an L1 miss, L2 hit
		ch.misses = append(ch.misses, measure())
		s.Hier.Flush(target.PhysLine)
	}
	return ch
}

// measureHistogramPair fans the sampling out over chunk trials (each
// with its own channel and split seed) and merges the distributions.
func measureHistogramPair(prof Profile, pointerChase bool, samples int, seed uint64, opt RunOptions) *HistogramPair {
	chunks := (samples + histogramChunkSize - 1) / histogramChunkSize
	if chunks < 1 {
		chunks = 1
	}
	rs := engine.RunTrials(fmt.Sprintf("hist/%s", prof.Arch), seed, chunks,
		func(trial int, s uint64) histogramChunk {
			n := samples - trial*histogramChunkSize
			if n > histogramChunkSize {
				n = histogramChunkSize
			}
			return collectHistogramChunk(prof, pointerChase, n, s)
		}, opt)
	var hits, misses []float64
	for _, ch := range engine.Values(rs) {
		hits = append(hits, ch.hits...)
		misses = append(misses, ch.misses...)
	}

	all := append(append(make([]float64, 0, len(hits)+len(misses)), hits...), misses...)
	lo, hi := stats.Percentile(all, 0)-5, stats.Percentile(all, 100)+5
	pair := &HistogramPair{
		Hit:  stats.NewHistogram(lo, hi, 1),
		Miss: stats.NewHistogram(lo, hi, 1),
	}
	pair.Hit.AddAll(hits)
	pair.Miss.AddAll(misses)
	pair.Threshold = stats.OtsuThreshold(all)
	pair.Separable = separationError(hits, misses, pair.Threshold) < 0.05
	return pair
}

// separationError is the fraction of samples an explicit threshold
// misclassifies, given that everything in hits should fall at or below
// it and everything in misses above it.
func separationError(hits, misses []float64, threshold float64) float64 {
	if len(hits)+len(misses) == 0 {
		return 0
	}
	wrong := 0
	for _, v := range hits {
		if core.ClassifyBit(v, threshold, true) == 0 {
			wrong++
		}
	}
	for _, v := range misses {
		if core.ClassifyBit(v, threshold, true) == 1 {
			wrong++
		}
	}
	return float64(wrong) / float64(len(hits)+len(misses))
}

// Figure3 measures the pointer-chase latency distributions (7 L1 hits plus
// the 8th element hitting or missing).
func Figure3(prof Profile, samples int, seed uint64, opt RunOptions) *HistogramPair {
	p := measureHistogramPair(prof, true, samples, seed, opt)
	p.Title = fmt.Sprintf("Figure 3 — pointer-chase probe on %s", prof.Name)
	return p
}

// Figure13 measures the naive single-access rdtscp distributions of
// Appendix A, which must NOT separate.
func Figure13(prof Profile, samples int, seed uint64, opt RunOptions) *HistogramPair {
	p := measureHistogramPair(prof, false, samples, seed, opt)
	p.Title = fmt.Sprintf("Figure 13 — single-access rdtscp on %s", prof.Name)
	return p
}

// Figure4Point is one (Tr, Ts, d) cell of Figure 4.
type Figure4Point struct {
	Tr, Ts    uint64
	D         int
	RateKbps  float64
	ErrorRate float64
}

// Figure4 sweeps the transmission-rate/error-rate trade-off for one
// algorithm, over the paper's grid: Tr ∈ {600,1000,3000}, Ts ∈
// {4500,6000,12000,30000}, d ∈ 1..8. msgBits/repeats control the per-cell
// measurement cost (the paper uses 128-bit strings ≥ 30 times; the defaults
// here are lighter so the sweep completes in seconds — pass the paper's
// values for a full run).
func Figure4(prof Profile, alg core.Algorithm, msgBits, repeats int, seed uint64, opt RunOptions) []Figure4Point {
	if msgBits == 0 {
		msgBits = 64
	}
	if repeats == 0 {
		repeats = 4
	}
	var jobs []engine.Job[Figure4Point]
	for _, tr := range []uint64{600, 1000, 3000} {
		for _, ts := range []uint64{4500, 6000, 12000, 30000} {
			for d := 1; d <= prof.L1Ways; d++ {
				tr, ts, d := tr, ts, d
				jobs = append(jobs, engine.Job[Figure4Point]{
					Name: fmt.Sprintf("fig4/tr=%d/ts=%d/d=%d", tr, ts, d),
					Seed: seed + ts + tr + uint64(d),
					Run: func(s uint64) Figure4Point {
						c := NewChannel(ChannelConfig{
							Profile: prof, Algorithm: alg, Mode: sched.SMT,
							Tr: tr, Ts: ts, D: d, Seed: s,
						})
						res := c.MeasureErrorRate(msgBits, repeats)
						return Figure4Point{
							Tr: tr, Ts: ts, D: d,
							RateKbps:  res.RateBps / 1000,
							ErrorRate: res.ErrorRate,
						}
					},
				})
			}
		}
	}
	return engine.Values(engine.Run(jobs, opt))
}

// RenderFigure4 formats the sweep grouped by Tr, like the paper's panels.
func RenderFigure4(points []Figure4Point) string {
	var b strings.Builder
	var lastTr uint64
	for _, p := range points {
		if p.Tr != lastTr {
			fmt.Fprintf(&b, "Tr=%d cycles:\n", p.Tr)
			lastTr = p.Tr
		}
		fmt.Fprintf(&b, "  Ts=%-6d d=%d  %7.1f Kbps  err %5.1f%%\n",
			p.Ts, p.D, p.RateKbps, 100*p.ErrorRate)
	}
	return b.String()
}

// FigureTrace is Figures 5, 7 and 14: a receiver latency trace while the
// sender alternates 0 and 1.
type FigureTrace struct {
	Title    string
	Trace    *Trace
	Smoothed []float64 // moving average (Figure 7's light blue line)
	HitIsOne bool
}

// Render prints the observation sequence with the threshold line.
func (f *FigureTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (threshold %.1f)\n", f.Title, f.Trace.Threshold)
	for i, o := range f.Trace.Observations {
		mark := " "
		if o.Latency > f.Trace.Threshold {
			mark = "*"
		}
		fmt.Fprintf(&b, "%4d %6.1f %s", i, o.Latency, mark)
		if f.Smoothed != nil {
			fmt.Fprintf(&b, " avg %6.1f", f.Smoothed[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runTraceJob executes a single-cell trace driver through the engine so
// even one-machine figures share the execution layer (progress, wall
// accounting, worker override).
func runTraceJob(name string, seed uint64, opt RunOptions, run func(seed uint64) *FigureTrace) *FigureTrace {
	rs := engine.Run([]engine.Job[*FigureTrace]{{Name: name, Seed: seed, Run: run}}, opt)
	return rs[0].Value
}

// Figure5 records the hyper-threaded alternating-bit traces on an Intel
// profile: Algorithm 1 with d=8 (top) and Algorithm 2 with d=4 (bottom),
// Tr=600, Ts=6000. Figure 14 is the same on Skylake.
func Figure5(prof Profile, alg core.Algorithm, samples int, seed uint64, opt RunOptions) *FigureTrace {
	d := prof.L1Ways
	if alg == Alg2NoSharedMemory {
		d = prof.L1Ways / 2
	}
	return runTraceJob(fmt.Sprintf("fig5/%s", prof.Arch), seed, opt, func(s uint64) *FigureTrace {
		c := NewChannel(ChannelConfig{
			Profile: prof, Algorithm: alg, Mode: sched.SMT,
			Tr: 600, Ts: 6000, D: d, Seed: s,
		})
		tr := c.Run([]byte{0, 1}, true, samples, 1<<40)
		return &FigureTrace{
			Title: fmt.Sprintf("Figure 5 — %v on %s, Tr=600 Ts=6000 d=%d",
				alg, prof.Name, d),
			Trace:    tr,
			HitIsOne: c.HitMeansOne(),
		}
	})
}

// Figure7 records the AMD traces with their moving average: Algorithm 1 as
// two threads of one process (top) and Algorithm 2 across processes
// (bottom), Tr=1000, Ts=1e5.
func Figure7(alg core.Algorithm, samples int, seed uint64, opt RunOptions) *FigureTrace {
	prof := uarch.Zen()
	cfg := ChannelConfig{
		Profile: prof, Algorithm: alg, Mode: sched.SMT,
		Tr: 1000, Ts: 100_000, Seed: seed,
	}
	if alg == Alg1SharedMemory {
		cfg.SameAddressSpace = true // the pthreads arrangement of §VI-B
		cfg.D = prof.L1Ways
	} else {
		cfg.D = prof.L1Ways / 2
	}
	return runTraceJob("fig7/zen", seed, opt, func(s uint64) *FigureTrace {
		cfg := cfg
		cfg.Seed = s
		c := NewChannel(cfg)
		tr := c.Run([]byte{0, 1}, true, samples, 1<<41)
		// The paper smooths over roughly one bit period of samples.
		window := int(cfg.Ts / cfg.Tr)
		return &FigureTrace{
			Title: fmt.Sprintf("Figure 7 — %v on %s, Tr=1000 Ts=1e5 (moving average window %d)",
				alg, prof.Name, window),
			Trace:    tr,
			Smoothed: stats.MovingAverage(tr.Latencies(), window),
			HitIsOne: c.HitMeansOne(),
		}
	})
}

// Figure6Point is one cell of Figures 6, 8 and 15: the fraction of 1s the
// receiver decodes in time-sliced sharing.
type Figure6Point struct {
	Tr           uint64
	D            int
	SendingBit   byte
	FractionOnes float64
}

// Figure6 sweeps the time-sliced experiment: the sender constantly sends 0
// or 1 with Algorithm 1; the receiver samples every Tr. Figure 8 is the
// same on the Zen profile, Figure 15 on Skylake.
func Figure6(prof Profile, trs []uint64, measurements int, seed uint64, opt RunOptions) []Figure6Point {
	if len(trs) == 0 {
		trs = []uint64{2_000_000, 10_000_000, 50_000_000, 200_000_000}
	}
	if measurements == 0 {
		measurements = 100
	}
	var jobs []engine.Job[Figure6Point]
	for _, bit := range []byte{0, 1} {
		for _, tr := range trs {
			for d := 1; d <= prof.L1Ways; d++ {
				bit, tr, d := bit, tr, d
				jobs = append(jobs, engine.Job[Figure6Point]{
					Name: fmt.Sprintf("fig6/bit=%d/tr=%d/d=%d", bit, tr, d),
					Seed: seed + tr + uint64(d) + uint64(bit)<<32,
					Run: func(s uint64) Figure6Point {
						c := NewChannel(ChannelConfig{
							Profile: prof, Algorithm: Alg1SharedMemory,
							Mode: sched.TimeSliced,
							Tr:   tr, Ts: 1 << 62, D: d,
							Seed: s,
						})
						return Figure6Point{
							Tr: tr, D: d, SendingBit: bit,
							FractionOnes: c.MeasureFractionOnes(bit, measurements),
						}
					},
				})
			}
		}
	}
	return engine.Values(engine.Run(jobs, opt))
}

// RenderFigure6 formats the sweep as two panels (sending 0, sending 1).
func RenderFigure6(points []Figure6Point) string {
	var b strings.Builder
	var lastBit byte = 255
	for _, p := range points {
		if p.SendingBit != lastBit {
			fmt.Fprintf(&b, "Sending %d:\n", p.SendingBit)
			lastBit = p.SendingBit
		}
		fmt.Fprintf(&b, "  Tr=%-11d d=%d  %5.1f%% ones\n", p.Tr, p.D, 100*p.FractionOnes)
	}
	return b.String()
}

// Figure9Row is one benchmark's bars in Figure 9.
type Figure9Row struct {
	Benchmark string
	MissRate  map[string]float64 // policy name -> L1D miss rate
	NormCPI   map[string]float64 // policy name -> CPI / CPI(Tree-PLRU)
}

// Figure9 runs the replacement-policy performance study: one engine job
// per (policy, benchmark) pair, reassembled into the suite × policy
// matrix that the normalization step needs in full.
func Figure9(instructions int, seed uint64, opt RunOptions) []Figure9Row {
	policies := []replacement.Kind{replacement.TreePLRU, replacement.FIFO, replacement.Random}
	if seed == 0 {
		seed = 2020 // the Figure 9 study's default seed
	}
	cfg := perf.Config{Instructions: instructions, Seed: seed}
	nBench := workload.SuiteSize()

	var jobs []engine.Job[perf.Result]
	for _, pol := range policies {
		for bi := 0; bi < nBench; bi++ {
			pol, bi := pol, bi
			jobs = append(jobs, engine.Job[perf.Result]{
				Name: fmt.Sprintf("fig9/%v/bench=%d", pol, bi),
				Seed: seed,
				Run: func(uint64) perf.Result {
					c := cfg
					c.Policy = pol
					// Each job needs its own generator instance;
					// construction is deterministic in the seed.
					return perf.RunBenchmark(workload.SuiteBenchmark(bi, cfg.Seed), c)
				},
			})
		}
	}
	flat := engine.Values(engine.Run(jobs, opt))
	results := make([][]perf.Result, len(policies))
	for p := range policies {
		results[p] = flat[p*nBench : (p+1)*nBench]
	}

	norm := perf.Normalized(results, true)
	var rows []Figure9Row
	for b := range results[0] {
		row := Figure9Row{
			Benchmark: results[0][b].Benchmark,
			MissRate:  map[string]float64{},
			NormCPI:   map[string]float64{},
		}
		for p, pol := range policies {
			row.MissRate[pol.String()] = results[p][b].L1DMissRate
			row.NormCPI[pol.String()] = norm[p][b]
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFigure9 formats the study as the two panels of the figure.
func RenderFigure9(rows []Figure9Row) string {
	var b strings.Builder
	b.WriteString("Benchmark     L1D miss% (PLRU / FIFO / Random)    CPI vs PLRU (FIFO / Random)\n")
	var fifoCPI, randCPI []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s  %6.2f / %6.2f / %6.2f              %.3f / %.3f\n",
			r.Benchmark,
			100*r.MissRate["Tree-PLRU"], 100*r.MissRate["FIFO"], 100*r.MissRate["Random"],
			r.NormCPI["FIFO"], r.NormCPI["Random"])
		fifoCPI = append(fifoCPI, r.NormCPI["FIFO"])
		randCPI = append(randCPI, r.NormCPI["Random"])
	}
	fmt.Fprintf(&b, "%-12s  geometric mean CPI overhead:        %.3f / %.3f\n",
		"(geomean)", perf.GeoMean(fifoCPI), perf.GeoMean(randCPI))
	return b.String()
}

// Figure11Result packages the PL-cache evaluation.
type Figure11Result struct {
	Original secure.PLExperimentResult
	Fixed    secure.PLExperimentResult
}

// Figure11 attacks the original and the repaired PL cache with Algorithm 2
// (sender's line locked); the two designs run as parallel jobs.
func Figure11(samples int, seed uint64, opt RunOptions) Figure11Result {
	jobs := []engine.Job[secure.PLExperimentResult]{
		{Name: "fig11/original", Seed: seed, Run: func(s uint64) secure.PLExperimentResult {
			return secure.RunPLCacheExperiment(false, samples, s)
		}},
		{Name: "fig11/fixed", Seed: seed, Run: func(s uint64) secure.PLExperimentResult {
			return secure.RunPLCacheExperiment(true, samples, s)
		}},
	}
	rs := engine.Run(jobs, opt)
	return Figure11Result{Original: rs[0].Value, Fixed: rs[1].Value}
}

// Render summarizes both runs.
func (f Figure11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — PL cache under the LRU attack (Algorithm 2, line N locked)\n")
	fmt.Fprintf(&b, "original design: mean latency sending 0 = %.1f, sending 1 = %.1f (separation %.1f cycles) -> leak %v\n",
		f.Original.MeanZero, f.Original.MeanOne, f.Original.Separation,
		secure.PLLeakDetectable(f.Original))
	fmt.Fprintf(&b, "fixed design:    mean latency sending 0 = %.1f, sending 1 = %.1f (separation %.1f cycles) -> always hit %v\n",
		f.Fixed.MeanZero, f.Fixed.MeanOne, f.Fixed.Separation, f.Fixed.AlwaysHit)
	return b.String()
}
