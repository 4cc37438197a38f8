// Package stats contains the measurement post-processing used by the
// experiments: latency histograms (Figures 3, 13), moving averages
// (Figure 7), threshold selection between hit and miss latency clusters,
// bit-error accounting via the Wagner–Fischer edit distance (Section V), and
// simple summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics of xs. It returns a zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		// float64() stops a fused multiply-add (see rng.Float64).
		sq += float64(d * d)
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	// The float64() conversions stop fused multiply-adds (see
	// rng.Float64).
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// MovingAverage returns the centered moving average of xs with the given
// window (the smoothing used for the AMD traces in Figure 7). Windows are
// truncated at the edges so the result has the same length as the input.
// window <= 1 returns a copy of xs.
func MovingAverage(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	if window <= 1 {
		copy(out, xs)
		return out
	}
	half := window / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Histogram is a fixed-bin-width histogram over a float range.
type Histogram struct {
	Lo, Hi   float64 // range covered by the bins, [Lo, Hi)
	BinWidth float64
	Counts   []int
	Under    int // samples below Lo
	Over     int // samples at or above Hi
	Total    int
}

// NewHistogram builds a histogram with bins of the given width spanning
// [lo, hi). It panics if the parameters do not describe at least one bin.
func NewHistogram(lo, hi, binWidth float64) *Histogram {
	if !(hi > lo) || !(binWidth > 0) {
		panic("stats: invalid histogram bounds")
	}
	n := int(math.Ceil((hi - lo) / binWidth))
	return &Histogram{Lo: lo, Hi: hi, BinWidth: binWidth, Counts: make([]int, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.BinWidth)
		if i >= len(h.Counts) { // guard the hi-boundary rounding case
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Frequency returns the fraction of all samples landing in bin i.
func (h *Histogram) Frequency(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	// float64() stops a fused multiply-add (see rng.Float64).
	return h.Lo + float64((float64(i)+0.5)*h.BinWidth)
}

// Mode returns the center of the most populated bin, breaking ties toward
// the lower bin. It returns 0 when the histogram is empty.
func (h *Histogram) Mode() float64 {
	best, bestCount := -1, 0
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return 0
	}
	return h.BinCenter(best)
}

// Render draws a textual histogram (one row per non-empty bin) used by the
// figure-regeneration commands. width is the length of the longest bar.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bar := int(math.Round(float64(c) / float64(maxCount) * float64(width)))
		fmt.Fprintf(&b, "%8.1f | %-*s %5.1f%%\n",
			h.BinCenter(i), width, strings.Repeat("#", bar), 100*h.Frequency(i))
	}
	return b.String()
}

// OtsuThreshold picks the latency threshold separating the "hit" cluster
// from the "miss" cluster of a bimodal sample, by maximizing between-class
// variance over candidate split points (Otsu's method on the raw sample).
// The paper's receiver needs exactly this: a red dotted line separating L1
// hits from misses in Figures 5, 7, 14. It returns the midpoint of the two
// extreme values when the sample has fewer than two distinct values.
func OtsuThreshold(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if sorted[0] == sorted[len(sorted)-1] {
		return sorted[0]
	}
	// Prefix sums for O(n) class statistics per split.
	prefix := make([]float64, len(sorted)+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	total := prefix[len(sorted)]
	n := float64(len(sorted))
	bestVar, bestSplit := -1.0, sorted[0]
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			continue
		}
		w0 := float64(i) / n
		w1 := 1 - w0
		mu0 := prefix[i] / float64(i)
		mu1 := (total - prefix[i]) / float64(len(sorted)-i)
		between := w0 * w1 * (mu0 - mu1) * (mu0 - mu1)
		if between > bestVar {
			bestVar = between
			bestSplit = (sorted[i-1] + sorted[i]) / 2
		}
	}
	return bestSplit
}

// Classify maps each latency to a bit using the threshold: values strictly
// above the threshold become `above`, others `below`. Used to turn receiver
// latencies into received bits.
func Classify(xs []float64, threshold float64, below, above byte) []byte {
	out := make([]byte, len(xs))
	for i, x := range xs {
		if x > threshold {
			out[i] = above
		} else {
			out[i] = below
		}
	}
	return out
}

// FractionAbove returns the fraction of samples strictly above the
// threshold (the "% of 1s received" metric of Figures 6, 8, 15).
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
