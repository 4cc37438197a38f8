package attack

import "math"

// Observation is what one probe pass yields: for every monitored set,
// a bitmask of which attacker lines missed on the reload (bit i set =
// line i missed). An all-zero mask means the set was untouched; a
// non-zero mask encodes which way the victim's access promoted and the
// eviction echo it caused under the policy in play.
type Observation []uint16

// clone copies an observation (probe buffers are reused).
func (o Observation) clone() Observation {
	c := make(Observation, len(o))
	copy(c, o)
	return c
}

// laplaceAlpha is the add-α smoothing constant of the per-cell
// categorical distributions. Unseen masks get probability
// α/(total+α·K) so the classifier never assigns zero likelihood.
const laplaceAlpha = 0.5

// Template is the product of the profiling phase: for every (secret
// symbol, monitored set) cell, the empirical distribution over
// observed miss masks. Classification is naive-Bayes across sets —
// the per-set distributions multiply — which matches the protocol:
// given the symbol, the per-set observations are (approximately)
// independent.
type Template struct {
	space int // number of secret symbol values
	nsets int // monitored sets per observation
	ways  int // probe lines per set (mask width)

	counts []map[uint16]int // [symbol*nsets+set] -> mask -> count
	totals []int            // [symbol*nsets+set]
}

// NewTemplate allocates an empty template for the given symbol space,
// monitored-set count and probe width. It panics on a non-positive
// symbol space (a victim always has one).
func NewTemplate(space, nsets, ways int) *Template {
	if space < 1 {
		panic("attack: template needs a positive symbol space")
	}
	if nsets < 0 {
		nsets = 0
	}
	t := &Template{space: space, nsets: nsets, ways: ways}
	t.counts = make([]map[uint16]int, space*nsets)
	t.totals = make([]int, space*nsets)
	for i := range t.counts {
		t.counts[i] = make(map[uint16]int)
	}
	return t
}

// SymbolSpace returns the number of secret values the template covers.
func (t *Template) SymbolSpace() int { return t.space }

// Add records one profiling observation for a known symbol. Symbols
// outside the space and observation entries beyond the monitored-set
// count are ignored (profiling only ever passes valid ones; the guard
// keeps the type total).
func (t *Template) Add(symbol int, obs Observation) {
	if symbol < 0 || symbol >= t.space {
		return
	}
	n := len(obs)
	if n > t.nsets {
		n = t.nsets
	}
	for s := 0; s < n; s++ {
		i := symbol*t.nsets + s
		t.counts[i][obs[s]]++
		t.totals[i]++
	}
}

// maskSpace is the smoothing denominator's category count: every
// possible miss mask plus one bucket for anything else.
func (t *Template) maskSpace() float64 {
	w := t.ways
	if w < 1 {
		w = 1
	}
	if w > 16 {
		w = 16
	}
	return float64(uint32(1)<<w) + 1
}

// logLikelihood returns log P(obs | symbol) under the template, with
// add-α smoothing. Observations of any length are accepted: entries
// beyond the template's set count are ignored, missing entries simply
// contribute no evidence.
func (t *Template) logLikelihood(symbol int, obs Observation) float64 {
	k := t.maskSpace()
	var ll float64
	n := len(obs)
	if n > t.nsets {
		n = t.nsets
	}
	for s := 0; s < n; s++ {
		i := symbol*t.nsets + s
		cnt := float64(t.counts[i][obs[s]])
		tot := float64(t.totals[i])
		// float64() stops a fused multiply-add (see rng.Float64).
		ll += math.Log((cnt + laplaceAlpha) / (tot + float64(laplaceAlpha*k)))
	}
	return ll
}

// Classify returns the posterior candidate distribution over secret
// symbols for a single observation: a full, normalized probability
// vector of length SymbolSpace (uniform prior). It never panics, for
// any observation contents or length.
func (t *Template) Classify(obs Observation) []float64 {
	return t.ClassifyMany([]Observation{obs})
}

// ClassifyMany fuses several independent observations of the same
// secret symbol (the attack's repeated voting windows) by summing log
// likelihoods, and returns the normalized posterior. With no
// observations (or an empty template) the posterior is uniform.
func (t *Template) ClassifyMany(obss []Observation) []float64 {
	lls := make([]float64, t.space)
	for _, obs := range obss {
		for v := 0; v < t.space; v++ {
			lls[v] += t.logLikelihood(v, obs)
		}
	}
	return normalizePosterior(lls)
}

// normalizePosterior turns log likelihoods into a probability vector
// via the log-sum-exp trick, falling back to uniform when the inputs
// are degenerate (all -Inf or NaN — possible only for hostile inputs,
// but the classifier must stay total).
func normalizePosterior(lls []float64) []float64 {
	out := make([]float64, len(lls))
	if len(lls) == 0 {
		return out
	}
	max := math.Inf(-1)
	for _, ll := range lls {
		if ll > max {
			max = ll
		}
	}
	var sum float64
	if !math.IsInf(max, -1) && !math.IsNaN(max) {
		for i, ll := range lls {
			out[i] = math.Exp(ll - max)
			sum += out[i]
		}
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		u := 1 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// rankOf returns the 1-based rank of the true symbol in the posterior:
// 1 + the number of symbols with strictly higher probability, plus
// earlier-indexed ties (the deterministic order a guessing attacker
// would enumerate). This is the per-symbol "guesses to first correct".
func rankOf(post []float64, truth int) int {
	if truth < 0 || truth >= len(post) {
		return len(post)
	}
	rank := 1
	for v, p := range post {
		if p > post[truth] || (p == post[truth] && v < truth) {
			rank++
		}
	}
	return rank
}
