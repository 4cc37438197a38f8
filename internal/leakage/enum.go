package leakage

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/replacement"
	"repro/internal/rng"
)

// MissSymbol is the access-alphabet symbol for a miss-insert: the
// policy's current victim way is filled. Symbols 0..ways-1 are hits on
// that way. Apply maps a symbol onto a SetArray.
const MissSymbol = -1

// Apply drives one access-alphabet symbol into set 0 of a single-set
// SetArray: sym in [0, ways) touches that way (a hit), any other value
// is a miss-insert (Victim then Fill). This is the exact transition
// function the cache's hit and miss paths perform on replacement state,
// so closure under Apply is closure under any access sequence.
func Apply(a *replacement.SetArray, sym int) {
	if sym >= 0 && sym < a.Ways() {
		a.Touch(0, sym)
		return
	}
	a.Fill(0, a.Victim(0))
}

// Options tunes Enumerate. The zero value is the documented default.
type Options struct {
	// MaxStates caps the exhaustive search; when the reachable set
	// outgrows it, Enumerate falls back to seeded sampling — without
	// starting the BFS when TheoreticalStates already exceeds the cap,
	// and by abandoning the BFS at the first state past the cap
	// otherwise. Default 1 << 18 — far above every word-backed family
	// at the paper's associativities (Tree-PLRU/8 has 128 states, true
	// LRU/8 has 40320), far below true LRU at 16 ways (16! ≈ 2·10^13).
	MaxStates int
	// SampleSequences and SampleLength size the sampling fallback:
	// that many independent random access sequences of that many
	// symbols each, all states along the way recorded. Defaults 2048
	// and 256.
	SampleSequences, SampleLength int
	// SampleSeed seeds the sampling fallback's generator (default 1).
	SampleSeed uint64
	// OrderSeed, when nonzero, shuffles the BFS frontier and alphabet
	// order. The returned canonical state set must be identical for
	// every OrderSeed — the order-independence property the fuzz
	// target pins.
	OrderSeed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = 1 << 18
	}
	if o.SampleSequences == 0 {
		o.SampleSequences = 2048
	}
	if o.SampleLength == 0 {
		o.SampleLength = 256
	}
	if o.SampleSeed == 0 {
		o.SampleSeed = 1
	}
	return o
}

// StateSpace is the reachable replacement-state set of one cache set
// under the access alphabet, starting from power-on.
type StateSpace struct {
	Kind replacement.Kind
	Ways int

	// States holds the canonical packed states (replacement.SetArray
	// PackedState words), sorted ascending.
	States []uint64

	// Exhaustive reports a completed BFS: States is the full closure.
	// When false, States is the union of SampledSequences random
	// walks and Coverage estimates the fraction found.
	Exhaustive bool
	// Coverage is |States| / TheoreticalStates (1 for a completed
	// BFS; NaN when no analytic count is known for the family).
	Coverage float64
	// SampledSequences is the number of random access sequences the
	// sampling fallback drew (0 when exhaustive).
	SampledSequences int
}

// Contains reports whether the canonical packed state s is in the
// enumerated set.
func (sp *StateSpace) Contains(s uint64) bool {
	_, ok := slices.BinarySearch(sp.States, s)
	return ok
}

// Bound is the state-space leakage ceiling in bits: log2(|States|). No
// probing strategy can extract more than Bound bits from a single
// observation of the set's replacement state — for a sampled space this
// is a lower bound on the true ceiling.
func (sp *StateSpace) Bound() float64 {
	if len(sp.States) == 0 {
		return 0
	}
	return math.Log2(float64(len(sp.States)))
}

// TheoreticalStates returns the analytic reachable-state count for the
// family, when one is known: ways! for true LRU (every permutation is
// reachable by touches), 2^(ways-1) node-bit combinations for
// Tree-PLRU, 2^ways - 1 for Bit-PLRU (every mask except all-set, which
// the generation rollover clears), and ways round-robin positions for
// FIFO. ok is false for Random, which keeps no state. The count is a
// float64 because 16! does not fit the exact integer range callers
// would want to divide in.
func TheoreticalStates(kind replacement.Kind, ways int) (n float64, ok bool) {
	switch kind {
	case replacement.TrueLRU:
		n = 1
		for i := 2; i <= ways; i++ {
			n *= float64(i)
		}
		return n, true
	case replacement.TreePLRU:
		return math.Ldexp(1, ways-1), true
	case replacement.BitPLRU:
		return math.Ldexp(1, ways) - 1, true
	case replacement.FIFO:
		return float64(ways), true
	default:
		return 0, false
	}
}

// Enumerate computes the reachable state space of one set of the given
// policy family and associativity: BFS from the power-on state under
// the ways+1-symbol access alphabet, or seeded sampling when the
// closure outgrows opt.MaxStates. A family whose TheoreticalStates
// count exceeds MaxStates goes straight to sampling: its BFS could only
// be abandoned, and the sampled states depend on SampleSeed alone, not
// on how far a BFS got. It panics for Random (which keeps no
// replacement state) and for true LRU beyond 16 ways (whose state
// exceeds the canonical packed word).
func Enumerate(kind replacement.Kind, ways int, opt Options) StateSpace {
	opt = opt.withDefaults()
	a := replacement.NewSetArray(kind, 1, ways, nil)
	if !a.StatePackable() {
		panic(fmt.Sprintf("leakage: %v at %d ways has no packable state", kind, ways))
	}
	sp := StateSpace{Kind: kind, Ways: ways}

	reset := a.PackedState(0)
	theory, hasTheory := TheoreticalStates(kind, ways)
	full := hasTheory && theory > float64(opt.MaxStates)
	// The analytic count is the exact closure size (the tests demand
	// it), so the BFS set is built at its final size and never rehashes.
	hint := 0
	if hasTheory && !full {
		hint = int(theory)
	}
	visited := newStateSet(hint)
	visited.add(reset)
	frontier := []uint64{reset}
	var order *rng.Rand
	if opt.OrderSeed != 0 {
		order = rng.New(opt.OrderSeed)
	}
	for len(frontier) > 0 && !full {
		// Pop the next frontier state — from the front canonically, or
		// anywhere under OrderSeed: BFS closure is order-independent,
		// and the shuffled pop is how the property is exercised.
		i := 0
		if order != nil {
			i = order.Intn(len(frontier))
		}
		s := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		var perm []int
		if order != nil {
			perm = order.Perm(ways + 1)
		}
		for off := 0; off <= ways; off++ {
			sym := off
			if perm != nil {
				sym = perm[off]
			}
			if sym == ways {
				sym = MissSymbol
			}
			a.SetPackedState(0, s)
			Apply(a, sym)
			next := a.PackedState(0)
			if visited.add(next) {
				// The first new state past the cap abandons the BFS.
				if visited.n > opt.MaxStates {
					full = true
					break
				}
				frontier = append(frontier, next)
			}
		}
	}

	if !full {
		sp.Exhaustive = true
		sp.Coverage = 1
		sp.States = visited.sorted()
		return sp
	}

	// Sampling fallback: the closure is out of reach, so draw seeded
	// random access sequences from power-on and record every state on
	// the way. The result is a certified subset with explicit coverage
	// accounting — never presented as the closure.
	found := make([]uint64, 1, 1+opt.SampleSequences*opt.SampleLength)
	found[0] = reset
	r := rng.New(opt.SampleSeed)
	for seq := 0; seq < opt.SampleSequences; seq++ {
		a.ResetSet(0)
		for step := 0; step < opt.SampleLength; step++ {
			sym := r.Intn(ways + 1)
			if sym == ways {
				sym = MissSymbol
			}
			Apply(a, sym)
			found = append(found, a.PackedState(0))
		}
	}
	radixSort(found)
	sp.Exhaustive = false
	sp.SampledSequences = opt.SampleSequences
	sp.States = slices.Compact(found)
	if hasTheory {
		sp.Coverage = float64(len(sp.States)) / theory
	} else {
		sp.Coverage = math.NaN()
	}
	return sp
}

// stateSet is a flat open-addressing set of packed states: a
// power-of-two table probed linearly from a Fibonacci hash, with slot
// value 0 meaning empty and the zero state (the power-on word of
// Tree-PLRU, Bit-PLRU and FIFO) kept in a flag of its own.
type stateSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	zero  bool
	n     int // members, the zero state included
}

// newStateSet returns an empty set whose table (at least 1024 slots)
// holds hint members without growing.
func newStateSet(hint int) *stateSet {
	k := 10
	for 3<<k < 4*hint {
		k++
	}
	return &stateSet{slots: make([]uint64, 1<<k), shift: uint(64 - k)}
}

// add inserts s and reports whether it was new.
func (t *stateSet) add(s uint64) bool {
	if s == 0 {
		if t.zero {
			return false
		}
		t.zero = true
		t.n++
		return true
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	if !t.insert(s) {
		return false
	}
	t.n++
	return true
}

// insert places a non-zero s in the table and reports whether it was
// absent.
func (t *stateSet) insert(s uint64) bool {
	mask := len(t.slots) - 1
	for i := int(s * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i] {
		case s:
			return false
		case 0:
			t.slots[i] = s
			return true
		}
	}
}

// grow doubles the table and rehashes every member into it.
func (t *stateSet) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, s := range old {
		if s != 0 {
			t.insert(s)
		}
	}
}

// sorted returns the members in ascending order.
func (t *stateSet) sorted() []uint64 {
	out := make([]uint64, 0, t.n)
	if t.zero {
		out = append(out, 0)
	}
	for _, s := range t.slots {
		if s != 0 {
			out = append(out, s)
		}
	}
	radixSort(out)
	return out
}

// radixCutoff is the length below which radixSort hands a bucket to
// slices.Sort: a 256-bucket pass costs more than a comparison sort of
// a few dozen words.
const radixCutoff = 64

// radixSort sorts s ascending in place: an MSD radix sort on 8-bit
// digits, top byte first, that permutes each bucket into place by
// following swap cycles (American flag sort), so it needs no second
// buffer and allocates nothing. Sampled state sets run to 2^19 words,
// where an LSD sort's second copy would add megabytes to the sweep's
// peak memory.
func radixSort(s []uint64) { radixSortDigit(s, 56) }

// radixSortDigit sorts s, whose words agree on every byte above the
// digit at shift, by that digit and then recursively by the ones below.
func radixSortDigit(s []uint64, shift uint) {
	if len(s) < radixCutoff {
		slices.Sort(s)
		return
	}
	var count [256]int
	for _, x := range s {
		count[x>>shift&0xff]++
	}
	// next[d] is the first slot of bucket d not yet holding a word of
	// digit d; end[d] is one past the bucket.
	var next, end [256]int
	pos := 0
	for d, c := range count {
		next[d] = pos
		pos += c
		end[d] = pos
	}
	// A digit every word shares needs no permutation (the sampled
	// true-LRU words share none, but small BFS sets share high bytes).
	if count[s[0]>>shift&0xff] < len(s) {
		for d := range count {
			for next[d] < end[d] {
				// Carry the word out of the first unsettled slot of
				// bucket d to its own bucket, and the word displaced
				// there onward, until one of digit d closes the cycle.
				x := s[next[d]]
				for b := x >> shift & 0xff; b != uint64(d); b = x >> shift & 0xff {
					s[next[b]], x = x, s[next[b]]
					next[b]++
				}
				s[next[d]] = x
				next[d]++
			}
		}
	}
	if shift == 0 {
		return
	}
	start := 0
	for _, c := range count {
		if c > 1 {
			radixSortDigit(s[start:start+c], shift-8)
		}
		start += c
	}
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}
