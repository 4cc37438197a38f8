package leakage

import (
	"math"
	"slices"
	"testing"

	"repro/internal/replacement"
	"repro/internal/rng"
)

// TestEnumerateMatchesTheory demands |States| == TheoreticalStates
// exactly, odd associativities included: Enumerate skips the BFS when
// the count exceeds MaxStates, which is only sound if the count never
// overstates the closure.
func TestEnumerateMatchesTheory(t *testing.T) {
	cases := []struct {
		kind replacement.Kind
		ways []int
	}{
		{replacement.TrueLRU, []int{1, 2, 3, 4, 5, 8}},
		{replacement.TreePLRU, []int{1, 2, 4, 8, 16}},
		{replacement.BitPLRU, []int{1, 2, 3, 4, 5, 8, 12, 16}},
		{replacement.FIFO, []int{1, 2, 3, 4, 5, 8, 12, 16}},
	}
	for _, c := range cases {
		for _, ways := range c.ways {
			sp := Enumerate(c.kind, ways, Options{})
			want, ok := TheoreticalStates(c.kind, ways)
			if !ok {
				t.Fatalf("%v: no analytic count", c.kind)
			}
			if !sp.Exhaustive {
				t.Errorf("%v/%d: BFS did not complete", c.kind, ways)
			}
			if got := float64(len(sp.States)); got != want {
				t.Errorf("%v/%d: %v reachable states, theory says %v", c.kind, ways, got, want)
			}
			if sp.Coverage != 1 {
				t.Errorf("%v/%d: exhaustive coverage %v, want 1", c.kind, ways, sp.Coverage)
			}
			if got, want := sp.Bound(), math.Log2(float64(len(sp.States))); got != want {
				t.Errorf("%v/%d: bound %v, want %v", c.kind, ways, got, want)
			}
		}
	}
}

func TestEnumerateStatesSortedAndQueryable(t *testing.T) {
	sp := Enumerate(replacement.TreePLRU, 8, Options{})
	for i := 1; i < len(sp.States); i++ {
		if sp.States[i-1] >= sp.States[i] {
			t.Fatalf("states not strictly ascending at %d", i)
		}
	}
	for _, s := range sp.States {
		if !sp.Contains(s) {
			t.Errorf("Contains(%#x) = false for an enumerated state", s)
		}
	}
	// Tree-PLRU/8 reaches all 128 node-bit combinations, so the first
	// word outside the packed range must be absent.
	if sp.Contains(1 << 7) {
		t.Error("Contains reports a state beyond the 7 node bits")
	}
}

func TestEnumerateOrderIndependence(t *testing.T) {
	for _, kind := range []replacement.Kind{replacement.TrueLRU, replacement.TreePLRU, replacement.BitPLRU, replacement.FIFO} {
		canon := Enumerate(kind, 8, Options{})
		for _, seed := range []uint64{1, 2, 77} {
			got := Enumerate(kind, 8, Options{OrderSeed: seed})
			if len(got.States) != len(canon.States) {
				t.Fatalf("%v OrderSeed=%d: %d states, canonical %d",
					kind, seed, len(got.States), len(canon.States))
			}
			for i := range got.States {
				if got.States[i] != canon.States[i] {
					t.Fatalf("%v OrderSeed=%d: state[%d] = %#x, canonical %#x",
						kind, seed, i, got.States[i], canon.States[i])
				}
			}
		}
	}
}

// TestEnumerateSampledFallback forces sampling with a tiny MaxStates on
// a space whose closure is known, and checks the accounting: a strict
// certified subset, the advertised coverage, and no states outside the
// true closure.
func TestEnumerateSampledFallback(t *testing.T) {
	full := Enumerate(replacement.TreePLRU, 8, Options{})
	sp := Enumerate(replacement.TreePLRU, 8, Options{MaxStates: 16, SampleSequences: 64, SampleLength: 32})
	if sp.Exhaustive {
		t.Fatal("MaxStates=16 still reported exhaustive")
	}
	if sp.SampledSequences != 64 {
		t.Errorf("SampledSequences = %d, want 64", sp.SampledSequences)
	}
	for _, s := range sp.States {
		if !full.Contains(s) {
			t.Errorf("sampled state %#x is outside the true closure", s)
		}
	}
	if want := float64(len(sp.States)) / 128; math.Abs(sp.Coverage-want) > 1e-12 {
		t.Errorf("coverage %v, want %v", sp.Coverage, want)
	}
}

// TestEnumerateSampledConverges grows the sampling budget and demands
// coverage climb to the exhaustive answer on Tree-PLRU at 4 and 8 ways.
func TestEnumerateSampledConverges(t *testing.T) {
	for _, ways := range []int{4, 8} {
		prev := 0
		for _, seqs := range []int{1, 8, 256} {
			sp := Enumerate(replacement.TreePLRU, ways, Options{MaxStates: 2, SampleSequences: seqs})
			if len(sp.States) < prev {
				t.Errorf("TreePLRU/%d: coverage fell from %d to %d states at %d sequences",
					ways, prev, len(sp.States), seqs)
			}
			prev = len(sp.States)
		}
		want, _ := TheoreticalStates(replacement.TreePLRU, ways)
		if float64(prev) != want {
			t.Errorf("TreePLRU/%d: sampling plateaued at %d of %v states", ways, prev, want)
		}
	}
}

// bfsFirstEnumerate is the oracle for Enumerate's TheoreticalStates
// shortcut: it always runs the BFS, until the closure completes or more
// than MaxStates states are found, and only then samples.
func bfsFirstEnumerate(kind replacement.Kind, ways int, opt Options) StateSpace {
	opt = opt.withDefaults()
	a := replacement.NewSetArray(kind, 1, ways, nil)
	sp := StateSpace{Kind: kind, Ways: ways}
	reset := a.PackedState(0)
	visited := map[uint64]bool{reset: true}
	frontier := []uint64{reset}
	for len(frontier) > 0 && len(visited) <= opt.MaxStates {
		s := frontier[0]
		frontier = frontier[1:]
		for sym := MissSymbol; sym < ways && len(visited) <= opt.MaxStates; sym++ {
			a.SetPackedState(0, s)
			Apply(a, sym)
			if next := a.PackedState(0); !visited[next] {
				visited[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	theory, _ := TheoreticalStates(kind, ways)
	if len(visited) <= opt.MaxStates {
		sp.Exhaustive, sp.Coverage = true, 1
		sp.States = sortedKeys(visited)
		return sp
	}
	found := []uint64{reset}
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
	slices.Sort(found)
	sp.SampledSequences = opt.SampleSequences
	sp.States = slices.Compact(found)
	sp.Coverage = float64(len(sp.States)) / theory
	return sp
}

// TestEnumerateCapBoundary pins the shortcut that samples without a BFS
// when TheoreticalStates exceeds MaxStates: with the cap one below, at
// and one above the theory count, Enumerate matches the BFS-first path
// field for field, and the BFS completes exactly when the count fits
// the cap.
func TestEnumerateCapBoundary(t *testing.T) {
	for _, c := range []struct {
		kind replacement.Kind
		ways []int
	}{
		{replacement.TrueLRU, []int{2, 3, 4}},
		{replacement.TreePLRU, []int{2, 4, 8}},
		{replacement.BitPLRU, []int{2, 3, 4}},
		{replacement.FIFO, []int{2, 4, 8}},
	} {
		for _, ways := range c.ways {
			theory, _ := TheoreticalStates(c.kind, ways)
			for _, maxStates := range []int{int(theory) - 1, int(theory), int(theory) + 1} {
				opt := Options{MaxStates: maxStates, SampleSequences: 64}
				got, want := Enumerate(c.kind, ways, opt), bfsFirstEnumerate(c.kind, ways, opt)
				if got.Exhaustive != want.Exhaustive || got.Coverage != want.Coverage ||
					got.SampledSequences != want.SampledSequences || !slices.Equal(got.States, want.States) {
					t.Errorf("%v/%d MaxStates=%d: got %d states exhaustive=%v coverage=%v sequences=%d, BFS-first %d states exhaustive=%v coverage=%v sequences=%d",
						c.kind, ways, maxStates, len(got.States), got.Exhaustive, got.Coverage, got.SampledSequences,
						len(want.States), want.Exhaustive, want.Coverage, want.SampledSequences)
				}
				if fits := float64(maxStates) >= theory; got.Exhaustive != fits {
					t.Errorf("%v/%d MaxStates=%d (theory %v): exhaustive=%v", c.kind, ways, maxStates, theory, got.Exhaustive)
				}
			}
		}
	}
}

func TestEnumerateLRU16Samples(t *testing.T) {
	sp := Enumerate(replacement.TrueLRU, 16, Options{SampleSequences: 32})
	if sp.Exhaustive {
		t.Fatal("true LRU at 16 ways reported exhaustive (16! states)")
	}
	if sp.Coverage >= 1e-6 {
		t.Errorf("coverage %v, want a vanishing fraction of 16!", sp.Coverage)
	}
	if len(sp.States) == 0 {
		t.Error("sampling found no states")
	}
}

func TestEnumeratePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"random":  func() { Enumerate(replacement.Random, 4, Options{}) },
		"lru >16": func() { Enumerate(replacement.TrueLRU, 24, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTheoreticalStates(t *testing.T) {
	for _, c := range []struct {
		kind replacement.Kind
		ways int
		want float64
	}{
		{replacement.TrueLRU, 4, 24},
		{replacement.TrueLRU, 8, 40320},
		{replacement.TreePLRU, 8, 128},
		{replacement.BitPLRU, 8, 255},
		{replacement.FIFO, 8, 8},
	} {
		got, ok := TheoreticalStates(c.kind, c.ways)
		if !ok || got != c.want {
			t.Errorf("TheoreticalStates(%v, %d) = %v, %v; want %v", c.kind, c.ways, got, ok, c.want)
		}
	}
	if _, ok := TheoreticalStates(replacement.Random, 8); ok {
		t.Error("Random reported an analytic state count")
	}
}

// TestTheoreticalStatesPowersOfTwo pins the Tree-PLRU and Bit-PLRU
// counts at every associativity the packed words support to the
// math.Pow form they were first written in and to the exact integer
// count, rounded once to float64 (for Bit-PLRU at 64 ways the uint64
// shift wraps to 0 and 0-1 is the exact 2^64-1).
func TestTheoreticalStatesPowersOfTwo(t *testing.T) {
	for ways := 1; ways <= 64; ways++ {
		tree, _ := TheoreticalStates(replacement.TreePLRU, ways)
		bit, _ := TheoreticalStates(replacement.BitPLRU, ways)
		if want := math.Pow(2, float64(ways-1)); tree != want || tree != float64(uint64(1)<<uint(ways-1)) {
			t.Errorf("Tree-PLRU/%d: %v states, want %v", ways, tree, want)
		}
		if want := math.Pow(2, float64(ways)) - 1; bit != want || bit != float64(uint64(1)<<uint(ways)-1) {
			t.Errorf("Bit-PLRU/%d: %v states, want %v", ways, bit, want)
		}
	}
}

// TestRadixSortMatchesSlicesSort checks the in-place radix sort against
// slices.Sort on inputs that stress each part of it: random words,
// heavy duplication, words sharing their top seven bytes (every bucket
// but the last digit's collapses), the two extreme words, lengths
// around the comparison-sort cutoff, and the sampled true-LRU/16 words
// the sweep sorts.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	r := rng.New(3)
	gens := []struct {
		name string
		gen  func(n int) []uint64
	}{
		{"random", func(n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = r.Uint64()
			}
			return s
		}},
		{"duplicates", func(n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = r.Uint64() % 5 << (r.Uint64() % 2 * 60)
			}
			return s
		}},
		{"shared top 7 bytes", func(n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = 0x0123456789abcd00 | r.Uint64()&0xff
			}
			return s
		}},
		{"extremes", func(n int) []uint64 {
			s := make([]uint64, n)
			for i := range s {
				if r.Uint64()&1 == 1 {
					s[i] = math.MaxUint64
				}
			}
			return s
		}},
	}
	for _, g := range gens {
		for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 1 << 16} {
			got := g.gen(n)
			want := slices.Clone(got)
			slices.Sort(want)
			radixSort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s, %d words: radix order differs from slices.Sort", g.name, n)
			}
		}
	}

	var lru []uint64
	a := replacement.NewSetArray(replacement.TrueLRU, 1, 16, nil)
	for i := 0; i < 1<<16; i++ {
		Apply(a, int(r.Uint64()%17)-1)
		lru = append(lru, a.PackedState(0))
	}
	want := slices.Clone(lru)
	slices.Sort(want)
	if radixSort(lru); !slices.Equal(lru, want) {
		t.Error("sampled true-LRU/16 words: radix order differs from slices.Sort")
	}
}

// TestRadixSortAllocatesNothing pins the in-place sort: a second buffer
// the size of a sampled state set would add megabytes to a sweep.
func TestRadixSortAllocatesNothing(t *testing.T) {
	r := rng.New(4)
	src := make([]uint64, 1<<14)
	for i := range src {
		src[i] = r.Uint64()
	}
	s := make([]uint64, len(src))
	if n := testing.AllocsPerRun(10, func() {
		copy(s, src)
		radixSort(s)
	}); n != 0 {
		t.Errorf("radixSort allocated %v times per run, want 0", n)
	}
}
