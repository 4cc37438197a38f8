package cache

import (
	"testing"

	"repro/internal/replacement"
)

// secretAccess marks the access in a witness program whose line the
// secret picks.
const secretAccess = -1

// missLeakage runs prog on one cold set of the given ways once per
// secret line s in 0..ways+1 (the secret access reads line s, every
// other access its fixed line) and returns the number of distinct total
// miss counts an observer of the miss count sees over the secrets.
func missLeakage(k replacement.Kind, ways int, prog []int) int {
	seen := map[int]bool{}
	for s := 0; s < ways+2; s++ {
		c := New(Config{Name: "witness", Sets: 1, Ways: ways, LineSize: 64, Policy: k})
		misses := 0
		for _, line := range prog {
			if line == secretAccess {
				line = s
			}
			if !c.Access(Request{PhysLine: uint64(line)}).Hit {
				misses++
			}
		}
		seen[misses] = true
	}
	return len(seen)
}

// TestIncomparabilityWitnesses pins programs that order the policies by
// timing leakage in opposite directions, the result of
// Cañones–Köpf–Reineke, "On the Incomparability of Cache Algorithms in
// Terms of Timing Leakage", that leakage.golden's ranking footnote
// cites. For every ordered pair (P, Q) of distinct policies, at 2 and
// at 4 ways, some program leaks more under P than under Q. The one
// exception is LRU against Tree-PLRU at 2 ways: there the tree's one
// bit names the least recently used way, so the two policies are one.
// DESIGN.md §14.5 states the observer model and how the programs were
// found.
func TestIncomparabilityWitnesses(t *testing.T) {
	s := secretAccess
	lru, tree, bit, fifo := replacement.TrueLRU, replacement.TreePLRU, replacement.BitPLRU, replacement.FIFO
	pols := []replacement.Kind{lru, tree, bit, fifo}
	witnesses := []struct {
		name string
		ways int
		prog []int
		want [4]int // distinct miss counts under LRU, Tree-PLRU, Bit-PLRU, FIFO
	}{
		{"[s 0 1 2 3 4 0]", 4, []int{s, 0, 1, 2, 3, 4, 0}, [4]int{2, 2, 3, 3}},
		{"[0 0 1 s 2 3 4 0]", 4, []int{0, 0, 1, s, 2, 3, 4, 0}, [4]int{3, 3, 2, 2}},
		{"[0 s 1 2 3 4 5]", 4, []int{0, s, 1, 2, 3, 4, 5}, [4]int{2, 1, 2, 2}},
		{"[s 0 1 2 3 4 1]", 4, []int{s, 0, 1, 2, 3, 4, 1}, [4]int{2, 3, 2, 2}},
		{"[0 1 2 3 s 4 0]", 4, []int{0, 1, 2, 3, s, 4, 0}, [4]int{3, 3, 3, 2}},
		{"[s 0 1 2 0 3 4 0]", 4, []int{s, 0, 1, 2, 0, 3, 4, 0}, [4]int{2, 2, 2, 3}},
		{"[0 1 s 2 0]", 2, []int{0, 1, s, 2, 0}, [4]int{3, 3, 3, 2}},
		{"[s 0 1 2 0]", 2, []int{s, 0, 1, 2, 0}, [4]int{2, 2, 2, 3}},
		{"[0 1 1 s 0 2]", 2, []int{0, 1, 1, s, 0, 2}, [4]int{3, 3, 2, 3}},
		{"[s 0 0 1 2 1]", 2, []int{s, 0, 0, 1, 2, 1}, [4]int{2, 2, 3, 2}},
	}
	type pair struct {
		ways int
		p, q replacement.Kind
	}
	backed := map[pair]bool{}
	for _, w := range witnesses {
		for i, k := range pols {
			if got := missLeakage(k, w.ways, w.prog); got != w.want[i] {
				t.Errorf("%s on %d-way %s: %d distinct miss counts, want %d", k, w.ways, w.name, got, w.want[i])
			}
		}
		for i, p := range pols {
			for j, q := range pols {
				if w.want[i] > w.want[j] {
					backed[pair{w.ways, p, q}] = true
				}
			}
		}
	}
	for _, ways := range []int{2, 4} {
		for _, p := range pols {
			for _, q := range pols {
				same := p == q || ways == 2 && (p == lru && q == tree || p == tree && q == lru)
				if !same && !backed[pair{ways, p, q}] {
					t.Errorf("%d ways: no witness leaks more under %s than under %s", ways, p, q)
				}
			}
		}
	}
}
