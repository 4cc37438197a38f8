package cache

import (
	"testing"

	"repro/internal/replacement"
)

// secretAccess marks the access in a witness program whose line the
// secret picks.
const secretAccess = -1

// missLeakage runs prog on one cold 4-way set once per secret line
// s in 0–5 (the secret access reads line s, every other access its
// fixed line) and returns the number of distinct total miss counts an
// observer of the miss count sees over the six secrets.
func missLeakage(k replacement.Kind, prog []int) int {
	seen := map[int]bool{}
	for s := 0; s < 6; s++ {
		c := New(Config{Name: "witness", Sets: 1, Ways: 4, LineSize: 64, Policy: k})
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

// TestIncomparabilityWitnesses pins two 4-way programs that order the
// policies by timing leakage in opposite directions, the result of
// Cañones–Köpf–Reineke, "On the Incomparability of Cache Algorithms in
// Terms of Timing Leakage", that leakage.golden's ranking footnote
// cites: the first leaks more under FIFO and Bit-PLRU than under LRU
// and Tree-PLRU, the second more under LRU and Tree-PLRU than under
// FIFO and Bit-PLRU. DESIGN.md §14.5 states the observer model.
func TestIncomparabilityWitnesses(t *testing.T) {
	s := secretAccess
	for _, c := range []struct {
		name string
		prog []int
		want map[replacement.Kind]int
	}{
		{"[s 0 1 2 3 4 0]", []int{s, 0, 1, 2, 3, 4, 0}, map[replacement.Kind]int{
			replacement.TrueLRU: 2, replacement.TreePLRU: 2, replacement.BitPLRU: 3, replacement.FIFO: 3}},
		{"[0 0 1 s 2 3 4 0]", []int{0, 0, 1, s, 2, 3, 4, 0}, map[replacement.Kind]int{
			replacement.TrueLRU: 3, replacement.TreePLRU: 3, replacement.BitPLRU: 2, replacement.FIFO: 2}},
	} {
		for _, k := range []replacement.Kind{replacement.TrueLRU, replacement.TreePLRU, replacement.BitPLRU, replacement.FIFO} {
			if got := missLeakage(k, c.prog); got != c.want[k] {
				t.Errorf("%s on %s: %d distinct miss counts, want %d", k, c.name, got, c.want[k])
			}
		}
	}
}
