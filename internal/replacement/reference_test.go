package replacement

import (
	"fmt"

	"repro/internal/rng"
)

// The per-set reference policies (lru_test.go, treeplru_test.go,
// bitplru_test.go) are test oracles: each keeps one set's state in the
// most obvious representation, and the equivalence and invariant fuzz
// targets check the packed SetArray against them.

// Policy tracks replacement state for one cache set and chooses eviction
// victims.
type Policy interface {
	// Name identifies the policy (for reports).
	Name() string
	// Ways returns the associativity this instance was built for.
	Ways() int
	// OnAccess records a use of the given way. Called on every hit and,
	// by convention, after every fill (both hits and misses update LRU
	// state — the property the whole attack rests on).
	OnAccess(way int)
	// Victim returns the way that would be evicted next. It must not
	// mutate state: policies are consulted speculatively (e.g. by the
	// PL cache, which may veto the eviction).
	Victim() int
	// Reset returns the state to its power-on value.
	Reset()
	// Clone returns an independent copy with identical state.
	Clone() Policy
	// StateString renders the internal state compactly for traces and
	// debugging (e.g. "tree:0110101" or "mru:10011010").
	StateString() string
}

// New constructs a policy of the given kind for a set with the given
// associativity. r supplies randomness and is only consulted by Random; it
// may be nil for the other kinds. New panics if ways < 1, if Tree-PLRU is
// requested with a non-power-of-two associativity, or if Random is
// requested without a generator.
func New(kind Kind, ways int, r *rng.Rand) Policy {
	if ways < 1 {
		panic("replacement: ways must be >= 1")
	}
	switch kind {
	case TrueLRU:
		return newTrueLRU(ways)
	case TreePLRU:
		return newTreePLRU(ways)
	case BitPLRU:
		return newBitPLRU(ways)
	case FIFO:
		return newFIFO(ways)
	case Random:
		if r == nil {
			panic("replacement: Random policy requires a generator")
		}
		return newRandom(ways, r)
	default:
		panic(fmt.Sprintf("replacement: unknown kind %d", int(kind)))
	}
}
