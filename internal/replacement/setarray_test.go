package replacement

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// polArray is the reference twin of a SetArray: one Policy instance per
// set, driven through the identical Touch/Fill/Victim sequence.
func polArray(kind Kind, sets, ways int, r *rng.Rand) []Policy {
	ps := make([]Policy, sets)
	for s := range ps {
		ps[s] = New(kind, ways, r)
	}
	return ps
}

func polFill(p Policy, way int) {
	p.OnAccess(way)
	if f, ok := p.(interface{ Filled(way int) }); ok {
		f.Filled(way)
	}
}

func TestSetArrayMatchesPoliciesSequential(t *testing.T) {
	const sets, ways = 4, 8
	for _, kind := range Kinds() {
		arr := NewSetArray(kind, sets, ways, rng.New(1))
		ref := polArray(kind, sets, ways, rng.New(1))
		// Fill every set sequentially, touch a few ways, fill again.
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				arr.Fill(s, w)
				polFill(ref[s], w)
			}
			arr.Touch(s, 3)
			ref[s].OnAccess(3)
			arr.Touch(s, 0)
			ref[s].OnAccess(0)
		}
		for s := 0; s < sets; s++ {
			if got, want := arr.StateString(s), ref[s].StateString(); got != want {
				t.Errorf("%v set %d: state %q, policy says %q", kind, s, got, want)
			}
			if got, want := arr.Victim(s), ref[s].Victim(); got != want {
				t.Errorf("%v set %d: victim %d, policy says %d", kind, s, got, want)
			}
		}
	}
}

func TestSetArraySetsAreIndependent(t *testing.T) {
	for _, kind := range []Kind{TrueLRU, TreePLRU, BitPLRU, FIFO} {
		arr := NewSetArray(kind, 8, 8, nil)
		before := arr.StateString(3)
		for i := 0; i < 50; i++ {
			arr.Fill(5, i%8)
			arr.Touch(6, (i*3)%8)
		}
		if arr.StateString(3) != before {
			t.Errorf("%v: traffic in sets 5/6 changed set 3: %s -> %s",
				kind, before, arr.StateString(3))
		}
	}
}

func TestSetArrayResetSetMatchesPowerOn(t *testing.T) {
	for _, kind := range []Kind{TrueLRU, TreePLRU, BitPLRU, FIFO} {
		fresh := NewSetArray(kind, 2, 8, nil)
		used := NewSetArray(kind, 2, 8, nil)
		// Way 0 first so the FIFO pointer actually advances.
		for _, w := range []int{0, 1, 7, 2, 1, 3} {
			used.Fill(0, w)
			used.Fill(1, w)
		}
		used.ResetSet(0)
		if got, want := used.StateString(0), fresh.StateString(0); got != want {
			t.Errorf("%v: ResetSet(0) -> %q, power-on is %q", kind, got, want)
		}
		if used.StateString(1) == fresh.StateString(1) {
			t.Errorf("%v: ResetSet(0) also reset set 1", kind)
		}
	}
}

// TestPackedStateRoundTrip drives a set through traffic, exports its
// state, imports it into a fresh array, and demands the two behave
// identically from then on — PackedState must be a complete, canonical
// capture of the replacement state.
func TestPackedStateRoundTrip(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 16} {
		for _, kind := range []Kind{TrueLRU, TreePLRU, BitPLRU, FIFO} {
			src := NewSetArray(kind, 1, ways, nil)
			if !src.StatePackable() {
				t.Fatalf("%v/%d: not packable", kind, ways)
			}
			for i := 0; i < 3*ways; i++ {
				src.Touch(0, (i*5)%ways)
				src.Fill(0, src.Victim(0))
			}
			word := src.PackedState(0)
			dst := NewSetArray(kind, 1, ways, nil)
			dst.SetPackedState(0, word)
			if got, want := dst.StateString(0), src.StateString(0); got != want {
				t.Errorf("%v/%d: restored state %q, want %q", kind, ways, got, want)
			}
			if dst.PackedState(0) != word {
				t.Errorf("%v/%d: re-export %#x, want %#x", kind, ways, dst.PackedState(0), word)
			}
			// The restored set must evolve in lock-step with the source.
			for i := 0; i < 2*ways; i++ {
				src.Touch(0, (i*3)%ways)
				dst.Touch(0, (i*3)%ways)
				if src.Victim(0) != dst.Victim(0) {
					t.Fatalf("%v/%d: victims diverge after restore", kind, ways)
				}
				src.Fill(0, src.Victim(0))
				dst.Fill(0, dst.Victim(0))
			}
			if src.PackedState(0) != dst.PackedState(0) {
				t.Errorf("%v/%d: states diverge after restore", kind, ways)
			}
		}
	}
}

// TestPackedStateDistinguishesStates checks the canonical-word contract
// both ways on a small exhaustive walk: equal words iff equal
// StateString renderings.
func TestPackedStateDistinguishesStates(t *testing.T) {
	for _, kind := range []Kind{TrueLRU, TreePLRU, BitPLRU, FIFO} {
		const ways = 4
		seen := map[uint64]string{}
		a := NewSetArray(kind, 1, ways, nil)
		for i := 0; i < 500; i++ {
			if i%3 == 0 {
				a.Touch(0, (i*7)%ways)
			} else {
				a.Fill(0, a.Victim(0))
			}
			w, s := a.PackedState(0), a.StateString(0)
			if prev, ok := seen[w]; ok && prev != s {
				t.Fatalf("%v: word %#x renders both %q and %q", kind, w, prev, s)
			}
			seen[w] = s
		}
		render := map[string]uint64{}
		for w, s := range seen {
			if prev, ok := render[s]; ok && prev != w {
				t.Fatalf("%v: state %q has two words %#x and %#x", kind, s, prev, w)
			}
			render[s] = w
		}
	}
}

func TestPackedStateUnpackablePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"random export": func() { NewSetArray(Random, 1, 4, rng.New(1)).PackedState(0) },
		"random import": func() { NewSetArray(Random, 1, 4, rng.New(1)).SetPackedState(0, 0) },
		"lru>16 export": func() { NewSetArray(TrueLRU, 1, 24, nil).PackedState(0) },
		"lru>16 import": func() { NewSetArray(TrueLRU, 1, 24, nil).SetPackedState(0, 0) },
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
	if NewSetArray(Random, 1, 4, rng.New(1)).StatePackable() {
		t.Error("Random reports packable state")
	}
	if NewSetArray(TrueLRU, 1, 24, nil).StatePackable() {
		t.Error("24-way true LRU reports packable state")
	}
	if !NewSetArray(TrueLRU, 1, 12, nil).StatePackable() {
		t.Error("12-way true LRU must be packable (4-bit lanes)")
	}
}

func TestNewSetArrayPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero sets":          func() { NewSetArray(TrueLRU, 0, 8, nil) },
		"zero ways":          func() { NewSetArray(TrueLRU, 4, 0, nil) },
		"non-pow2 tree":      func() { NewSetArray(TreePLRU, 4, 6, nil) },
		"random without rng": func() { NewSetArray(Random, 4, 8, nil) },
		"unknown kind":       func() { NewSetArray(Kind(42), 4, 8, nil) },
		"too many ways":      func() { NewSetArray(BitPLRU, 4, 65, nil) },
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

// FuzzSetArrayEquivalence drives a packed SetArray and an array of
// per-set Policy instances through the same event stream and demands
// bit-identical victims and state renderings after every event — the
// packed hot path may never drift from the reference semantics. Random
// uses two generators seeded identically, consulted in lock-step.
func FuzzSetArrayEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 0x80, 0x81, 0x42, 7, 0xff, 0xc0})
	f.Add([]byte{2, 0x40, 0x41, 0x00, 0x3f, 0x80, 0xc1, 5, 5, 5})
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) < 2 {
			return
		}
		// Byte 0 picks the associativity (4, 8, 16); each further byte
		// is one event: bits 0-3 the way, bits 4-5 the set, bits 6-7
		// the operation (0 touch, 1 fill, 2 reset-set, 3 reset-all).
		const sets = 4
		ways := 1 << (2 + int(trace[0])%3)
		for _, kind := range Kinds() {
			arr := NewSetArray(kind, sets, ways, rng.New(99))
			ref := polArray(kind, sets, ways, rng.New(99))
			for step, b := range trace[1:] {
				way := int(b&0x0f) % ways
				set := int(b >> 4 & 0x03)
				switch b >> 6 {
				case 0:
					arr.Touch(set, way)
					ref[set].OnAccess(way)
				case 1:
					arr.Fill(set, way)
					polFill(ref[set], way)
				case 2:
					arr.ResetSet(set)
					ref[set].Reset()
				case 3:
					arr.Reset()
					for _, p := range ref {
						p.Reset()
					}
				}
				for s := 0; s < sets; s++ {
					if got, want := arr.StateString(s), ref[s].StateString(); got != want {
						t.Fatalf("step %d: %v set %d state %q, policy %q",
							step, kind, s, got, want)
					}
				}
				// One victim consultation per event keeps the two
				// Random generators in lock-step.
				if got, want := arr.Victim(set), ref[set].Victim(); got != want {
					t.Fatalf("step %d: %v set %d victim %d, policy %d",
						step, kind, set, got, want)
				}
			}
		}
	})
}

// The Tree-PLRU touch is one masked update per way; the masks must
// encode exactly one root-to-leaf path that points away from the way.
func TestTreeTouchMasks(t *testing.T) {
	r := rng.New(5)
	for _, ways := range []int{1, 2, 4, 8, 16, 64} {
		a := NewSetArray(TreePLRU, 1, ways, nil)
		nodes := uint64(1)<<uint(ways-1) - 1 // the ways-1 node bits
		for w := 0; w < ways; w++ {
			clr, set := a.treeClr[w], a.treeSet[w]
			if clr&set != 0 {
				t.Errorf("ways=%d way=%d: clear mask %#x and set mask %#x overlap", ways, w, clr, set)
			}
			if n := bits.OnesCount64(clr | set); n != a.depth {
				t.Errorf("ways=%d way=%d: touch changes %d nodes, want depth %d", ways, w, n, a.depth)
			}
			if (clr|set)&^nodes != 0 {
				t.Errorf("ways=%d way=%d: masks %#x reach past the %d node bits", ways, w, clr|set, ways-1)
			}
		}
		if ways < 2 {
			continue
		}
		// From the power-on state and random states, a touch of w must
		// never leave w as the victim.
		for trial := 0; trial < 200; trial++ {
			start := r.Uint64() & nodes
			if trial == 0 {
				start = 0
			}
			for w := 0; w < ways; w++ {
				a.SetPackedState(0, start)
				a.Touch(0, w)
				if v := a.Victim(0); v == w {
					t.Fatalf("ways=%d state=%#x: touch of way %d leaves it the victim", ways, start, w)
				}
			}
		}
	}
}
