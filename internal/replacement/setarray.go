package replacement

import (
	"math/bits"
	"strconv"

	"repro/internal/rng"
)

// SetArray is the packed, allocation-free replacement-state store behind
// internal/cache: the state of EVERY set of a cache lives in one or two
// contiguous slices, one machine word (a few for wide true LRU) per set,
// and updates dispatch directly on the policy Kind — no per-set heap
// object, no interface call, no bounds-check panic on the hot path (see
// debug_off.go for the build-tag-gated checks).
//
// Packing, per family (Section II-B of the paper):
//
//	Tree-PLRU  one uint64 per set; bit i is heap node i of the PLRU tree
//	           (ways-1 node bits, root at bit 0, children of i at 2i+1
//	           and 2i+2). A touch of way w is one masked update with
//	           w's pair of path masks; the victim is a table lookup
//	           (see Tree).
//	Bit-PLRU   one uint64 per set; bit w is way w's MRU bit.
//	True LRU   a packed age vector: one byte lane per way across
//	           ceil(ways/8) uint64 words per set, age 0 = most recently
//	           used, ways-1 = LRU victim (see touchLRU).
//	FIFO       one uint64 per set holding the round-robin next pointer.
//	Random     stateless; victims are drawn from the generator.
//
// The per-set reference policies in this package's tests are the
// semantic oracle: a SetArray must behave, set for set, exactly like an
// array of them driven through the same Touch/Fill/Victim sequence (the
// equivalence fuzz target pins this).
type SetArray struct {
	kind Kind
	sets int
	ways int

	// words holds the packed per-set word for Tree-PLRU, Bit-PLRU and
	// FIFO, and the lruWords age words of each set for True-LRU; it is
	// nil for Random.
	words []uint64

	full uint64    // Bit-PLRU all-ways-set mask
	r    *rng.Rand // Random victim source

	// tree is the Tree-PLRU view of words (its zero value for the
	// other families).
	tree Tree

	// Packed True-LRU constants: one byte lane per way, way w in lane
	// w%8 of the set's word w/8. Only the last word can be partial.
	lruWords int      // age words per set, ceil(ways/8)
	lruOld   uint64   // ways-1, the victim's age, in every byte lane
	lruPad   uint64   // lruPadAge in every INVALID lane of the last word; 0 for other families
	lruReset []uint64 // a set's power-on age words, lane w = ways-1-w
}

// SWAR lane constants for the packed True-LRU age vector.
const (
	lruLanes = 0x0101010101010101 // 0x01 in every byte lane
	lruHigh  = 0x8080808080808080 // the high bit of every byte lane
	// lruPadAge fills the invalid lanes of a partial last word: older
	// than any real age (<= 63) and below the high bit, so a touch
	// never increments it and the victim search never matches it.
	lruPadAge = 0x40
)

// NewSetArray builds packed replacement state for sets sets of the given
// associativity. ways must be >= 1, Tree-PLRU needs a power-of-two
// associativity, and Random needs a generator. The packed encodings
// additionally require ways <= 64 (one bit per way in a word), far above
// any cache modelled here.
func NewSetArray(kind Kind, sets, ways int, r *rng.Rand) *SetArray {
	if sets < 1 {
		panic("replacement: sets must be >= 1")
	}
	if ways < 1 {
		panic("replacement: ways must be >= 1")
	}
	if ways > 64 {
		panic("replacement: packed state supports at most 64 ways")
	}
	a := &SetArray{kind: kind, sets: sets, ways: ways}
	switch kind {
	case TrueLRU:
		a.lruWords = (ways + 7) / 8
		a.words = make([]uint64, sets*a.lruWords)
		a.lruOld = uint64(ways-1) * lruLanes
		for w := ways; w < 8*a.lruWords; w++ {
			a.lruPad |= lruPadAge << uint(8*(w&7))
		}
		a.lruReset = make([]uint64, a.lruWords)
		a.lruReset[a.lruWords-1] = a.lruPad
		for w := 0; w < ways; w++ {
			a.lruReset[w>>3] |= uint64(ways-1-w) << uint(8*(w&7))
		}
	case TreePLRU:
		if ways&(ways-1) != 0 {
			panic("replacement: Tree-PLRU requires power-of-two associativity")
		}
		depth := bits.TrailingZeros(uint(ways))
		a.words = make([]uint64, sets)
		a.tree = Tree{words: a.words, paths: treePaths[depth], shift: uint(6 - depth)}
	case BitPLRU:
		a.full = 1<<uint(ways) - 1
		a.words = make([]uint64, sets)
	case FIFO:
		a.words = make([]uint64, sets)
	case Random:
		if r == nil {
			panic("replacement: Random policy requires a generator")
		}
		a.r = r
	default:
		panic("replacement: unknown kind")
	}
	a.Reset()
	return a
}

// Kind returns the policy family the array implements.
func (a *SetArray) Kind() Kind { return a.kind }

// Sets returns the number of sets the array tracks.
func (a *SetArray) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *SetArray) Ways() int { return a.ways }

// Touch records a USE of (set, way): the hit-path update. FIFO and
// Random state is insensitive to uses.
func (a *SetArray) Touch(set, way int) {
	if debugChecks {
		checkSet(set, a.sets)
		checkWay(way, a.ways)
	}
	switch a.kind {
	case TreePLRU:
		a.tree.Touch(set, way)
	case BitPLRU:
		a.touchBit(set, way)
	case TrueLRU:
		a.touchLRU(set, way)
	}
}

// Fill records a line INSTALL into (set, way): the use update of Touch
// plus, for FIFO, the round-robin pointer advance.
func (a *SetArray) Fill(set, way int) {
	if debugChecks {
		checkSet(set, a.sets)
		checkWay(way, a.ways)
	}
	switch a.kind {
	case TreePLRU:
		a.tree.Touch(set, way)
	case BitPLRU:
		a.touchBit(set, way)
	case TrueLRU:
		a.touchLRU(set, way)
	case FIFO:
		if uint64(way) == a.words[set] {
			a.words[set] = (a.words[set] + 1) % uint64(a.ways)
		}
	}
}

// Victim returns the way the policy would evict next in set. It does
// not mutate deterministic state (the PL cache consults it and may veto
// the eviction); Random draws from its generator, exactly one draw per
// consultation.
func (a *SetArray) Victim(set int) int {
	if debugChecks {
		checkSet(set, a.sets)
	}
	switch a.kind {
	case TreePLRU:
		return a.tree.Victim(set)
	case BitPLRU:
		return a.victimBit(set)
	case TrueLRU:
		return a.victimLRU(set)
	case FIFO:
		return int(a.words[set])
	default: // Random
		return a.r.Intn(a.ways)
	}
}

// Tree is the Tree-PLRU state of a SetArray: the same per-set words,
// with the family already resolved. A Tree-PLRU update is a few
// instructions, so a call per access would cost as much as the update
// itself; a caller that runs many accesses against one array takes the
// Tree once (see SetArray.Tree) and its Touch and Victim inline into
// the caller's loop. SetArray's own Touch, Fill and Victim run the same
// methods, so there is one Tree-PLRU implementation.
type Tree struct {
	words []uint64   // the SetArray's words
	paths []treePath // the touch masks of this associativity (see treePaths)
	shift uint       // 6 - depth, scales the victim lookup to the tree height
}

// Tree returns the array's Tree-PLRU state, or nil when the array holds
// another family. A Tree-PLRU install is a Touch.
func (a *SetArray) Tree() *Tree {
	if a.kind != TreePLRU {
		return nil
	}
	return &a.tree
}

// Touch records a use or an install of (set, way): every node on the
// way's root-to-leaf path is pointed away from it, one masked update.
func (t *Tree) Touch(set, way int) {
	p := t.paths[way]
	t.words[set] = t.words[set]&^p.clr | p.set
}

// Victim returns the way the tree points at in set. It looks the path
// up three tree levels at a time instead of walking the tree bit by
// bit. The heap layout stores each level contiguously (level l at bits
// 2^l-1 .. 2^(l+1)-2), so the top three levels are the word's low
// seven bits; node bits beyond a shallower tree are zero and add zero
// leaf bits, so the path shifted right by 3-depth is the victim of a
// tree of up to 8 ways. Below top path p, a deeper tree's next three
// levels form a depth-3 subtree with nodes at bit 7+p (level 3), bits
// 15+2p and 16+2p (level 4) and bits 31+4p .. 34+4p (level 5):
// gathered in that order they are again a heap-ordered index, and the
// six-bit path shifted right by 6-depth is the victim of a tree of up
// to 64 ways.
func (t *Tree) Victim(set int) int {
	w := t.words[set]
	p := uint64(treeVictim[w&0x7f])
	if t.shift >= 3 {
		return int(p >> (t.shift - 3))
	}
	sub := w>>(7+p)&1 | w>>(15+2*p)&3<<1 | w>>(31+4*p)&15<<3
	return int(p<<3|uint64(treeVictim[sub])) >> t.shift
}

// treePath is the touch update of one Tree-PLRU way: the nodes on its
// root-to-leaf path to clear and to set.
type treePath struct{ clr, set uint64 }

// treePaths[d] is the touch-mask table of a depth-d tree (2^d ways).
// A touch points every node on the root-to-leaf path AWAY from the
// used way (bit 1 = right subtree is LRU): at level l the direction
// into way's subtree is bit d-1-l of way, so the node is set when the
// way lies left and cleared when it lies right. The path is fixed per
// way, hence one pair of masks per way. The tables depend only on the
// associativity, so every array of that associativity shares one.
var treePaths = func() (t [7][]treePath) {
	for d := range t {
		t[d] = make([]treePath, 1<<d)
		for way := range t[d] {
			node := 0
			for level := d - 1; level >= 0; level-- {
				dir := (way >> uint(level)) & 1
				if dir == 0 {
					t[d][way].set |= 1 << uint(node)
				} else {
					t[d][way].clr |= 1 << uint(node)
				}
				node = 2*node + 1 + dir
			}
		}
	}
	return t
}()

// treeVictim maps the seven node bits of a depth-3 subtree, in heap
// order (its root at bit 0, the root's children at bits 1 and 2, their
// children at bits 3..6), to the 3-bit leaf path the victim walk takes
// through it.
var treeVictim = func() (t [128]uint8) {
	for nodes := range t {
		node, leaf := 0, 0
		for level := 0; level < 3; level++ {
			dir := nodes >> uint(node) & 1
			leaf = leaf<<1 | dir
			node = 2*node + 1 + dir
		}
		t[nodes] = uint8(leaf)
	}
	return t
}()

func (a *SetArray) touchBit(set, way int) {
	w := a.words[set] | 1<<uint(way)
	if w == a.full {
		// Generation rollover: every MRU bit clears, the accessed
		// way's included (the paper's literal Section II-B wording).
		w = 0
	}
	a.words[set] = w
}

func (a *SetArray) victimBit(set int) int {
	// Lowest-indexed way with a clear MRU bit; the rollover guarantees
	// one exists below ways.
	v := bits.TrailingZeros64(^a.words[set])
	if v >= a.ways {
		return 0 // unreachable: touchBit clears on all-set
	}
	return v
}

// touchLRU updates the age vector with the classic "has byte less
// than n" SWAR predicate, one word at a time. Ages always form a
// permutation of 0..ways-1 (ResetSet builds one and every touch
// preserves it), so every lane value is <= 63 and the predicate is
// exact per lane: lanes strictly younger than the touched way's old age
// gain a flag in their high bit and are incremented by the flag shifted
// down. A borrow out of a flagged lane lowers the next lane's
// difference by one, which flags that lane only if it is younger too or
// is the touched lane, and the touched lane is then cleared to
// most-recently-used. Words do not borrow from one another. The
// invalid lanes of a partial last word hold lruPadAge, older than any
// age, so they are never flagged and never match the victim's age.
func (a *SetArray) touchLRU(set, way int) {
	n := a.lruWords
	row := a.words[set*n : set*n+n]
	sh := uint(8 * (way & 7))
	old := (row[way>>3] >> sh & 0xff) * lruLanes
	for i, x := range row {
		row[i] = x + ((x-old)&^x&lruHigh)>>7
	}
	row[way>>3] &^= 0xff << sh
}

// victimLRU finds the lane holding age ways-1 with a zero-byte search
// per word. The permutation invariant guarantees exactly one lane
// matches.
func (a *SetArray) victimLRU(set int) int {
	n := a.lruWords
	row := a.words[set*n : set*n+n]
	for i, x := range row {
		y := x ^ a.lruOld
		if z := (y - lruLanes) &^ y & lruHigh; z != 0 {
			return 8*i + bits.TrailingZeros64(z)>>3
		}
	}
	return 0 // unreachable: one lane always holds age ways-1
}

// maxPackedLRUWays is the widest true-LRU associativity whose age
// vector still fits the one-word canonical encoding of PackedState:
// up to 8 ways the byte-lane word itself, and up to 16 ways each age
// (<= 15) in a 4-bit lane.
const maxPackedLRUWays = 16

// StatePackable reports whether the array's per-set replacement state
// has a canonical one-word encoding (PackedState/SetPackedState). It is
// false only for Random — which keeps no state — and for true LRU wider
// than 16 ways, whose age vector no longer fits 4-bit lanes.
func (a *SetArray) StatePackable() bool {
	switch a.kind {
	case Random:
		return false
	case TrueLRU:
		return a.ways <= maxPackedLRUWays
	default:
		return true
	}
}

// PackedState exports one set's replacement state as a canonical
// machine word — the state-space iteration hook behind
// internal/leakage. For Tree-PLRU, Bit-PLRU and FIFO it is the packed
// word itself; for true LRU at <= 8 ways it is the byte-lane word with
// its invalid lanes zero, and at 9..16 ways the ages of its two
// byte-lane words in 4-bit lanes, way w in bits 4w..4w+3. Two sets are
// in the same replacement state if and only if their PackedState words
// are equal. It panics when !StatePackable().
func (a *SetArray) PackedState(set int) uint64 {
	if debugChecks {
		checkSet(set, a.sets)
	}
	switch {
	case a.words == nil:
		panic("replacement: Random policy keeps no replacement state")
	case a.lruWords == 2:
		return packNibbles(a.words[2*set]) | packNibbles(a.words[2*set+1]&^a.lruPad)<<32
	case a.lruWords > 2:
		panic("replacement: true-LRU state beyond 16 ways exceeds one word")
	}
	return a.words[set] &^ a.lruPad
}

// SetPackedState restores one set to a state previously exported by
// PackedState on an array of the same kind and associativity. Like the
// Touch/Fill hot path it does not validate the word — the enumeration
// callers only replay states the array itself produced.
func (a *SetArray) SetPackedState(set int, s uint64) {
	if debugChecks {
		checkSet(set, a.sets)
	}
	switch {
	case a.words == nil:
		panic("replacement: Random policy keeps no replacement state")
	case a.lruWords == 2:
		a.words[2*set] = unpackNibbles(s)
		a.words[2*set+1] = unpackNibbles(s>>32) | a.lruPad
		return
	case a.lruWords > 2:
		panic("replacement: true-LRU state beyond 16 ways exceeds one word")
	}
	a.words[set] = s | a.lruPad
}

// packNibbles gathers the low nibble of each byte lane of x into the
// low 32 bits, lane i to bits 4i..4i+3. Every lane must be < 16.
func packNibbles(x uint64) uint64 {
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0xffffffff
}

// unpackNibbles is the inverse of packNibbles: nibble i of the low 32
// bits of s to byte lane i.
func unpackNibbles(s uint64) uint64 {
	x := s & 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	return (x | x<<4) & 0x0f0f0f0f0f0f0f0f
}

// Reset restores every set to its power-on state.
func (a *SetArray) Reset() {
	for s := 0; s < a.sets; s++ {
		a.ResetSet(s)
	}
}

// ResetSet restores one set to its power-on state: the same convention
// as the per-set reference policies (True LRU ages way 0 oldest, the
// packed words all-zero).
func (a *SetArray) ResetSet(set int) {
	if debugChecks {
		checkSet(set, a.sets)
	}
	if a.kind == TrueLRU {
		n := a.lruWords
		copy(a.words[set*n:set*n+n], a.lruReset)
		return
	}
	if a.words != nil {
		a.words[set] = 0
	}
}

// StateString renders one set's state in the same format as the
// corresponding reference policy, for traces and the Table I study.
func (a *SetArray) StateString(set int) string {
	switch a.kind {
	case TrueLRU:
		buf := make([]byte, 0, 4+3*a.ways)
		buf = append(buf, "age:"...)
		for w := 0; w < a.ways; w++ {
			if w > 0 {
				buf = append(buf, ',')
			}
			age := a.words[set*a.lruWords+w>>3] >> uint(8*(w&7)) & 0xff
			buf = strconv.AppendUint(buf, age, 10)
		}
		return string(buf)
	case TreePLRU:
		buf := make([]byte, 0, 5+a.ways)
		buf = append(buf, "tree:"...)
		for i := 0; i < a.ways-1; i++ {
			buf = append(buf, '0'+byte(a.words[set]>>uint(i)&1))
		}
		return string(buf)
	case BitPLRU:
		buf := make([]byte, 0, 4+a.ways)
		buf = append(buf, "mru:"...)
		for w := 0; w < a.ways; w++ {
			buf = append(buf, '0'+byte(a.words[set]>>uint(w)&1))
		}
		return string(buf)
	case FIFO:
		return "fifo:" + strconv.FormatUint(a.words[set], 10)
	default:
		return "random"
	}
}

func checkSet(set, sets int) {
	if set < 0 || set >= sets {
		panic("replacement: set index out of range")
	}
}
