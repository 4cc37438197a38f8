package replacement

import (
	"math/bits"
	"strconv"

	"repro/internal/rng"
)

// SetArray is the packed, allocation-free replacement-state store behind
// internal/cache: the state of EVERY set of a cache lives in one or two
// contiguous slices, one machine word (or one byte-vector row) per set,
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
//	True LRU   a packed age vector: one byte per way in a sets×ways slab,
//	           age 0 = most recently used, ways-1 = LRU victim.
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

	// words holds the packed per-set word for Tree-PLRU, Bit-PLRU, FIFO
	// and (for ways <= 8) True-LRU; it is nil for wide True-LRU and
	// Random.
	words []uint64
	// ages is the True-LRU sets×ways age slab, used only when ways > 8
	// (the age vector no longer fits one word); nil otherwise.
	ages []uint8

	full uint64    // Bit-PLRU all-ways-set mask
	r    *rng.Rand // Random victim source

	// tree is the Tree-PLRU view of words (its zero value for the
	// other families).
	tree Tree

	// Packed True-LRU constants (ways <= 8): one byte lane per way.
	lruMask  uint64 // 0x01 in every valid lane
	lruPad   uint64 // 0xff in every INVALID lane (keeps them out of searches)
	lruReset uint64 // the power-on age vector, lane w = ways-1-w
}

// SWAR lane constants for the packed True-LRU age vector.
const (
	lruLanes = 0x0101010101010101 // 0x01 in every byte lane
	lruHigh  = 0x8080808080808080 // the high bit of every byte lane
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
		if ways <= 8 {
			// The whole age vector fits one word: byte lane w holds
			// way w's age, updated branchlessly (see touchLRUPacked).
			a.words = make([]uint64, sets)
			a.lruMask = lruLanes >> uint(64-8*ways)
			a.lruPad = ^(a.lruMask * 0xff)
			for w := 0; w < ways; w++ {
				a.lruReset |= uint64(ways-1-w) << uint(8*w)
			}
		} else {
			a.ages = make([]uint8, sets*ways)
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
		if a.ages == nil {
			a.touchLRUPacked(set, way)
		} else {
			a.touchLRU(set, way)
		}
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
		if a.ages == nil {
			a.touchLRUPacked(set, way)
		} else {
			a.touchLRU(set, way)
		}
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
		if a.ages == nil {
			return a.victimLRUPacked(set)
		}
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

func (a *SetArray) touchLRU(set, way int) {
	row := a.ages[set*a.ways : set*a.ways+a.ways]
	old := row[way]
	for i := range row {
		if row[i] < old {
			row[i]++
		}
	}
	row[way] = 0
}

// touchLRUPacked is the one-word form of touchLRU. Ages always form a
// permutation of 0..ways-1 (ResetSet builds one and every touch
// preserves it), so every lane value is <= 7 and the classic
// "has byte less than n" SWAR predicate is exact: lanes strictly
// younger than the touched way's old age gain a flag in their high
// bit, are incremented by the flag shifted down, and the touched lane
// is cleared to most-recently-used. Invalid lanes (ways < 8) stay 0
// because the increment is masked to valid lanes.
func (a *SetArray) touchLRUPacked(set, way int) {
	x := a.words[set]
	sh := uint(8 * way)
	old := x >> sh & 0xff
	lt := (x - old*lruLanes) &^ x & lruHigh
	x += lt >> 7 & a.lruMask
	x &^= 0xff << sh
	a.words[set] = x
}

// victimLRUPacked finds the lane holding age ways-1. The permutation
// invariant guarantees exactly one valid lane matches; invalid lanes
// are forced non-zero by lruPad so the zero-byte search cannot pick
// them up.
func (a *SetArray) victimLRUPacked(set int) int {
	y := (a.words[set] ^ uint64(a.ways-1)*lruLanes) | a.lruPad
	z := (y - lruLanes) &^ y & lruHigh
	return bits.TrailingZeros64(z) >> 3
}

func (a *SetArray) victimLRU(set int) int {
	row := a.ages[set*a.ways : set*a.ways+a.ways]
	best, bestAge := 0, -1
	for w, age := range row {
		if int(age) > bestAge {
			best, bestAge = w, int(age)
		}
	}
	return best
}

// maxPackedLRUWays is the widest true-LRU associativity whose age
// vector still fits the one-word canonical encoding of PackedState:
// above 8 ways the ages leave the byte-lane fast path, but up to 16
// ways each age (<= 15) still fits a 4-bit lane.
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
// internal/leakage. For the word-backed families (Tree-PLRU, Bit-PLRU,
// FIFO, and true LRU at <= 8 ways) it is the packed word itself; wide
// true LRU (9..16 ways) packs each age into a 4-bit lane. Two sets are
// in the same replacement state if and only if their PackedState words
// are equal. It panics when !StatePackable().
func (a *SetArray) PackedState(set int) uint64 {
	if debugChecks {
		checkSet(set, a.sets)
	}
	if a.ages != nil {
		if a.ways > maxPackedLRUWays {
			panic("replacement: true-LRU state beyond 16 ways exceeds one word")
		}
		row := a.ages[set*a.ways : set*a.ways+a.ways]
		var s uint64
		for w, age := range row {
			s |= uint64(age) << uint(4*w)
		}
		return s
	}
	if a.words == nil {
		panic("replacement: Random policy keeps no replacement state")
	}
	return a.words[set]
}

// SetPackedState restores one set to a state previously exported by
// PackedState on an array of the same kind and associativity. Like the
// Touch/Fill hot path it does not validate the word — the enumeration
// callers only replay states the array itself produced.
func (a *SetArray) SetPackedState(set int, s uint64) {
	if debugChecks {
		checkSet(set, a.sets)
	}
	if a.ages != nil {
		if a.ways > maxPackedLRUWays {
			panic("replacement: true-LRU state beyond 16 ways exceeds one word")
		}
		row := a.ages[set*a.ways : set*a.ways+a.ways]
		for w := range row {
			row[w] = uint8(s >> uint(4*w) & 0xf)
		}
		return
	}
	if a.words == nil {
		panic("replacement: Random policy keeps no replacement state")
	}
	a.words[set] = s
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
		if a.ages == nil {
			a.words[set] = a.lruReset
			return
		}
		row := a.ages[set*a.ways : set*a.ways+a.ways]
		for w := range row {
			row[w] = uint8(a.ways - 1 - w)
		}
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
			age := uint64(0)
			if a.ages == nil {
				age = a.words[set] >> uint(8*w) & 0xff
			} else {
				age = uint64(a.ages[set*a.ways+w])
			}
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
