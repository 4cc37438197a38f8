// Package replacement implements the cache replacement policies studied in
// the paper: true LRU, Tree-PLRU (So & Rechtschaffen), Bit-PLRU / MRU
// (Malamy et al.), FIFO, and Random. The Tree-PLRU and Bit-PLRU update and
// victim-selection rules follow Section II-B of the paper bit-for-bit; the
// Table I eviction-probability study and every channel experiment run on
// top of these implementations.
//
// A SetArray holds the replacement state of every set of a cache (or of
// every partition row of the DAWG model) in contiguous slices and
// dispatches directly on Kind. The containing cache is responsible for
// filling invalid ways first; the array is only consulted for a victim
// when a set is full.
//
// Per-set reference implementations of each policy, in the most obvious
// representation, live in this package's test files as oracles: the
// equivalence fuzz target keeps SetArray in lock-step with them.
package replacement
