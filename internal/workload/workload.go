// Package workload generates synthetic memory-reference traces standing in
// for the SPEC CPU2006 benchmarks of Figure 9 (the paper drives GEM5 with
// SPEC; we cannot redistribute SPEC, so each benchmark is replaced by a
// generator with a similar locality profile — see DESIGN.md's substitution
// table).
//
// Each Benchmark produces a deterministic stream of virtual addresses given
// a seed. The profiles vary along the axes that matter to a replacement
// policy study: working-set size relative to the L1D, reuse-distance
// distribution (Zipf-like vs uniform), streaming vs strided vs
// pointer-chasing access order, and the fraction of accesses to a small hot
// region.
//
// A stream is read one reference per Next call, or as line numbers, a
// chunk per Lines call. The simulated drivers (the Figure 9 runs and
// the ROC sweep's benign co-runs) need only line numbers, and a chunk
// fill keeps the per-reference interface call and the Access wrapper
// off their inner loops. Next and Lines read one per-reference formula
// per generator, so the two cannot drift apart.
package workload

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// Access is one memory reference.
type Access struct {
	Addr uint64 // virtual byte address
}

// Generator yields an infinite reference stream.
type Generator interface {
	// Name identifies the workload (the SPEC benchmark it imitates).
	Name() string
	// Next returns the next reference.
	Next() Access
	// Lines writes the line numbers (Addr/64) of the next len(dst)
	// references to dst: the values len(dst) Next calls would return,
	// divided by the line size, with the stream advanced as far.
	Lines(dst []uint64)
	// Reset restarts the stream with a fresh seed.
	Reset(seed uint64)
}

const lineSize = 64

// cursor steps a position through [0, span) by a fixed stride. The
// wrap is one subtraction, not a division: pos < span always holds,
// and newCursor rejects stride >= span.
type cursor struct{ pos, stride, span uint64 }

func newCursor(name string, span, stride uint64) cursor {
	if stride >= span {
		panic(fmt.Sprintf("workload: %s stride %d is not below its span %d", name, stride, span))
	}
	return cursor{stride: stride, span: span}
}

// step returns the position and advances it.
func (c *cursor) step() uint64 {
	pos := c.pos
	c.pos += c.stride
	if c.pos >= c.span {
		c.pos -= c.span
	}
	return pos
}

// sequential streams through a buffer repeatedly: the libquantum/lbm-like
// profile, maximal spatial locality, no temporal reuse within the sweep.
type sequential struct {
	name string
	cursor
}

func (s *sequential) Name() string { return s.name }
func (s *sequential) Reset(seed uint64) {
	s.pos = (seed * 0x9e3779b9) % s.span
}
func (s *sequential) Next() Access { return Access{Addr: s.step()} }
func (s *sequential) Lines(dst []uint64) {
	for i := range dst {
		dst[i] = s.step() / lineSize
	}
}

// zipf draws lines from a Zipf-like distribution over a working set: the
// gcc/perlbench-like profile where a hot minority of lines carries most
// references. Temporal locality is strong, so LRU-family policies shine.
type zipf struct {
	name string
	*zipfTable
	r *rng.Rand
}

// zipfTable is the read-only part of a Zipf generator: the CDF over
// ranks and its guide table. It depends only on (lines, skew), so every
// generator of one suite benchmark shares one table (see zipfBenchmark).
//
// A draw inverts the CDF: the rank is the first i with cdf[i] >= u. The
// guide table answers that without a search: for G the smallest power
// of two >= lines, guide[k] is the first rank with cdf >= k/G, so a
// draw starts at guide[floor(u*G)] and scans forward a step or two.
// Scaling by a power of two is exact, so the scan lands on exactly the
// rank a binary search of the CDF would return, for every u.
type zipfTable struct {
	lines int
	skew  float64
	cdf   []float64
	guide []int32 // G+1 entries; guide[G] covers u == 1
	g     float64 // G
}

func newZipfTable(lines int, skew float64) *zipfTable {
	if lines <= 0 || lines&(lines-1) != 0 {
		panic(fmt.Sprintf("workload: Zipf working set of %d lines is not a power of two", lines))
	}
	z := &zipfTable{lines: lines, skew: skew}
	z.cdf = make([]float64, lines)
	sum := 0.0
	for i := 0; i < lines; i++ {
		sum += 1 / math.Pow(float64(i+1), skew)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	// rank's scan has no end guard: it stops at the last rank because
	// cdf[lines-1] is sum/sum, which is exactly 1 in IEEE arithmetic
	// and so >= every u in [0, 1].
	if z.cdf[lines-1] != 1 {
		panic(fmt.Sprintf("workload: Zipf CDF over %d lines ends at %v, not 1", lines, z.cdf[lines-1]))
	}
	g := 1
	for g < lines {
		g <<= 1
	}
	z.g = float64(g)
	z.guide = make([]int32, g+1)
	i := 0
	for k := range z.guide {
		for i < lines-1 && z.cdf[i] < float64(k)/z.g {
			i++
		}
		z.guide[k] = int32(i)
	}
	return z
}

// rank returns the first rank whose CDF value is >= u, for u in
// [0, 1]. The guide lands on the answer or one short of it on about
// half the draws each, so the first step is taken branch-free (a
// compare-and-add, not a branch that mispredicts half the time); the
// loop after it rarely runs. Neither needs an end guard, since
// cdf[lines-1] == 1 >= u (checked in newZipfTable).
func (z *zipfTable) rank(u float64) int {
	i := int(z.guide[int(u*z.g)])
	i += b2i(z.cdf[i] < u)
	for z.cdf[i] < u {
		i++
	}
	return i
}

// b2i is 1 for true and 0 for false, compiled to a flag set rather
// than a branch.
func b2i(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}

func (z *zipf) Name() string      { return z.name }
func (z *zipf) Reset(seed uint64) { z.r = rng.New(seed) }
func (z *zipf) Next() Access      { return Access{Addr: z.line() * lineSize} }
func (z *zipf) Lines(dst []uint64) {
	for i := range dst {
		dst[i] = z.line()
	}
}

// line draws the next line number. The rank -> line scramble spreads
// hot lines across cache sets (the mask is the modulo: lines is a
// power of two).
func (z *zipf) line() uint64 {
	return uint64(z.rank(z.r.Float64())) * 0x9e3779b97f4a7c15 & uint64(z.lines-1)
}

// pointerChase jumps through a randomized permutation of a large working
// set: the mcf/omnetpp-like profile, almost no locality the cache can use.
// Reset builds the permutation cycle; the generator is unusable before
// its first Reset.
type pointerChase struct {
	name  string
	lines int
	perm  []uint32 // scratch for the shuffle, kept across Resets
	next  []uint32
	pos   uint32
}

// Reset rebuilds the cycle from seed. The shuffle is rng.Perm's: the
// same Intn draws in the same order, so the cycle equals the one built
// from r.Perm(lines), without allocating once the buffers exist.
func (p *pointerChase) Reset(seed uint64) {
	if p.next == nil {
		p.perm = make([]uint32, p.lines)
		p.next = make([]uint32, p.lines)
	}
	perm := p.perm
	for i := range perm {
		perm[i] = uint32(i)
	}
	r := rng.New(seed)
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		p.next[perm[i]] = perm[(i+1)%len(perm)]
	}
	p.pos = perm[0]
}

func (p *pointerChase) Name() string { return p.name }
func (p *pointerChase) Next() Access { return Access{Addr: p.line() * lineSize} }
func (p *pointerChase) Lines(dst []uint64) {
	for i := range dst {
		dst[i] = p.line()
	}
}

// line returns the current line number and follows the cycle.
func (p *pointerChase) line() uint64 {
	l := p.pos
	p.pos = p.next[l]
	return uint64(l)
}

// strided walks a working set with a fixed multi-line stride, wrapping: the
// milc/soplex-like profile. Spatial reuse across sweeps, conflict-prone.
type strided struct {
	name   string
	cursor // over lines
}

func (s *strided) Name() string      { return s.name }
func (s *strided) Reset(seed uint64) { s.pos = seed % s.span }
func (s *strided) Next() Access      { return Access{Addr: s.step() * lineSize} }
func (s *strided) Lines(dst []uint64) {
	for i := range dst {
		dst[i] = s.step()
	}
}

// mixed interleaves a hot Zipf region with occasional streaming sweeps:
// bzip2/h264ref-like.
type mixed struct {
	name string
	hot  *zipf
	cold *sequential
	r    *rng.Rand
	p    float64 // probability of a hot access
}

func (m *mixed) Name() string { return m.name }
func (m *mixed) Reset(seed uint64) {
	m.hot.Reset(seed)
	m.cold.Reset(seed + 1)
	m.r = rng.New(seed + 2)
}
func (m *mixed) Next() Access { return Access{Addr: m.addr(m.r.Float64() < m.p)} }

// Lines draws the chunk's hot/cold coin flips first, parked in dst,
// then its hot and cold references. The coin, the hot region and the
// cold sweep each have their own state, so drawing the flips ahead
// changes no value any of them produces.
func (m *mixed) Lines(dst []uint64) {
	for i := range dst {
		dst[i] = uint64(b2i(m.r.Float64() < m.p))
	}
	for i, hot := range dst {
		dst[i] = m.addr(hot != 0) / lineSize
	}
}

// addr returns the next reference's address from the hot region or
// the cold sweep, which sits 1 GiB up to keep the two disjoint.
func (m *mixed) addr(hot bool) uint64 {
	if hot {
		return m.hot.line() * lineSize
	}
	return m.cold.step() + 1<<30
}

// benchmark is one Figure 9 suite entry: its name and an unseeded
// constructor.
type benchmark struct {
	name  string
	build func() Generator
}

// zipfBenchmark is a suite entry drawing from one shared Zipf table,
// built on first use (from any goroutine) and read-only after.
func zipfBenchmark(name string, lines int, skew float64) benchmark {
	table := sync.OnceValue(func() *zipfTable { return newZipfTable(lines, skew) })
	return benchmark{name, func() Generator { return &zipf{name: name, zipfTable: table()} }}
}

// mixedBenchmark is a suite entry whose hot region draws from one shared
// Zipf table, as in zipfBenchmark.
func mixedBenchmark(name string, lines int, skew float64, coldBytes uint64, p float64) benchmark {
	table := sync.OnceValue(func() *zipfTable { return newZipfTable(lines, skew) })
	return benchmark{name, func() Generator {
		return &mixed{name: name, hot: &zipf{zipfTable: table()},
			cold: &sequential{name, newCursor(name, coldBytes, lineSize)}, p: p}
	}}
}

// suite lists the Figure 9 benchmarks in suite order. Each is built
// only when asked for, so callers that need a single generator (one
// parallel job per benchmark) do not pay for the whole suite; the Zipf
// tables, the expensive part of the Zipf profiles, are built once per
// process and shared.
var suite = []benchmark{
	zipfBenchmark("perlbench", 4096, 1.1),
	mixedBenchmark("bzip2", 1024, 1.0, 1<<22, 0.85),
	zipfBenchmark("gcc", 16384, 0.9),
	{"mcf", func() Generator { return &pointerChase{name: "mcf", lines: 1 << 16} }},
	mixedBenchmark("gobmk", 2048, 1.2, 1<<20, 0.7),
	{"hmmer", func() Generator { return &strided{"hmmer", newCursor("hmmer", 3000, 7)} }},
	zipfBenchmark("sjeng", 8192, 1.05),
	{"libquantum", func() Generator { return &sequential{"libquantum", newCursor("libquantum", 1<<23, lineSize)} }},
	{"omnetpp", func() Generator { return &pointerChase{name: "omnetpp", lines: 1 << 15} }},
	{"milc", func() Generator { return &strided{"milc", newCursor("milc", 1<<14, 33)} }},
	{"lbm", func() Generator { return &sequential{"lbm", newCursor("lbm", 1<<24, 2*lineSize)} }},
	mixedBenchmark("sphinx3", 512, 1.3, 1<<21, 0.6),
}

// SuiteSize is the number of Figure 9 benchmarks, without constructing
// any of them.
func SuiteSize() int { return len(suite) }

// SuiteBenchmark builds the i'th Figure 9 benchmark, seeded and ready
// to stream. Names follow the SPEC programs whose locality each
// generator imitates.
func SuiteBenchmark(i int, seed uint64) Generator {
	g := suite[i].build()
	g.Reset(seed + uint64(i)*1315423911)
	return g
}

// Index returns the suite position of the named benchmark, without
// building any generator, or an error if the suite has no such
// benchmark.
func Index(name string) (int, error) {
	for i, b := range suite {
		if b.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown benchmark %q", name)
}

// ByName builds the named suite generator alone. It is identical to
// SuiteBenchmark at the name's suite position.
func ByName(name string, seed uint64) (Generator, error) {
	i, err := Index(name)
	if err != nil {
		return nil, err
	}
	return SuiteBenchmark(i, seed), nil
}
