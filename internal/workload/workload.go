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
	// Reset restarts the stream with a fresh seed.
	Reset(seed uint64)
}

const lineSize = 64

// sequential streams through a buffer repeatedly: the libquantum/lbm-like
// profile, maximal spatial locality, no temporal reuse within the sweep.
type sequential struct {
	name   string
	bytes  uint64
	pos    uint64
	stride uint64
}

func (s *sequential) Name() string { return s.name }
func (s *sequential) Reset(seed uint64) {
	s.pos = (seed * 0x9e3779b9) % s.bytes
}
func (s *sequential) Next() Access {
	a := Access{Addr: s.pos}
	s.pos = (s.pos + s.stride) % s.bytes
	return a
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

// rank returns the first rank whose CDF value is >= u (the last rank
// if none is), for u in [0, 1].
func (z *zipfTable) rank(u float64) int {
	i := int(z.guide[int(u*z.g)])
	for i < len(z.cdf)-1 && z.cdf[i] < u {
		i++
	}
	return i
}

func (z *zipf) Name() string      { return z.name }
func (z *zipf) Reset(seed uint64) { z.r = rng.New(seed) }
func (z *zipf) Next() Access {
	// Scramble rank -> line so hot lines spread across cache sets.
	line := uint64(z.rank(z.r.Float64())) * 0x9e3779b97f4a7c15 % uint64(z.lines)
	return Access{Addr: line * lineSize}
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
func (p *pointerChase) Next() Access {
	a := Access{Addr: uint64(p.pos) * lineSize}
	p.pos = p.next[p.pos]
	return a
}

// strided walks a working set with a fixed multi-line stride, wrapping: the
// milc/soplex-like profile. Spatial reuse across sweeps, conflict-prone.
type strided struct {
	name   string
	lines  uint64
	stride uint64
	pos    uint64
}

func (s *strided) Name() string      { return s.name }
func (s *strided) Reset(seed uint64) { s.pos = seed % s.lines }
func (s *strided) Next() Access {
	a := Access{Addr: s.pos * lineSize}
	s.pos = (s.pos + s.stride) % s.lines
	return a
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
func (m *mixed) Next() Access {
	if m.r.Float64() < m.p {
		return m.hot.Next()
	}
	a := m.cold.Next()
	a.Addr += 1 << 30 // keep the cold region disjoint from the hot one
	return a
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
			cold: &sequential{bytes: coldBytes, stride: lineSize}, p: p}
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
	{"hmmer", func() Generator { return &strided{name: "hmmer", lines: 3000, stride: 7} }},
	zipfBenchmark("sjeng", 8192, 1.05),
	{"libquantum", func() Generator { return &sequential{name: "libquantum", bytes: 1 << 23, stride: lineSize} }},
	{"omnetpp", func() Generator { return &pointerChase{name: "omnetpp", lines: 1 << 15} }},
	{"milc", func() Generator { return &strided{name: "milc", lines: 1 << 14, stride: 33} }},
	{"lbm", func() Generator { return &sequential{name: "lbm", bytes: 1 << 24, stride: 2 * lineSize} }},
	mixedBenchmark("sphinx3", 512, 1.3, 1<<21, 0.6),
}

// SuiteSize is the number of Figure 9 benchmarks, without constructing
// any of them.
func SuiteSize() int { return len(suite) }

// SuiteBenchmark builds and seeds the i'th suite benchmark alone. It is
// identical to Suite(seed)[i].
func SuiteBenchmark(i int, seed uint64) Generator {
	g := suite[i].build()
	g.Reset(seed + uint64(i)*1315423911)
	return g
}

// Suite returns the Figure 9 benchmark suite, seeded and ready to stream.
// Names follow the SPEC programs whose locality each generator imitates.
func Suite(seed uint64) []Generator {
	gens := make([]Generator, SuiteSize())
	for i := range gens {
		gens[i] = SuiteBenchmark(i, seed)
	}
	return gens
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

// ByName builds the named suite generator alone. It is identical to the
// generator of that name in Suite(seed).
func ByName(name string, seed uint64) (Generator, error) {
	i, err := Index(name)
	if err != nil {
		return nil, err
	}
	return SuiteBenchmark(i, seed), nil
}
