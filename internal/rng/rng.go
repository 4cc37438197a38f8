// Package rng provides a small, deterministic, allocation-free pseudo-random
// number generator used throughout the simulator.
//
// Experiments in this repository must be exactly reproducible from a seed:
// the scheduler interleaving, the warm-up access sequences of Table I, the
// Spectre round ordering of Appendix C, and all measurement noise are drawn
// from instances of Rand that the caller threads through explicitly. The
// global state of math/rand is deliberately avoided.
//
// The generator is xoshiro256**, seeded via splitmix64, following the
// reference constructions by Blackman and Vigna. It is not cryptographically
// secure; it only needs good statistical behaviour and speed.
package rng

// Rand is a deterministic pseudo-random number generator.
//
// The zero value is not usable; construct instances with New. Rand is not
// safe for concurrent use; give each goroutine (or each simulated hardware
// thread) its own instance, typically via Split.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// only to expand a 64-bit seed into the 256-bit xoshiro state so that
// similar seeds yield unrelated streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Reseed resets r in place to the exact state New(seed) would return,
// without allocating. A target reused across a cell's trials depends
// on this: its generator, Reseeded before each trial, produces the same
// stream as a freshly constructed one, so reuse stays bit-identical to
// per-trial construction.
func (r *Rand) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new independent generator from r. The derived stream is
// decorrelated from r's future output, so subsystems can be given their own
// generators without consuming each other's sequences.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Debiasing uses Lemire's multiply-shift rejection method.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed integer in [0, n). It panics if
// n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's method: multiply a 64-bit random by n and keep the high
	// word, rejecting the small biased region of the low word.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). Implemented
// manually so the package has no dependency on math/bits semantics changing
// (and to keep the arithmetic explicit).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniformly distributed float in [0, 1).
//
// The explicit float64 conversions here and in Norm are rounding
// barriers: the Go spec lets arm64, ppc64le and s390x fuse x*y+z into one
// instruction, which would make results depend on the architecture.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Bool returns true with probability p. Values of p outside [0, 1] clamp to
// always-false / always-true.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the polar (Marsaglia) method.
func (r *Rand) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		// sqrt(-2 ln s / s) via the stdlib-free approximations below
		// would be silly; math is stdlib. Use it.
		return mean + float64(stddev*u*polarScale(s))
	}
}

// Perm returns a pseudo-random permutation of [0, n) as a slice, using the
// Fisher–Yates shuffle.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, exactly like math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bit returns a single uniformly distributed bit as a byte (0 or 1).
func (r *Rand) Bit() byte {
	return byte(r.Uint64() >> 63)
}

// Bits returns n uniformly distributed bits, one per byte, each 0 or 1.
// It is used to produce the random message strings of Section V.
func (r *Rand) Bits(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = r.Bit()
	}
	return b
}
