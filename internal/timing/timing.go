// Package timing models how the receiver observes latency: the rdtscp time
// stamp counter with per-microarchitecture granularity and serialization
// noise, the naive single-access measurement of Appendix A (which cannot
// tell an L1 hit from an L2 hit), and the pointer-chasing probe of Section
// IV-D (Figure 2) that can.
//
// The pointer-chase probe walks a linked list of 7 elements resident in the
// receiver's own memory plus the target address as the 8th element. Because
// each load's address depends on the previous load's data, the eight
// accesses serialize, so their latencies add: 7 L1 hits plus the target.
// The total is then long enough that the hit/miss difference survives the
// measurement noise that swamps a single access.
package timing

import (
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// TSC converts true latencies (in core cycles) into observed rdtscp
// measurements, applying serialization overhead, jitter, DVFS drift, and
// readout quantization.
type TSC struct {
	prof uarch.Profile
	r    *rng.Rand

	// scale is the current ratio of TSC cycles to core cycles. The TSC
	// runs at constant (nominal) frequency while DVFS moves the core
	// clock, so measured latency drifts with power management — visible
	// as the shifting latency bands of Figure 7.
	scale float64
}

// NewTSC builds a TSC model for the profile, drawing noise from r.
func NewTSC(prof uarch.Profile, r *rng.Rand) *TSC {
	return &TSC{prof: prof, r: r, scale: 1}
}

// step advances the DVFS drift: a bounded random walk of the core/TSC
// frequency ratio with steps three orders of magnitude smaller than the
// wobble amplitude, so consecutive measurements shift slowly.
func (t *TSC) step() {
	w := t.prof.DVFSWobble
	if w == 0 {
		return
	}
	t.scale += t.r.Norm(0, w/500)
	if t.scale < 1-w {
		t.scale = 1 - w
	}
	if t.scale > 1+w {
		t.scale = 1 + w
	}
}

// Observe returns the rdtscp-measured value for an operation that truly
// took trueCycles core cycles, assuming the operation fully serializes with
// the surrounding rdtscp pair (the pointer-chase case).
func (t *TSC) Observe(trueCycles float64) float64 {
	t.step()
	// float64() stops a fused multiply-add (see rng.Float64).
	lat := float64(trueCycles*t.scale) + float64(t.prof.MeasureOverhead) + t.r.Norm(0, t.prof.MeasureJitter)
	return t.quantize(lat)
}

// ObserveSingle returns the rdtscp-measured value for a single memory
// access (Appendix A, Figure 12). Out-of-order execution overlaps a short
// load with the serializing instruction sequence itself, hiding the first
// execShadow cycles of the load; only the remainder is visible. L1 (≈4
// cycles) and L2 (≈12–17 cycles) latencies both vanish inside the shadow,
// which is why Figure 13's hit and miss histograms coincide.
func (t *TSC) ObserveSingle(trueCycles float64) float64 {
	t.step()
	const execShadow = 18
	visible := trueCycles - execShadow
	if visible < 0 {
		visible = 0
	}
	base := float64(t.prof.MeasureOverhead) + singleAccessFloor
	// float64() stops a fused multiply-add (see rng.Float64).
	lat := float64(visible*t.scale) + base + t.r.Norm(0, singleAccessJitter*t.prof.MeasureJitter)
	return t.quantize(lat)
}

// singleAccessFloor and singleAccessJitter shape the Appendix A
// measurement: the rdtscp/rdtscp pair alone costs ~20 cycles and is much
// noisier than the difference between an L1 and an L2 hit.
const (
	singleAccessFloor  = 20
	singleAccessJitter = 3.5
)

func (t *TSC) quantize(lat float64) float64 {
	q := float64(t.prof.TSCQuantum)
	if q <= 1 {
		if lat < 0 {
			return 0
		}
		return float64(int64(lat + 0.5))
	}
	n := int64(lat/q + 0.5)
	if n < 0 {
		n = 0
	}
	return float64(n) * q
}

// Measurement is one observed probe.
type Measurement struct {
	Observed float64    // what rdtscp reported, in TSC cycles
	Level    hier.Level // where the target was truly served from
	L1Hit    bool       // true tag hit in L1 at full speed (no utag penalty)
}

// Chaser is the receiver's pointer-chasing measurement apparatus: seven
// linked-list elements in the receiver's own address space, all placed in
// one reserved cache set so that probing never pollutes the target set's
// LRU state (the "further optimization" at the end of Section IV-D).
type Chaser struct {
	h     *hier.Hierarchy
	tsc   *TSC
	elems []mem.Addr
	req   int
}

// DefaultChainLength is the paper's linked-list length (7 local elements;
// the 8th access is the target).
const DefaultChainLength = 7

// NewChaser allocates chainLen list elements in as, all mapping to
// reservedSet, measuring on behalf of requestor req. chainLen <= 0 uses
// DefaultChainLength.
func NewChaser(h *hier.Hierarchy, as *mem.AddressSpace, reservedSet, chainLen, req int, tsc *TSC) *Chaser {
	if chainLen <= 0 {
		chainLen = DefaultChainLength
	}
	prof := h.Profile()
	vaddrs := as.LinesForSet(prof.L1Sets, reservedSet, chainLen)
	elems := make([]mem.Addr, chainLen)
	for i, v := range vaddrs {
		elems[i] = as.Resolve(v)
	}
	return &Chaser{h: h, tsc: tsc, elems: elems, req: req}
}

// Elements returns the resolved list elements (for tests).
func (c *Chaser) Elements() []mem.Addr { return c.elems }

// WarmUp fetches every list element into L1 so the first seven accesses of
// each measurement hit.
func (c *Chaser) WarmUp() {
	for _, e := range c.elems {
		c.h.Load(e, c.req)
	}
}

// Measure walks the list and then the target, returning the observed total
// latency of the serialized chain. The target load participates fully in
// the cache hierarchy (it can evict, fill, and trigger prefetches), exactly
// like the real receiver's decode access.
func (c *Chaser) Measure(target mem.Addr) Measurement {
	var total float64
	for _, e := range c.elems {
		total += float64(c.h.Load(e, c.req).Latency)
	}
	res := c.h.Load(target, c.req)
	total += float64(res.Latency)
	return Measurement{
		Observed: c.tsc.Observe(total),
		Level:    res.Level,
		L1Hit:    res.L1Hit && !res.UtagMiss,
	}
}

// MeasureSingle measures the target with the naive Appendix A
// single-access rdtscp bracket instead of the chase.
func (c *Chaser) MeasureSingle(target mem.Addr) Measurement {
	res := c.h.Load(target, c.req)
	return Measurement{
		Observed: c.tsc.ObserveSingle(float64(res.Latency)),
		Level:    res.Level,
		L1Hit:    res.L1Hit && !res.UtagMiss,
	}
}

// ChaseCost returns the true (unobserved) cycle cost of one full probe when
// every access hits L1: the floor of the receiver's per-measurement budget.
func (c *Chaser) ChaseCost() int {
	return (len(c.elems) + 1) * c.h.Profile().L1Latency
}
