// Package uarch holds the microarchitecture profiles of the three CPUs the
// paper evaluates (Table II and Table III): Intel Sandy Bridge (Xeon
// E5-2690), Intel Skylake (Xeon E3-1245 v5), and AMD Zen (EPYC 7571).
//
// A Profile captures everything the channel's behaviour depends on: cache
// geometry and latencies, clock frequency (which converts a fixed cycle
// budget Ts into a wall-clock transmission rate), time-stamp-counter
// readout granularity (fine on Intel, coarse on AMD — the cause of the
// order-of-magnitude rate gap of Section VI), the AMD linear-address utag
// way predictor, and DVFS frequency wobble.
package uarch

import (
	"fmt"
	"strings"
)

// Profile describes one microarchitecture.
type Profile struct {
	Name string  // marketing CPU model, e.g. "Intel Xeon E5-2690"
	Arch string  // microarchitecture family, e.g. "Sandy Bridge"
	Freq float64 // nominal core clock in GHz

	LineSize int

	// L1 data cache geometry and load-to-use latency (cycles).
	L1Sets, L1Ways, L1Latency int
	// L2 geometry and hit latency (cycles).
	L2Sets, L2Ways, L2Latency int
	// Memory access latency (cycles) for loads missing all caches.
	MemLatency int

	// TSCQuantum is the effective granularity, in core cycles, of one
	// observable increment of the time stamp counter readout. Intel
	// rdtscp resolves individual core cycles (quantum 1); on the AMD
	// EPYC 7571 the readout is far coarser (Section VI-A), which forces
	// the receiver into averaging and costs an order of magnitude of
	// bandwidth.
	TSCQuantum int

	// MeasureOverhead is the fixed serialization cost, in cycles, that a
	// rdtscp-bracketed measurement adds on top of the memory access
	// itself; MeasureJitter is the standard deviation of its noise.
	MeasureOverhead int
	MeasureJitter   float64

	// HasUtagPredictor enables the AMD L1 linear-address utag / way
	// predictor model (Section VI-B): hits reached through a different
	// linear address than the one that trained the utag observe L1-miss
	// latency.
	HasUtagPredictor bool

	// DVFSWobble is the relative amplitude of slow frequency drift due
	// to power management. The paper observes (Figure 7) that the AMD
	// part ran at visibly different effective frequencies between
	// captures; a nonzero wobble reproduces the shifting latency bands.
	DVFSWobble float64
}

// String returns the CPU model name.
func (p Profile) String() string { return p.Name }

// CyclesToSeconds converts core cycles to seconds at nominal frequency.
func (p Profile) CyclesToSeconds(cycles float64) float64 {
	return cycles / (p.Freq * 1e9)
}

// BitsPerSecond converts a per-bit cycle budget into a transmission rate.
func (p Profile) BitsPerSecond(cyclesPerBit float64) float64 {
	if cyclesPerBit <= 0 {
		return 0
	}
	return p.Freq * 1e9 / cyclesPerBit
}

// SandyBridge returns the Intel Xeon E5-2690 profile (Table III, column 1).
func SandyBridge() Profile {
	return Profile{
		Name: "Intel Xeon E5-2690", Arch: "Sandy Bridge", Freq: 3.8,
		LineSize: 64,
		L1Sets:   64, L1Ways: 8, L1Latency: 4,
		L2Sets: 512, L2Ways: 8, L2Latency: 12,
		MemLatency:      200,
		TSCQuantum:      1,
		MeasureOverhead: 3,
		MeasureJitter:   1.2,
	}
}

// Skylake returns the Intel Xeon E3-1245 v5 profile (Table III, column 2).
func Skylake() Profile {
	return Profile{
		Name: "Intel Xeon E3-1245 v5", Arch: "Skylake", Freq: 3.9,
		LineSize: 64,
		L1Sets:   64, L1Ways: 8, L1Latency: 4,
		L2Sets: 1024, L2Ways: 4, L2Latency: 12,
		MemLatency:      210,
		TSCQuantum:      1,
		MeasureOverhead: 8,
		MeasureJitter:   1.5,
	}
}

// Zen returns the AMD EPYC 7571 profile (Table III, column 3).
func Zen() Profile {
	return Profile{
		Name: "AMD EPYC 7571", Arch: "Zen", Freq: 2.5,
		LineSize: 64,
		L1Sets:   64, L1Ways: 8, L1Latency: 5,
		L2Sets: 1024, L2Ways: 8, L2Latency: 17,
		MemLatency:       220,
		TSCQuantum:       24,
		MeasureOverhead:  12,
		MeasureJitter:    5,
		HasUtagPredictor: true,
		DVFSWobble:       0.15,
	}
}

// Profiles returns every profile the paper evaluates, in Table III order.
func Profiles() []Profile { return []Profile{SandyBridge(), Skylake(), Zen()} }

// ByName finds a profile by CPU model or microarchitecture name
// (case-insensitive substring match), for command-line flags.
func ByName(name string) (Profile, error) {
	n := strings.ToLower(name)
	for _, p := range Profiles() {
		if strings.Contains(strings.ToLower(p.Name), n) ||
			strings.Contains(strings.ToLower(p.Arch), n) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("uarch: no profile matches %q", name)
}
