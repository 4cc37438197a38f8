package uarch

import (
	"math"
	"testing"
)

func TestProfilesMatchTableIII(t *testing.T) {
	sb := SandyBridge()
	if sb.L1Sets != 64 || sb.L1Ways != 8 || sb.LineSize != 64 {
		t.Errorf("Sandy Bridge L1 geometry = %d sets x %d ways", sb.L1Sets, sb.L1Ways)
	}
	if sb.Freq != 3.8 {
		t.Errorf("Sandy Bridge frequency = %v", sb.Freq)
	}
	sk := Skylake()
	if sk.Freq != 3.9 || sk.L1Ways != 8 {
		t.Errorf("Skylake profile wrong: %+v", sk)
	}
	zen := Zen()
	if zen.Freq != 2.5 || !zen.HasUtagPredictor {
		t.Errorf("Zen profile wrong: %+v", zen)
	}
	// 32 KiB L1D on all three parts.
	for _, p := range Profiles() {
		if got := p.L1Sets * p.L1Ways * p.LineSize; got != 32*1024 {
			t.Errorf("%s: L1D size = %d bytes, want 32 KiB", p.Name, got)
		}
	}
}

func TestLatenciesMatchTableII(t *testing.T) {
	// Table II: L1D 4-5 cycles everywhere; L2 12 on Intel, 17 on AMD.
	for _, p := range []Profile{SandyBridge(), Skylake()} {
		if p.L1Latency < 4 || p.L1Latency > 5 || p.L2Latency != 12 {
			t.Errorf("%s latencies L1=%d L2=%d", p.Name, p.L1Latency, p.L2Latency)
		}
	}
	z := Zen()
	if z.L1Latency < 4 || z.L1Latency > 5 || z.L2Latency != 17 {
		t.Errorf("Zen latencies L1=%d L2=%d", z.L1Latency, z.L2Latency)
	}
}

// A single L1-hit/L1-miss latency difference exceeds one TSC readout
// quantum on Intel, so one measurement decodes; on AMD it does not, so
// the receiver must average.
func TestIntelFineAMDCoarseTSC(t *testing.T) {
	distinguishable := func(p Profile) bool { return p.L2Latency-p.L1Latency >= p.TSCQuantum }
	if !distinguishable(SandyBridge()) {
		t.Error("Sandy Bridge should distinguish L1 hit from miss in one shot")
	}
	if !distinguishable(Skylake()) {
		t.Error("Skylake should distinguish L1 hit from miss in one shot")
	}
	if distinguishable(Zen()) {
		t.Error("Zen should NOT distinguish a single L1 hit from miss (coarse TSC)")
	}
}

func TestCyclesToSeconds(t *testing.T) {
	p := SandyBridge()
	got := p.CyclesToSeconds(3.8e9)
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("3.8e9 cycles at 3.8GHz = %v s, want 1", got)
	}
}

func TestBitsPerSecond(t *testing.T) {
	p := SandyBridge()
	// Ts = 6000 cycles/bit at 3.8 GHz -> ~633 Kbps upper bound; the paper
	// reports 480 Kbps effective for this setting, so the bound must be
	// in the hundreds of Kbps.
	bps := p.BitsPerSecond(6000)
	if bps < 400e3 || bps > 700e3 {
		t.Errorf("rate at Ts=6000 = %v bps", bps)
	}
	if p.BitsPerSecond(0) != 0 {
		t.Error("zero cycle budget should yield 0 rate")
	}
}

func TestByName(t *testing.T) {
	for _, q := range []string{"E5-2690", "sandy", "skylake", "EPYC", "zen"} {
		if _, err := ByName(q); err != nil {
			t.Errorf("ByName(%q) failed: %v", q, err)
		}
	}
	if _, err := ByName("pentium"); err == nil {
		t.Error("ByName accepted unknown CPU")
	}
}

func TestProfilesOrder(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("got %d profiles", len(ps))
	}
	if ps[0].Arch != "Sandy Bridge" || ps[1].Arch != "Skylake" || ps[2].Arch != "Zen" {
		t.Errorf("profile order: %v %v %v", ps[0].Arch, ps[1].Arch, ps[2].Arch)
	}
}
