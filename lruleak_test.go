package lruleak

import (
	"strings"
	"testing"
)

func TestEncodeDecodeString(t *testing.T) {
	in := "THE MAGIC WORDS ARE 42"
	enc := EncodeString(in)
	for i, v := range enc {
		if int(v) >= SpectreAlphabet {
			t.Fatalf("encoded byte %d = %d outside alphabet", i, v)
		}
	}
	if got := DecodeString(enc); got != in {
		t.Errorf("round trip = %q, want %q", got, in)
	}
	if got := DecodeString(EncodeString("lower case")); got != "LOWER CASE" {
		t.Errorf("lower-case fold = %q", got)
	}
	if DecodeString([]byte{61}) != "?" {
		t.Error("unknown value should decode to ?")
	}
}

func TestProfileAccessors(t *testing.T) {
	if len(Profiles()) != 3 {
		t.Fatal("profile count")
	}
	if SandyBridge().Arch != "Sandy Bridge" || Skylake().Arch != "Skylake" || Zen().Arch != "Zen" {
		t.Error("profile constructors broken")
	}
	if _, err := ProfileByName("zen"); err != nil {
		t.Error(err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	// The README quick-start must work as written.
	setup := NewChannel(ChannelConfig{
		Algorithm: Alg1SharedMemory,
		Mode:      SMT,
		Tr:        600, Ts: 6000,
		Seed: 99,
	})
	trace := setup.Run([]byte{0, 1}, true, 100, 1<<40)
	bits := trace.RawBits(setup.HitMeansOne())
	if len(bits) != 100 {
		t.Fatalf("got %d bits", len(bits))
	}
}

func TestTableIIRender(t *testing.T) {
	out := RenderTableII(TableII())
	for _, want := range []string{"Sandy Bridge", "Skylake", "Zen", "12", "17"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q:\n%s", want, out)
		}
	}
}

func TestTableIRenderAndShape(t *testing.T) {
	cells := TableI(300, 5, RunOptions{})
	out := RenderTableI(cells)
	if !strings.Contains(out, "Tree-PLRU") || !strings.Contains(out, "sequential") {
		t.Errorf("Table I render incomplete:\n%s", out[:200])
	}
}

func TestTableVValuesMatchPaperScale(t *testing.T) {
	rows := TableV(3, RunOptions{})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Paper: LRU 31-52 cycles, F+R(L1) 35-56, F+R(mem) 232-336.
		if r.LRU < 25 || r.LRU > 60 {
			t.Errorf("%s: LRU encode %d cycles", r.Profile.Name, r.LRU)
		}
		if r.FRMem < 150 || r.FRMem < r.FRL1 || r.FRL1 < r.LRU {
			t.Errorf("%s: ordering broken: mem=%d l1=%d lru=%d",
				r.Profile.Name, r.FRMem, r.FRL1, r.LRU)
		}
	}
	if RenderTableV(rows) == "" {
		t.Error("empty render")
	}
}

func TestFigure3SeparatesFigure13DoesNot(t *testing.T) {
	f3 := Figure3(SandyBridge(), 800, 7, RunOptions{})
	if !f3.Separable {
		t.Error("Figure 3: pointer chase should separate hit from miss")
	}
	f13 := Figure13(SandyBridge(), 800, 7, RunOptions{})
	if f13.Separable {
		t.Error("Figure 13: single access must NOT separate (Appendix A)")
	}
	if !strings.Contains(f3.Render(), "threshold") {
		t.Error("render incomplete")
	}
}

func TestFigure5TraceBimodal(t *testing.T) {
	f := Figure5(SandyBridge(), Alg1SharedMemory, 200, 11, RunOptions{})
	var lo, hi int
	for _, o := range f.Trace.Observations {
		if o.Latency > f.Trace.Threshold {
			hi++
		} else {
			lo++
		}
	}
	if lo < 40 || hi < 40 {
		t.Errorf("trace not bimodal: %d below / %d above threshold", lo, hi)
	}
	if f.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure7SmoothedWave(t *testing.T) {
	f := Figure7(Alg1SharedMemory, 400, 13, RunOptions{})
	if len(f.Smoothed) != len(f.Trace.Observations) {
		t.Fatal("smoothing length mismatch")
	}
	// The moving average must actually vary (a wave, not a flat line).
	min, max := f.Smoothed[0], f.Smoothed[0]
	for _, v := range f.Smoothed {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min < 1 {
		t.Errorf("smoothed trace flat: range %v", max-min)
	}
}

func TestFigure9RowsComplete(t *testing.T) {
	rows := Figure9(150_000, 3, RunOptions{})
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	out := RenderFigure9(rows)
	for _, want := range []string{"mcf", "gcc", "libquantum", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 9 output missing %q", want)
		}
	}
}

func TestFigure11LeakThenFixed(t *testing.T) {
	res := Figure11(200, 17, RunOptions{})
	if res.Original.Separation <= res.Fixed.Separation {
		t.Errorf("fix did not reduce leak: %v -> %v",
			res.Original.Separation, res.Fixed.Separation)
	}
	if !res.Fixed.AlwaysHit {
		t.Error("fixed PL cache should always hit")
	}
	if !strings.Contains(res.Render(), "PL cache") {
		t.Error("render incomplete")
	}
}

func TestSpectreEndToEnd(t *testing.T) {
	secret := EncodeString("SQUEAMISH")
	a := NewSpectre(SpectreConfig{Disclosure: Alg1SharedMemory, Seed: 19}, secret)
	got := a.RecoverSecret()
	if DecodeString(got) != "SQUEAMISH" {
		t.Errorf("recovered %q", DecodeString(got))
	}
}

func TestTableVIIAccuracies(t *testing.T) {
	rows := TableVII(EncodeString("AB"), 23, RunOptions{})
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Disclosure == Alg1SharedMemory && r.Accuracy < 0.9 {
			t.Errorf("%s LRU Alg.1 accuracy %v", r.Profile.Name, r.Accuracy)
		}
	}
	if RenderTableVII(rows) == "" {
		t.Error("empty render")
	}
}

func TestTableIVShape(t *testing.T) {
	cells := TableIV(24, 2, 29, RunOptions{})
	if len(cells) != 8 {
		t.Fatalf("%d cells", len(cells))
	}
	// SMT on Intel must be Kbps-scale; time-sliced bps-scale; Alg2
	// time-sliced unmeasurable.
	var intelSMT, intelTS, alg2TS float64
	for _, c := range cells {
		if c.Profile.Arch == "Sandy Bridge" {
			switch {
			case c.Mode == SMT && c.Algorithm == Alg1SharedMemory:
				intelSMT = c.RateBps
			case c.Mode == TimeSliced && c.Algorithm == Alg1SharedMemory:
				intelTS = c.RateBps
			case c.Mode == TimeSliced && c.Algorithm == Alg2NoSharedMemory:
				alg2TS = c.RateBps
			}
		}
	}
	if intelSMT < 100_000 {
		t.Errorf("Intel SMT rate %v bps, want 100s of Kbps", intelSMT)
	}
	if intelTS <= 0 || intelTS > 100 {
		t.Errorf("Intel time-sliced rate %v bps, want single-digit bps", intelTS)
	}
	if alg2TS != 0 {
		t.Errorf("Algorithm 2 time-sliced should be unmeasurable, got %v", alg2TS)
	}
	if !strings.Contains(RenderTableIV(cells), "Kbps") {
		t.Error("render missing rates")
	}
}

func TestRenderFigure4And6(t *testing.T) {
	pts := []Figure4Point{{Tr: 600, Ts: 6000, D: 8, RateKbps: 633, ErrorRate: 0.01}}
	if !strings.Contains(RenderFigure4(pts), "Tr=600") {
		t.Error("figure 4 render")
	}
	p6 := []Figure6Point{{Tr: 1000, D: 8, SendingBit: 1, FractionOnes: 0.3}}
	if !strings.Contains(RenderFigure6(p6), "Sending 1") {
		t.Error("figure 6 render")
	}
}
