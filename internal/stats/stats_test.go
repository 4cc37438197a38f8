package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero value", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	// Sample standard deviation of this classic dataset is sqrt(32/7).
	if !almostEqual(s.Std, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Std = %v", s.Std)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 3 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 2 {
		t.Errorf("P50 = %v", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("P25 of {0,10} = %v, want 2.5", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	xs := []float64{1, 2, 3}
	got := MovingAverage(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("window 1 changed data: %v", got)
		}
	}
}

func TestMovingAverageSmoothsStep(t *testing.T) {
	xs := make([]float64, 40)
	for i := 20; i < 40; i++ {
		xs[i] = 10
	}
	sm := MovingAverage(xs, 9)
	if sm[0] != 0 || sm[39] != 10 {
		t.Errorf("edges wrong: %v ... %v", sm[0], sm[39])
	}
	// The midpoint of the step should be roughly halfway.
	if sm[20] <= 2 || sm[20] >= 8 {
		t.Errorf("midpoint %v not smoothed", sm[20])
	}
	// Monotone non-decreasing through the transition.
	for i := 15; i < 25; i++ {
		if sm[i+1] < sm[i]-1e-12 {
			t.Errorf("smoothed step not monotone at %d: %v -> %v", i, sm[i], sm[i+1])
		}
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 1)
	h.AddAll([]float64{-1, 0, 0.5, 9.99, 10, 11})
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under=%d Over=%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 {
		t.Errorf("bin 0 count = %d, want 2", h.Counts[0])
	}
	if h.Counts[9] != 1 {
		t.Errorf("bin 9 count = %d, want 1", h.Counts[9])
	}
	if h.Total != 6 {
		t.Errorf("Total = %d", h.Total)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for inverted bounds")
		}
	}()
	NewHistogram(5, 5, 1)
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 10, 1)
	h.AddAll([]float64{1.5, 1.2, 1.9, 7.5})
	if got := h.Mode(); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("Mode = %v, want 1.5", got)
	}
}

func TestHistogramRenderNonEmpty(t *testing.T) {
	h := NewHistogram(0, 4, 1)
	h.AddAll([]float64{0.5, 0.6, 2.5})
	out := h.Render(20)
	if out == "" {
		t.Fatal("Render returned empty string")
	}
}

func TestOtsuSeparatesBimodal(t *testing.T) {
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, 35+float64(i%3)) // "hit" cluster near 35-37
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, 50+float64(i%4)) // "miss" cluster near 50-53
	}
	th := OtsuThreshold(xs)
	if th <= 38 || th >= 50 {
		t.Errorf("threshold %v does not separate clusters (want in (38,50))", th)
	}
}

func TestOtsuDegenerate(t *testing.T) {
	if got := OtsuThreshold(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := OtsuThreshold([]float64{7, 7, 7}); got != 7 {
		t.Errorf("constant: %v", got)
	}
}

func TestClassify(t *testing.T) {
	bits := Classify([]float64{30, 50, 41, 39.9}, 40, 1, 0)
	want := []byte{1, 0, 0, 1}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("Classify = %v, want %v", bits, want)
		}
	}
}

func TestEditDistanceKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"1", "", 1},
		{"", "101", 3},
		{"1010", "1010", 0},
		{"1010", "1000", 1},
		{"1010", "0101", 2}, // shift by one: delete front, insert back
		{"10101010", "1010101", 1},
	}
	for _, c := range cases {
		if got := EditDistance([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	a, b := []byte("110100"), []byte("010011")
	if EditDistance(a, b) != EditDistance(b, a) {
		t.Error("edit distance not symmetric")
	}
}

func TestQuickEditDistanceProperties(t *testing.T) {
	// Identity, symmetry, and the length-difference lower bound.
	f := func(a, b []byte) bool {
		for i := range a {
			a[i] &= 1
		}
		for i := range b {
			b[i] &= 1
		}
		d := EditDistance(a, b)
		if d != EditDistance(b, a) {
			return false
		}
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		if d < diff {
			return false
		}
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		if d > max {
			return false
		}
		return EditDistance(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEditDistanceTriangle(t *testing.T) {
	f := func(a, b, c []byte) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		if len(c) > 30 {
			c = c[:30]
		}
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitErrorRateClamped(t *testing.T) {
	sent := []byte{1, 1}
	recv := []byte{0, 0, 1, 1, 0, 0}
	if r := BitErrorRate(sent, recv); r != 1 {
		t.Errorf("rate = %v, want clamped to 1", r)
	}
	if r := BitErrorRate(nil, recv); r != 0 {
		t.Errorf("empty sent rate = %v", r)
	}
}

func TestBestAlignmentFindsEmbeddedMessage(t *testing.T) {
	sent := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	received := append([]byte{0, 0, 0}, append(append([]byte{}, sent...), 1, 1)...)
	if r := BestAlignmentErrorRate(sent, received, 0); r != 0 {
		t.Errorf("embedded exact copy not found, rate = %v", r)
	}
}

func TestRunLengthDecode(t *testing.T) {
	// 3 samples per symbol, message 1,0,1 with one flipped sample.
	samples := []byte{1, 1, 0, 0, 0, 0, 1, 1, 1}
	got := RunLengthDecode(samples, 3)
	want := []byte{1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decoded %v, want %v", got, want)
		}
	}
}

func TestRunLengthDecodeDegenerate(t *testing.T) {
	if got := RunLengthDecode(nil, 3); got != nil {
		t.Errorf("nil samples: %v", got)
	}
	if got := RunLengthDecode([]byte{1}, 0); got != nil {
		t.Errorf("zero rate: %v", got)
	}
}
