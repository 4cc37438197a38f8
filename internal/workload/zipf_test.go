package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// searchRank is the binary search of the CDF that the guide table
// replaced, kept as the oracle: the first rank whose CDF value is >= u,
// or the last rank if none is.
func searchRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// suiteZipfs returns every Zipf table the Figure 9 suite builds, the
// hot regions of the mixed profiles included.
func suiteZipfs() []*zipf {
	var zs []*zipf
	for _, b := range suite {
		switch g := b.build().(type) {
		case *zipf:
			zs = append(zs, g)
		case *mixed:
			zs = append(zs, g.hot)
		}
	}
	return zs
}

// The guide-table draw must return the oracle's rank for every u: at
// zero, at, just below and just above each CDF value, at every guide
// boundary k/G, and for random draws.
func TestZipfGuideMatchesSearch(t *testing.T) {
	zs := suiteZipfs()
	if len(zs) != 6 {
		t.Fatalf("found %d suite Zipf tables, want 6", len(zs))
	}
	r := rng.New(11)
	for _, z := range zs {
		if g := int(z.g); g < z.lines || g/2 >= z.lines || g&(g-1) != 0 {
			t.Fatalf("lines=%d: guide size %d is not the smallest power of two >= lines", z.lines, g)
		}
		us := []float64{0}
		for _, c := range z.cdf {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
		}
		for k := range z.guide {
			us = append(us, float64(k)/z.g)
		}
		for i := 0; i < 100_000; i++ {
			us = append(us, r.Float64())
		}
		for _, u := range us {
			if got, want := z.rank(u), searchRank(z.cdf, u); got != want {
				t.Fatalf("lines=%d skew=%v u=%v: guide rank %d, search rank %d", z.lines, z.skew, u, got, want)
			}
		}
	}
}
