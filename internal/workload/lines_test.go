package workload

import (
	"testing"
)

// linesMatchNext reads one stream of suite benchmark i through Lines in
// chunks of the given sizes and a second copy of it through Next, and
// fails on the first line number that differs. Afterwards both copies
// must be at the same point of the stream.
func linesMatchNext(t *testing.T, i int, seed uint64, sizes []int) {
	t.Helper()
	g, ref := SuiteBenchmark(i, seed), SuiteBenchmark(i, seed)
	var buf []uint64
	at := 0
	for _, n := range sizes {
		if cap(buf) < n {
			buf = make([]uint64, n)
		}
		dst := buf[:n]
		g.Lines(dst)
		for k, got := range dst {
			if want := ref.Next().Addr / 64; got != want {
				t.Fatalf("%s seed %#x: reference %d (chunk of %d) is line %#x through Lines, %#x through Next",
					g.Name(), seed, at+k, n, got, want)
			}
		}
		at += n
	}
	if got, want := g.Next(), ref.Next(); got != want {
		t.Fatalf("%s seed %#x: after %d references, Next is %#x on the Lines copy and %#x on the Next copy",
			g.Name(), seed, at, got.Addr, want.Addr)
	}
}

// Lines must produce exactly the line numbers of as many Next calls,
// for every suite benchmark at two seeds, with chunk sizes mixed within
// one stream so that every chunk starts where the last one left off.
func TestLinesMatchNext(t *testing.T) {
	sizes := []int{1, 3, 64, 1000, 4096, 0, 3, 4096, 1, 1000, 64}
	for _, seed := range []uint64{1, 0x5eed} {
		for i := 0; i < SuiteSize(); i++ {
			linesMatchNext(t, i, seed, sizes)
		}
	}
}

// FuzzLinesMatchNext draws the benchmark, the seed and the chunk sizes.
// A size byte b below 200 is a chunk of b references, and one of 200 or
// more a chunk of (b-199)*64, so that chunks reach several thousand.
func FuzzLinesMatchNext(f *testing.F) {
	f.Add(uint64(1), uint8(1), []byte{1, 3, 64, 255, 0})
	f.Add(uint64(0x5eed), uint8(11), []byte{199, 200, 7, 250})
	f.Fuzz(func(t *testing.T, seed uint64, bench uint8, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		sizes := make([]int, len(data))
		for k, b := range data {
			sizes[k] = int(b)
			if b >= 200 {
				sizes[k] = int(b-199) * 64
			}
		}
		linesMatchNext(t, int(bench)%SuiteSize(), seed, sizes)
	})
}
