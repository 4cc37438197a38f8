package workload

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"
)

// streamHash is the FNV-64a hash of the first n addresses of g, each
// as 8 little-endian bytes.
func streamHash(g Generator, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], g.Next().Addr)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSuiteStreamsUnchanged pins the first 4096 references of every
// suite benchmark at two seeds. The hashes were recorded before the
// Zipf tables were shared and before the pointer chase was built in
// place, so they hold every generator to the streams the figures and
// goldens were produced with.
func TestSuiteStreamsUnchanged(t *testing.T) {
	want := map[uint64][]uint64{
		1: {
			0x9481cb2e2be02a56, 0x0c424ab17133b2a0, 0xeb0f5c5e60ba29f9, 0xd9e640bb2ab2fccb,
			0xdcb23f50d64f9cf4, 0x41729d1ce38de1e1, 0x37f17b44071a72c3, 0x300ead0e804824d5,
			0x5cf7a3bb4d7ecb20, 0xff2e6611ebc45235, 0x92e018944a3e5ddd, 0xac732def7b3ac812,
		},
		0x5eed: {
			0x26b47b38c591b035, 0x9b8af628ced910f8, 0xf1b9e34544cf04cc, 0x4d7f6a60edc7882f,
			0xb671d1e933c4cc90, 0xbbd08dfde1206226, 0x4cb30aa6bc1c5dc8, 0xebd84841551d2e95,
			0x4d0487e58193c412, 0x7918573fcb40d57d, 0x02745516b7dbddb5, 0xb4faee84db2b3dd8,
		},
	}
	for seed, hashes := range want {
		if len(hashes) != SuiteSize() {
			t.Fatalf("seed %#x: %d recorded hashes for a suite of %d", seed, len(hashes), SuiteSize())
		}
		for i, h := range hashes {
			g := SuiteBenchmark(i, seed)
			if got := streamHash(g, 4096); got != h {
				t.Errorf("%s at seed %#x: stream hash %#016x, recorded %#016x", g.Name(), seed, got, h)
			}
		}
	}
}

// Generators of one Zipf benchmark share its CDF and guide table. Two
// goroutines building and drawing from such generators at once must
// each see the stream a lone generator produces (run with -race to
// check that the sharing is read-only).
func TestSharedZipfTableConcurrentDraws(t *testing.T) {
	const n = 20_000
	seeds := []uint64{3, 4}
	want := make([]uint64, len(seeds))
	for k, seed := range seeds {
		want[k] = streamHash(SuiteBenchmark(0, seed), n)
	}
	gens := make([]Generator, len(seeds))
	var wg sync.WaitGroup
	for k, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[k] = SuiteBenchmark(0, seed)
			if got := streamHash(gens[k], n); got != want[k] {
				t.Errorf("seed %d: concurrent stream hash %#x, lone %#x", seed, got, want[k])
			}
		}()
	}
	wg.Wait()
	if gens[0].(*zipf).zipfTable != gens[1].(*zipf).zipfTable {
		t.Error("two perlbench generators hold different Zipf tables")
	}
}
