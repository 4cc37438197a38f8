package cache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/replacement"
	"repro/internal/rng"
)

// The batch path's contract is bit-identity: AccessBatch and
// AccessLines must be indistinguishable from per-access Access calls in
// every observable — results, aggregate and per-requestor Stats,
// line/replacement state, RNG evolution. The fuzzer drives both paths with the same request
// stream over every policy (and over the feature configs that take the
// generic loop) and compares everything.

// batchConfigs enumerates the config corners the fuzzer exercises for
// one policy: the plain fast-loop config, and the feature configs that
// route through the generic per-access loop.
func batchConfigs(pol replacement.Kind, ways int) []Config {
	base := Config{Name: "t", Sets: 4, Ways: ways, LineSize: 64, Policy: pol}
	cfgs := []Config{base}
	pl := base
	pl.PartitionLocked = true
	cfgs = append(cfgs, pl)
	ut := base
	ut.TrackUtags = true
	cfgs = append(cfgs, ut)
	lrs := base
	lrs.LockReplacementState = true
	lrs.PartitionLocked = true
	cfgs = append(cfgs, lrs)
	return cfgs
}

// decodeBatch turns fuzz bytes into a request stream: low bits pick the
// line (a few sets' worth plus tag aliases), bit 6 the requestor, and a
// sparse marker turns an access into a lock op (meaningful only under
// the PL configs, a plain load flag-flip otherwise).
func decodeBatch(data []byte) []Request {
	reqs := make([]Request, 0, len(data))
	for _, b := range data {
		req := Request{
			PhysLine:  uint64(b & 0x1f),
			Requestor: int(b>>5) & 1,
		}
		req.LinearLine = req.PhysLine
		if b >= 0xf8 {
			req.Op = OpLock
		}
		reqs = append(reqs, req)
	}
	return reqs
}

func snapshotState(c *Cache) string {
	var buf bytes.Buffer
	for set := 0; set < c.Sets(); set++ {
		fmt.Fprintf(&buf, "set %d: %s |", set, c.PolicyState(set))
		for w := 0; w < c.Ways(); w++ {
			i := set*c.Ways() + w
			fmt.Fprintf(&buf, " %#x/%+v", c.tags[i], c.meta[i])
		}
		buf.WriteByte('\n')
	}
	fmt.Fprintf(&buf, "stats %+v perReq %+v\n", c.stats, c.perReq)
	return buf.String()
}

func FuzzBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 40, 0xf9, 3})
	f.Add(uint64(7), []byte{0xff, 0xf0, 1, 1, 1, 64, 65, 66, 67})
	// Eight lines of set 0 from both requestors in turn, then five of
	// set 1 from each: evictions and cross-evictions at 4 ways.
	f.Add(uint64(3), []byte{0, 4, 8, 12, 0x30, 0x34, 0, 4, 0x38, 0x3c, 1, 5, 9, 13, 17, 0x21, 0x25, 0x29, 0x2d, 0x31})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		reqs := decodeBatch(data)
		for _, pol := range replacement.Kinds() {
			for _, ways := range []int{4, 8, 16} {
				for _, cfg := range batchConfigs(pol, ways) {
					cfg := cfg
					ref := cfg
					if pol == replacement.Random {
						cfg.RNG = rng.New(seed)
						ref.RNG = rng.New(seed)
					}
					cb := New(cfg)
					cs := New(ref)

					want := make([]Result, len(reqs))
					for i, req := range reqs {
						want[i] = cs.Access(req)
					}
					got := make([]Result, len(reqs))
					cb.AccessBatch(reqs, got)

					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v ways=%d cfg=%+v: result %d diverges: batch %+v, serial %+v",
								pol, ways, cfg, i, got[i], want[i])
						}
					}
					if gs, ws := snapshotState(cb), snapshotState(cs); gs != ws {
						t.Fatalf("%v ways=%d cfg=%+v: state diverges:\nbatch:\n%s\nserial:\n%s",
							pol, ways, cfg, gs, ws)
					}
					if pol == replacement.Random && cfg.RNG.Uint64() != ref.RNG.Uint64() {
						t.Fatalf("%v ways=%d: RNG draw order diverges", pol, ways)
					}

					linesEquivalence(t, cfg, seed, reqs)
				}
			}
		}
	})
}

// linesEquivalence runs the requests' line numbers through AccessLines,
// one call per run of one requestor, with out nil on every other run,
// and checks it against per-access Access of the same loads (linear
// line equal to the physical one), as FuzzBatchEquivalence checks
// AccessBatch.
func linesEquivalence(t *testing.T, cfg Config, seed uint64, reqs []Request) {
	t.Helper()
	ref := cfg
	if cfg.Policy == replacement.Random {
		cfg.RNG = rng.New(seed)
		ref.RNG = rng.New(seed)
	}
	cl, cs := New(cfg), New(ref)
	lines := make([]uint64, len(reqs))
	got := make([]Result, len(reqs))
	for start, run := 0, 0; start < len(reqs); run++ {
		req := reqs[start].Requestor
		end := start
		for end < len(reqs) && reqs[end].Requestor == req {
			lines[end] = reqs[end].PhysLine
			end++
		}
		var out []Result
		if run%2 == 1 {
			out = got[start:end]
		}
		cl.AccessLines(lines[start:end], req, out)
		for i := start; i < end; i++ {
			want := cs.Access(Request{PhysLine: lines[i], LinearLine: lines[i], Requestor: req})
			if out != nil && got[i] != want {
				t.Fatalf("%v ways=%d cfg=%+v: AccessLines result %d diverges: lines %+v, serial %+v",
					cfg.Policy, cfg.Ways, cfg, i, got[i], want)
			}
		}
		start = end
	}
	if gs, ws := snapshotState(cl), snapshotState(cs); gs != ws {
		t.Fatalf("%v ways=%d cfg=%+v: AccessLines state diverges:\nlines:\n%s\nserial:\n%s",
			cfg.Policy, cfg.Ways, cfg, gs, ws)
	}
	if cfg.Policy == replacement.Random && cfg.RNG.Uint64() != ref.RNG.Uint64() {
		t.Fatalf("%v ways=%d: AccessLines RNG draw order diverges", cfg.Policy, cfg.Ways)
	}
}

// TestAccessBatchNilOut pins the result-discarding mode: state and
// stats evolve exactly as with an output slice.
func TestAccessBatchNilOut(t *testing.T) {
	reqs := decodeBatch([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 64, 65, 3, 2, 1})
	a := New(Config{Name: "t", Sets: 4, Ways: 4, LineSize: 64, Policy: replacement.TreePLRU})
	b := New(Config{Name: "t", Sets: 4, Ways: 4, LineSize: 64, Policy: replacement.TreePLRU})
	a.AccessBatch(reqs, make([]Result, len(reqs)))
	b.AccessBatch(reqs, nil)
	if as, bs := snapshotState(a), snapshotState(b); as != bs {
		t.Fatalf("nil-out state diverges:\nwith out:\n%s\nnil out:\n%s", as, bs)
	}
}

// The batch loops must stay off the allocator once the per-requestor
// table covers the batch's requestors — they are the innermost loops of
// the batch drivers.
func TestAccessBatchZeroAllocs(t *testing.T) {
	reqs := decodeBatch([]byte{0, 1, 2, 3, 4, 5, 6, 7, 33, 40, 41, 42, 64, 65, 66, 67, 8, 9, 10, 11})
	out := make([]Result, len(reqs))
	for _, pol := range replacement.Kinds() {
		t.Run(pol.String(), func(t *testing.T) {
			c := New(allocConfig(pol))
			c.AccessBatch(reqs, out) // warm the requestor table
			if got := testing.AllocsPerRun(200, func() {
				c.AccessBatch(reqs, out)
			}); got != 0 {
				t.Errorf("AccessBatch allocates %.1f allocs/op, want 0", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				c.AccessBatch(reqs, nil)
			}); got != 0 {
				t.Errorf("AccessBatch(nil out) allocates %.1f allocs/op, want 0", got)
			}
			lines := make([]uint64, len(reqs))
			for i, req := range reqs {
				lines[i] = req.PhysLine
			}
			if got := testing.AllocsPerRun(200, func() {
				c.AccessLines(lines, 1, out)
			}); got != 0 {
				t.Errorf("AccessLines allocates %.1f allocs/op, want 0", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				c.AccessLines(lines, 0, nil)
			}); got != 0 {
				t.Errorf("AccessLines(nil out) allocates %.1f allocs/op, want 0", got)
			}
		})
	}
}
