package hier

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/replacement"
)

// Batch execution over the hierarchy. LoadBatch replays an address
// program bit-identically to per-access Load calls: same results, same
// per-level Stats, same replacement-state and RNG evolution. Where the
// configuration allows it, it runs one level at a time: one L1
// AccessBatch over the chunk, one L2 AccessBatch over the L1 non-hits
// (gathered in record order), one LLC AccessBatch over the L2 misses,
// and only then the per-record Results. That is valid because the
// levels hold independent state and each sees its requests in the same
// order as under per-access execution, so only a shared Random
// generator (whose draws would interleave across levels differently) or
// a prefetcher (whose loads re-enter the L1 between records) forces
// strict per-access interleaving.

// BatchChunk bounds the scratch buffers of LoadBatch: requests are
// staged and executed in chunks of at most BatchChunk records, so
// arbitrarily long programs run allocation-free after the first call.
// Callers that generate references on the fly (the ROC sweep's benign
// co-runs, which feed cache.AccessBatch directly) stage them in
// buffers of this size.
const BatchChunk = 1024

// phaseSplitOK reports whether each level's pass may run ahead of the
// levels below it: no level draws victims from the shared generator,
// and no prefetcher injects loads between records.
func (h *Hierarchy) phaseSplitOK() bool {
	return h.cfg.L1Policy != replacement.Random &&
		h.cfg.L2Policy != replacement.Random &&
		h.cfg.Prefetcher == PrefetchNone
}

// batchScratch holds one chunk's requests (compacted in place as each
// level's hits drop out) and the per-level results.
type batchScratch struct {
	reqs       []cache.Request
	r1, r2, r3 []cache.Result
}

// scratch returns buffers for an n-record chunk, sized on first use to
// the largest chunk seen so far (short probe batches stay small).
func (h *Hierarchy) scratch(n int) *batchScratch {
	b := &h.batch
	if len(b.reqs) < n {
		b.reqs = make([]cache.Request, n)
		b.r1 = make([]cache.Result, n)
		b.r2 = make([]cache.Result, n)
		if h.llc != nil {
			b.r3 = make([]cache.Result, n)
		}
	}
	return b
}

// LoadBatch performs loads of addrs in order on behalf of requestor,
// writing the i'th load's Result to out[i] (out must be at least as
// long as addrs). It is bit-identical to calling Load per address.
func (h *Hierarchy) LoadBatch(addrs []mem.Addr, requestor int, out []Result) {
	if len(out) < len(addrs) {
		panic("hier: LoadBatch output slice shorter than address slice")
	}
	if !h.phaseSplitOK() {
		for i := range addrs {
			h.load(addrs[i], requestor, cache.OpLoad, true, &out[i])
		}
		return
	}
	for base := 0; base < len(addrs); base += BatchChunk {
		n := min(BatchChunk, len(addrs)-base)
		h.loadChunk(addrs[base:base+n], requestor, out[base:base+n])
	}
}

// loadChunk is one phase-split LoadBatch chunk (len(addrs) <=
// BatchChunk).
func (h *Hierarchy) loadChunk(addrs []mem.Addr, requestor int, out []Result) {
	n := len(addrs)
	b := h.scratch(n)
	reqs, r1 := b.reqs[:n], b.r1[:n]
	for i := range addrs {
		reqs[i] = cache.Request{PhysLine: addrs[i].PhysLine, LinearLine: addrs[i].VirtLine, Requestor: requestor}
	}
	h.l1.AccessBatch(reqs, r1)

	// L1 non-hits go to the L2 in record order. A utag miss is an L1
	// hit as far as the lower levels are concerned. Every request is
	// copied and only a non-hit advances m, so the compaction costs no
	// branch on the hit pattern.
	m := 0
	for i := range r1 {
		reqs[m] = reqs[i]
		if !r1[i].Hit {
			m++
		}
	}
	r2 := b.r2[:m]
	h.l2.AccessBatch(reqs[:m], r2)

	var r3 []cache.Result
	if h.llc != nil {
		k := 0
		for j := range r2 {
			reqs[k] = reqs[j]
			if !r2[j].Hit {
				k++
			}
		}
		r3 = b.r3[:k]
		h.llc.AccessBatch(reqs[:k], r3)
	}

	// Walk the records in order, consuming the L2 and LLC results as
	// the misses that produced them come up.
	j, k := 0, 0
	for i := range out {
		lvl := LevelL1
		if !r1[i].Hit {
			switch {
			case r2[j].Hit:
				lvl = LevelL2
			case h.llc == nil:
				lvl = LevelMem
			case r3[k].Hit:
				lvl, k = LevelLLC, k+1
			default:
				lvl, k = LevelMem, k+1
			}
			j++
		}
		out[i] = h.result(r1[i], lvl)
	}
}
