package cache

// Batch execution: the per-access API costs a call, a config check and
// a counter lookup per reference; the figure and table drivers issue
// hundreds of millions of references whose requests are known up front.
// AccessBatch runs a pre-resolved request slice through one tight loop
// over the tag slab and the packed replacement state, bit-identical to
// the per-access path (the FuzzBatchEquivalence target pins this) and
// allocation-free once the per-requestor counter table covers the
// requestors in the batch.

// AccessBatch performs reqs in order, writing the i'th access's Result
// to out[i] (out must be at least as long as reqs, or nil to discard
// the results — the eviction-study loops only inspect state between
// batches). Results, Stats, replacement-state evolution and RNG draw
// order are bit-identical to calling Access once per request.
func (c *Cache) AccessBatch(reqs []Request, out []Result) {
	c.AccessBatchStats(reqs, out, &c.stats, &c.perReq)
}

// AccessBatchStats is AccessBatch with caller-owned counters: events
// are counted into st and perReq instead of the cache's own blocks, so
// a caller can measure one batch without disturbing or resetting the
// cache's Stats.
func (c *Cache) AccessBatchStats(reqs []Request, out []Result, st *Stats, perReq *[]Stats) {
	if out != nil && len(out) < len(reqs) {
		panic("cache: AccessBatch output slice shorter than request slice")
	}
	if c.cfg.TrackUtags || c.cfg.PartitionLocked || c.cfg.LockReplacementState {
		// Feature-carrying configs share the full per-access path.
		var res Result
		for i := range reqs {
			c.accessInto(reqs[i], st, perReq, &res)
			if out != nil {
				out[i] = res
			}
		}
		return
	}

	// Plain configs — every figure/table driver — take the specialized
	// loop: no lock or utag handling, install inlined, geometry hoisted,
	// the Tree-PLRU updates inlined (the family test is one predictable
	// branch), and counters accumulated in locals, flushed to st and rs
	// once per requestor run (every event counts into both blocks
	// identically on this path, and only the batch's final counter
	// values are observable, so the deferred flush is exact).
	ways := c.ways
	tags, meta := c.tags, c.meta
	repl := c.repl
	tree := repl.Tree()
	lastReq := -1
	var rs *Stats
	var nAcc, nHit, nMiss, nEv, nXev uint64
	for i := range reqs {
		req := &reqs[i]
		if req.Requestor != lastReq {
			if rs != nil {
				flushCounters(st, rs, &nAcc, &nHit, &nMiss, &nEv, &nXev)
			}
			// Growing the table may reallocate it, so the cached
			// pointer is refreshed on every requestor change.
			rs = reqStats(perReq, req.Requestor)
			lastReq = req.Requestor
		}
		if req.Op != OpLoad {
			// Lock ops still flip lock bits even outside the PL
			// configs; keep them on the shared path.
			var res Result
			c.accessInto(*req, st, perReq, &res)
			if out != nil {
				out[i] = res
			}
			continue
		}
		set, word := c.locate(req.PhysLine)
		base := set * ways
		row := tags[base : base+ways]
		nAcc++

		hit, way := lookup(row, word)
		if hit >= 0 {
			nHit++
			if tree != nil {
				tree.Touch(set, hit)
			} else {
				repl.Touch(set, hit)
			}
			if out != nil {
				out[i] = Result{Hit: true, Way: hit}
			}
			continue
		}

		nMiss++
		if way < 0 {
			if tree != nil {
				way = tree.Victim(set)
			} else {
				way = repl.Victim(set)
			}
			nEv++
			// Branch-free cross-eviction count: x is 0 exactly when
			// the victim's installer is this requestor.
			x := uint64(int64(meta[base+way].owner) ^ int64(req.Requestor))
			nXev += (x | -x) >> 63
			if out != nil {
				// Evicted must read the victim's tag before the install
				// overwrites it.
				out[i] = Result{Way: way, Evicted: c.lineNumber(set, row[way]), DidEvict: true}
			}
		} else if out != nil {
			out[i] = Result{Way: way}
		}
		// The install clears the lock bit; the utag is unused on this path.
		row[way] = word
		meta[base+way] = lineMeta{owner: int32(req.Requestor)}
		if tree != nil {
			tree.Touch(set, way)
		} else {
			repl.Fill(set, way)
		}
	}
	if rs != nil {
		flushCounters(st, rs, &nAcc, &nHit, &nMiss, &nEv, &nXev)
	}
}

// flushCounters adds the fast loop's local event counts to both the
// aggregate and the per-requestor block and zeroes them.
func flushCounters(st, rs *Stats, nAcc, nHit, nMiss, nEv, nXev *uint64) {
	st.Accesses += *nAcc
	rs.Accesses += *nAcc
	st.Hits += *nHit
	rs.Hits += *nHit
	st.Misses += *nMiss
	rs.Misses += *nMiss
	st.Evictions += *nEv
	rs.Evictions += *nEv
	st.CrossEvictions += *nXev
	rs.CrossEvictions += *nXev
	*nAcc, *nHit, *nMiss, *nEv, *nXev = 0, 0, 0, 0, 0
}

// lookup returns the way of row holding word, or -1, and the lowest
// invalid way, or -1, in one branch-free pass. It visits every way, since
// a line is in at most one way and a valid word is never 0, and runs from
// the last way down so that the lowest invalid way wins: the way the
// per-access path fills. The selects compile to conditional moves, so a
// lookup costs no mispredicted branch on where in the set the line sits.
// It is kept out of line: inlined into the batch loop, whose many live
// values leave it no registers, its state spills to the stack and the
// selects turn back into branches.
//
//go:noinline
func lookup(row []uint64, word uint64) (hit, free int) {
	hit, free = -1, -1
	for w := len(row) - 1; w >= 0; w-- {
		t := row[w]
		if t == word {
			hit = w
		}
		if t == 0 {
			free = w
		}
	}
	return hit, free
}
