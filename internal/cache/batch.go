package cache

// Batch execution: the per-access API costs a call, a config check and
// a counter lookup per reference; the figure and table drivers issue
// hundreds of millions of references whose requests are known up front.
// AccessLines runs a slice of plain loads by one requestor, given as
// bare line numbers, through one tight loop over the tag slab and the
// packed replacement state. AccessBatch takes full Requests and hands
// each run of plain loads by one requestor to that same loop. Both are
// bit-identical to the per-access path (the FuzzBatchEquivalence target
// pins this) and allocation-free once the per-requestor counter table
// covers the requestors in the batch.

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
	// Each run of plain loads by one requestor goes to the line loop,
	// staged through a stack buffer of line numbers (a plain config
	// reads nothing else of a load's Request). Feature-carrying configs
	// take the full per-access path, and so do lock ops, which flip
	// lock bits even outside the PL configs.
	full := c.featured()
	var buf [256]uint64
	for i := 0; i < len(reqs); {
		if full || reqs[i].Op != OpLoad {
			var res Result
			c.accessInto(reqs[i], st, perReq, &res)
			if out != nil {
				out[i] = res
			}
			i++
			continue
		}
		req := reqs[i].Requestor
		n := 0
		for i+n < len(reqs) && n < len(buf) && reqs[i+n].Requestor == req && reqs[i+n].Op == OpLoad {
			buf[n] = reqs[i+n].PhysLine
			n++
		}
		var o []Result
		if out != nil {
			o = out[i : i+n]
		}
		c.accessLines(buf[:n], req, o, st, perReq)
		i += n
	}
}

// AccessLines performs plain loads of lines, in order, on behalf of
// requestor, writing the i'th load's Result to out[i] (out must be at
// least as long as lines, or nil to discard the results). Results,
// Stats, replacement-state evolution and RNG draw order are
// bit-identical to calling Access once per line with Request{PhysLine:
// l, LinearLine: l, Requestor: requestor} (the linear line matters only
// under TrackUtags). It is the batch form for a stream whose only
// content is its line numbers: one time slice of one process.
func (c *Cache) AccessLines(lines []uint64, requestor int, out []Result) {
	if out != nil && len(out) < len(lines) {
		panic("cache: AccessLines output slice shorter than line slice")
	}
	if c.featured() {
		var res Result
		for i, l := range lines {
			c.accessInto(Request{PhysLine: l, LinearLine: l, Requestor: requestor}, &c.stats, &c.perReq, &res)
			if out != nil {
				out[i] = res
			}
		}
		return
	}
	c.accessLines(lines, requestor, out, &c.stats, &c.perReq)
}

// featured reports whether the config carries a feature (utags, PL
// locks, the lock-state fix) that only the full per-access path models.
func (c *Cache) featured() bool {
	return c.cfg.TrackUtags || c.cfg.PartitionLocked || c.cfg.LockReplacementState
}

// accessLines is the one plain-load batch loop, for plain configs: no
// lock or utag handling, install inlined, geometry hoisted, the
// Tree-PLRU updates inlined (the family test is one predictable
// branch), and counters accumulated in locals and flushed to st and
// the requestor's block once at the end (every event counts into both
// blocks identically on this path, and only the final counter values
// are observable, so the deferred flush is exact). out is nil or as
// long as lines.
func (c *Cache) accessLines(lines []uint64, requestor int, out []Result, st *Stats, perReq *[]Stats) {
	if len(lines) == 0 {
		return // no access, so no counter table growth either
	}
	// Nothing in the loop grows the table, so rs stays valid.
	rs := reqStats(perReq, requestor)
	ways := c.ways
	tags, meta := c.tags, c.meta
	repl := c.repl
	tree := repl.Tree()
	owner := int32(requestor)
	self := int64(requestor)
	var nAcc, nHit, nMiss, nEv, nXev uint64
	for i, l := range lines {
		set, word := c.locate(l)
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
			x := uint64(int64(meta[base+way].owner) ^ self)
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
		meta[base+way] = lineMeta{owner: owner}
		if tree != nil {
			tree.Touch(set, way)
		} else {
			repl.Fill(set, way)
		}
	}
	rs.Accesses += nAcc
	st.Accesses += nAcc
	rs.Hits += nHit
	st.Hits += nHit
	rs.Misses += nMiss
	st.Misses += nMiss
	rs.Evictions += nEv
	st.Evictions += nEv
	rs.CrossEvictions += nXev
	st.CrossEvictions += nXev
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
