package spectre

// This file implements the attacker's side: priming each cache set,
// triggering the transient leak, and reading the touched set back through
// the configured disclosure primitive. Appendix C's prefetcher defence is
// built in: every round visits the sets in a fresh random order and the
// per-set votes are averaged across rounds.

// fixedThreshold is the chase-latency split between "8th element hit L1"
// and anything slower.
func (a *Attack) fixedThreshold() float64 {
	prof := a.cfg.Profile
	base := float64(len(a.chaser.Elements())*prof.L1Latency + prof.MeasureOverhead)
	// The outer float64() stops a fused multiply-add (see rng.Float64).
	return base + float64(float64(prof.L1Latency+prof.L2Latency)/2)
}

// warmArray2 establishes the paper's precondition that the victim's probe
// lines are already cached (Table V note: "it is assumed that the victim
// line is already in cache before the attack").
func (a *Attack) warmArray2() {
	for v := 0; v < Alphabet; v++ {
		a.Hier.Load(a.array2Line[v], ReqVictim)
	}
}

// primeSet runs the receiver's initialization phase on set s.
func (a *Attack) primeSet(s int) {
	switch a.cfg.Disclosure {
	case LRUAlg1:
		// d=8: line 0 (the array2 line itself) plus 7 fillers.
		a.Hier.Load(a.array2Line[s], ReqAttacker)
		for i := 0; i < 7; i++ {
			a.Hier.Load(a.filler[s][i], ReqAttacker)
		}
	case LRUAlg2:
		for i := 0; i < a.cfg.D; i++ {
			a.Hier.Load(a.filler[s][i], ReqAttacker)
		}
	case FRMem:
		a.Hier.Flush(a.array2Line[s].PhysLine)
	case FRL1:
		// Evict the probe line from L1 with the 8 conflicting loads.
		for _, f := range a.filler[s] {
			a.Hier.Load(f, ReqAttacker)
		}
	}
}

// probeSet runs the decoding phase on set s and reports whether the victim
// touched it.
func (a *Attack) probeSet(s int) bool {
	th := a.fixedThreshold()
	switch a.cfg.Disclosure {
	case LRUAlg1:
		// Decode: line 8 (the 8th filler), then time line 0. A HIT
		// means the victim re-touched line 0 during speculation.
		a.Hier.Load(a.filler[s][7], ReqAttacker)
		m := a.chaser.Measure(a.array2Line[s])
		return m.Observed <= th
	case LRUAlg2:
		// Decode: the remaining own lines, then time line 0. A MISS
		// means the victim's access pushed it out.
		ways := a.cfg.Profile.L1Ways
		for i := a.cfg.D; i < ways; i++ {
			a.Hier.Load(a.filler[s][i], ReqAttacker)
		}
		m := a.chaser.Measure(a.filler[s][0])
		return m.Observed > th
	case FRMem, FRL1:
		// Reload: a fast (L1-hit) reload means the victim fetched or
		// touched the probe line.
		m := a.chaser.Measure(a.array2Line[s])
		return m.Observed <= th
	default:
		return false
	}
}

// RecoverByte leaks secret byte idx: Rounds rounds of prime → train+leak →
// probe, visiting sets in a fresh random order each round, then majority
// vote. It returns the winning value and its vote fraction.
func (a *Attack) RecoverByte(idx int) (byte, float64) {
	votes := make([]int, Alphabet)
	for round := 0; round < a.cfg.Rounds; round++ {
		// Train first: the training calls touch array2 architecturally
		// and must not land between priming and probing.
		a.Train()
		order := a.RNG.Perm(Alphabet)
		for _, s := range order {
			a.primeSet(s)
		}
		a.Leak(idx)
		// Re-establish the pointer-chase list in L1 before measuring:
		// prefetches triggered by the victim's loads can spill into
		// the reserved set (the paper's receiver likewise fetches its
		// 7 local elements before running measurements).
		a.chaser.WarmUp()
		for _, s := range order {
			if a.probeSet(s) {
				votes[s]++
			}
		}
	}
	best, bestVotes := 0, -1
	for s, v := range votes {
		if v > bestVotes {
			best, bestVotes = s, v
		}
	}
	return byte(best), float64(bestVotes) / float64(a.cfg.Rounds)
}

// RecoverByteWarm warms the victim's probe lines (the Table V
// precondition RecoverSecret establishes once for the whole string) and
// then leaks the single byte idx. It is the per-byte unit of work when
// recovery is fanned out over one Attack instance per byte.
func (a *Attack) RecoverByteWarm(idx int) (byte, float64) {
	a.warmArray2()
	return a.RecoverByte(idx)
}

// RecoverSecret leaks every byte of the planted secret.
func (a *Attack) RecoverSecret() []byte {
	a.warmArray2()
	out := make([]byte, len(a.secret))
	for i := range a.secret {
		out[i], _ = a.RecoverByte(i)
	}
	return out
}

// Accuracy runs a full recovery and returns the fraction of bytes
// recovered correctly.
func (a *Attack) Accuracy() float64 {
	got := a.RecoverSecret()
	if len(got) == 0 {
		return 0
	}
	ok := 0
	for i := range got {
		if got[i] == a.secret[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(got))
}

// MinimumWindow binary-searches the smallest speculation window (in cycles)
// at which the attack recovers at least minAccuracy of a test secret — the
// "smaller speculation window" comparison of Section VIII. The search
// range is [lo, hi] cycles.
func MinimumWindow(cfg Config, secret []byte, minAccuracy float64, lo, hi int) int {
	works := func(w int) bool {
		c := cfg
		c.Window = w
		return New(c, secret).Accuracy() >= minAccuracy
	}
	if !works(hi) {
		return -1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if works(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
