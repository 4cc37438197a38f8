// Package spectre reproduces Section VIII: transient-execution attacks that
// use the LRU channel as the disclosure primitive instead of Flush+Reload.
//
// The model follows the Spectre variant 1 sample code: a victim function
//
//	if x < array1_size {            // trainable bounds check
//	    y = array2[array1[x] * 64]  // one access; its L1 SET encodes the value
//	}
//
// runs in the attacker's address space. The attacker trains the branch
// predictor with in-bounds calls, then supplies an out-of-bounds x that
// makes array1[x] alias a secret byte. During the transient window the
// victim's access touches one of the encoding L1 sets (one set is reserved
// for the attacker's pointer-chase list, one for the victim's own data; the
// paper uses 63 encoding sets, we use 62 — see Alphabet), and the attacker
// reads the touched set back through the LRU channel — Algorithm 1 (it
// shares array2) or Algorithm 2.
//
// Speculation-window model: transient loads execute serially (the array2
// index depends on the array1 load) and a load leaves a microarchitectural
// trace only if it completes within Window cycles. This directly expresses
// the paper's claim that the LRU channel needs a much smaller window: its
// encoding access is an L1 HIT (~4 cycles), while Flush+Reload's encoding
// requires a miss (~200 cycles) because the probe line was flushed first.
//
// Secrets are byte strings over a 6-bit alphabet (values 0..62), matching
// the channel's per-invocation capacity of one-of-63 sets.
package spectre

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/uarch"
)

// Alphabet is the number of distinguishable secret values: one per usable
// L1 set. The paper uses 63 of the 64 sets, reserving one for the
// pointer-chase list; we reserve a second set for the victim's own data
// (array1, the secret bytes, and the training target), because any line the
// victim touches architecturally would otherwise be a deterministic false
// positive in its alias set. The paper's PoC has the same constraint
// implicitly (its victim variables alias *some* set).
const Alphabet = 62

// Requestor ids.
const (
	ReqVictim   = 0
	ReqAttacker = 1
)

// Config parameterizes an attack.
type Config struct {
	Profile uarch.Profile
	// Disclosure is the covert channel that exfiltrates the transient
	// access (Table VII columns). Under core.Alg1SharedMemory the
	// attacker's "line 0" of each set is the array2 line itself; under
	// core.Alg2NoSharedMemory it observes only through its own lines;
	// the Flush+Reload channels flush or evict the array2 line and
	// reload it.
	Disclosure core.Algorithm
	// Window is the speculation window in cycles (default
	// DefaultWindow).
	Window int
	// Rounds is the number of randomized-order measurement rounds
	// averaged per byte (Appendix C's prefetcher-noise defence;
	// default 8).
	Rounds int
	// Training is the number of in-bounds calls before each transient
	// call (default 6).
	Training int
	// Prefetcher optionally enables the hardware prefetcher, the noise
	// source Appendix C is about.
	Prefetcher hier.PrefetcherKind
	// D is the Algorithm 2 split parameter (default 1, the odd value the
	// Tree-PLRU parity study favours).
	D int
	// InvisiSpec enables the Section IX-B mitigation from Yan et al.:
	// speculative loads leave NO microarchitectural trace (no fill, no
	// replacement-state update) until the access becomes non-speculative
	// — which for a bounds-check-bypass gadget is never. With it on,
	// every disclosure primitive goes blind.
	InvisiSpec bool
	Seed       uint64
}

// DefaultWindow is the speculation window, in cycles, of a Config that
// leaves Window at zero. Two L2 hits back to back (the secret byte and
// the probe line, both typically displaced from L1 by the attacker's
// priming) must fit: the smallest window any LRU disclosure needs,
// still an order of magnitude below a memory access.
const DefaultWindow = 30

func (c Config) withDefaults() Config {
	if c.Profile.Name == "" {
		c.Profile = uarch.SandyBridge()
	}
	if c.Disclosure == 0 {
		c.Disclosure = core.Alg1SharedMemory
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.Training == 0 {
		c.Training = 6
	}
	if c.Training < 0 {
		c.Training = 0 // explicit "no training" for ablation
	}
	if c.D == 0 {
		c.D = 1
	}
	if c.Seed == 0 {
		c.Seed = 0xa77ac4
	}
	return c
}

// predictor is a 2-bit saturating counter branch predictor for the bounds
// check.
type predictor struct{ counter int }

func (p *predictor) taken() bool { return p.counter >= 2 }

func (p *predictor) update(taken bool) {
	if taken {
		if p.counter < 3 {
			p.counter++
		}
	} else if p.counter > 0 {
		p.counter--
	}
}

// Attack is an instantiated Spectre v1 attack.
type Attack struct {
	cfg  Config
	Hier *hier.Hierarchy
	TSC  *timing.TSC
	RNG  *rng.Rand
	Sys  *mem.System

	as *mem.AddressSpace // the shared process address space

	array1Size int
	array1     mem.Addr   // base of the in-bounds array
	benign     mem.Addr   // the array2 entry touched by training calls
	secret     []byte     // victim memory contents beyond array1
	secretAddr []mem.Addr // address of each secret byte's cache line

	// array2Line[v] is the probe line whose set encodes value v.
	array2Line [Alphabet]mem.Addr
	// filler[s] are the attacker's private lines in set s (lines 1..N
	// for Algorithm 1, lines 0..N-1 for Algorithm 2).
	filler [Alphabet][]mem.Addr

	chaser *timing.Chaser
	pred   predictor
}

// New builds the attack with the given secret (every byte must be in
// [0, Alphabet)).
func New(cfg Config, secret []byte) *Attack {
	cfg = cfg.withDefaults()
	for i, b := range secret {
		if int(b) >= Alphabet {
			panic(fmt.Sprintf("spectre: secret byte %d = %d outside the %d-value alphabet", i, b, Alphabet))
		}
	}
	r := rng.New(cfg.Seed)
	a := &Attack{cfg: cfg, RNG: r, secret: append([]byte(nil), secret...)}
	a.Hier = hier.New(hier.Config{
		Profile:  cfg.Profile,
		L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU,
		RNG:        r.Split(),
		Prefetcher: cfg.Prefetcher,
		WithLLC:    true,
	})
	a.TSC = timing.NewTSC(cfg.Profile, r.Split())
	a.Sys = mem.NewSystem(cfg.Profile.LineSize)
	a.as = a.Sys.NewAddressSpace()

	prof := cfg.Profile
	reserved := prof.L1Sets - 1  // pointer-chase list
	victimSet := prof.L1Sets - 2 // victim-owned data

	// array1, the secret bytes and the benign training target all live
	// in the victim's reserved set; each secret byte gets its own line
	// so the transient array1[x] load's latency is realistic.
	a.array1Size = 16
	a.array1 = a.as.Resolve(a.as.LinesForSet(prof.L1Sets, victimSet, 1)[0])
	a.benign = a.as.Resolve(a.as.LinesForSet(prof.L1Sets, victimSet, 1)[0])
	a.secretAddr = make([]mem.Addr, len(secret))
	for i := range secret {
		a.secretAddr[i] = a.as.Resolve(a.as.LinesForSet(prof.L1Sets, victimSet, 1)[0])
	}

	// array2: one line per alphabet value, line v mapping to set v.
	for v := 0; v < Alphabet; v++ {
		a.array2Line[v] = a.as.Resolve(a.as.LinesForSet(prof.L1Sets, v, 1)[0])
	}
	// Attacker filler lines per set: N lines (enough for either
	// algorithm's receiver working set).
	for s := 0; s < Alphabet; s++ {
		vs := a.as.LinesForSet(prof.L1Sets, s, prof.L1Ways)
		a.filler[s] = make([]mem.Addr, len(vs))
		for i, v := range vs {
			a.filler[s][i] = a.as.Resolve(v)
		}
	}
	a.chaser = timing.NewChaser(a.Hier, a.as, reserved, 0, ReqAttacker, a.TSC)
	a.chaser.WarmUp()
	return a
}

// Secret exposes the planted secret (for verifying recovery in tests).
func (a *Attack) Secret() []byte { return a.secret }

// CallVictim models one invocation of the victim gadget. In-bounds calls
// execute architecturally and train the predictor; out-of-bounds calls
// execute transiently when the predictor says "taken", performing loads
// whose microarchitectural effects land only within the speculation window.
func (a *Attack) CallVictim(x int) {
	inBounds := x < a.array1Size
	predictedTaken := a.pred.taken()
	a.pred.update(inBounds)

	if inBounds {
		// Architectural execution: load array1[x], then the benign
		// array2 entry the in-bounds values point at. The benign line
		// lives in the victim's reserved set so that training cannot
		// pollute any of the 62 encoding sets.
		a.Hier.Load(a.array1, ReqVictim)
		a.Hier.Load(a.benign, ReqVictim)
		return
	}
	if !predictedTaken {
		return // branch resolved immediately; no transient execution
	}
	if a.cfg.InvisiSpec {
		// The speculative loads execute into invisible buffers and are
		// squashed with the mispredicted branch; no cache or LRU state
		// changes, so there is nothing for any receiver to observe.
		return
	}
	// Transient execution within the speculation window. The two loads
	// are data-dependent and serialize; a load leaves its
	// microarchitectural trace (fill and LRU update) only if it
	// completes before the window closes. This is the model expressing
	// the paper's Section VIII claim: the LRU channel's encoding access
	// is an L1 hit (~4 cycles) and fits a tiny window, while a
	// Flush+Reload-primed probe line must come from memory (~200
	// cycles) and needs a far larger one.
	idx := x - a.array1Size // which secret byte the OOB read hits
	if idx < 0 || idx >= len(a.secret) {
		return
	}
	// The window checks peek, so a squashed load leaves no trace.
	lat := a.Hier.Peek(a.secretAddr[idx].PhysLine).Latency
	if lat > a.cfg.Window {
		return // the secret-byte load itself did not complete in time
	}
	a.Hier.Load(a.secretAddr[idx], ReqVictim)
	v := int(a.secret[idx])
	if lat+a.Hier.Peek(a.array2Line[v].PhysLine).Latency > a.cfg.Window {
		return // the dependent access was squashed before completing
	}
	a.Hier.Load(a.array2Line[v], ReqVictim)
}

// Train performs the in-bounds calls that bias the bounds-check predictor
// toward "taken". It also models the victim's normal operation touching its
// own secret data (a victim that never reads its secret has nothing to
// leak): the secret lines end up warm in the cache hierarchy, exactly the
// Table V precondition that the encoding access is a hit.
func (a *Attack) Train() {
	for i := 0; i < a.cfg.Training; i++ {
		a.CallVictim(i % a.array1Size)
	}
	for _, sa := range a.secretAddr {
		a.Hier.Load(sa, ReqVictim)
	}
}

// Leak performs one transient call leaking secret byte idx. The predictor
// must have been trained first.
func (a *Attack) Leak(idx int) {
	a.CallVictim(a.array1Size + idx)
}
