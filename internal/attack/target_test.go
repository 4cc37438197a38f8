package attack

import (
	"fmt"
	"testing"

	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// targetOp is one step of a replayable target workload: a load of line
// by requestor.
type targetOp struct {
	line      uint64
	requestor int
}

// randomOps draws n loads over a pool of 3×ways lines spread across
// three sets, so every set sees evictions (and, under PL, bypasses of
// the warmed victim lines).
func randomOps(r *rng.Rand, prof uarch.Profile, n int) []targetOp {
	sets := uint64(prof.L1Sets)
	ops := make([]targetOp, n)
	for i := range ops {
		tag := uint64(1 + r.Intn(3*prof.L1Ways))
		ops[i] = targetOp{line: tag*sets + uint64(r.Intn(3)), requestor: r.Intn(2)}
	}
	return ops
}

// warmLines are the victim lines both replays warm first.
func warmLines(prof uarch.Profile) []uint64 {
	sets := uint64(prof.L1Sets)
	return []uint64{1 * sets, 2 * sets, 3*sets + 1}
}

// Target.Reset must leave the target indistinguishable from a fresh
// NewTarget with the same seed: after dirtying one target with a
// random workload and resetting it, a second workload replayed on it
// and on a freshly built target returns the same hit on every access
// and the same counters for both requestors. Zen covers the utag
// predictor; Random covers the reseeded generator. The grid is every
// defense × every kind ParseKind accepts, so it also pins that each
// pair builds, runs and resets without panicking — DAWG with Random
// included, whose partitions need a generator.
func TestTargetResetMatchesFresh(t *testing.T) {
	for _, prof := range []uarch.Profile{uarch.SandyBridge(), uarch.Zen()} {
		for _, d := range Defenses() {
			for _, pol := range replacement.Kinds() {
				t.Run(fmt.Sprintf("%s/%v/%v", prof.Name, d, pol), func(t *testing.T) {
					r := rng.New(uint64(d)<<8 | uint64(pol))
					const seed = 42
					cfg := TargetConfig{Defense: d, Profile: prof, Policy: pol, Seed: 7}
					reused := NewTarget(cfg)
					reused.WarmVictim(warmLines(prof))
					for _, op := range randomOps(r, prof, 500) {
						reused.Access(op.line, op.requestor)
					}
					reused.Reset(seed)
					cfg.Seed = seed
					fresh := NewTarget(cfg)

					reused.WarmVictim(warmLines(prof))
					fresh.WarmVictim(warmLines(prof))
					for i, op := range randomOps(r, prof, 2000) {
						got, want := reused.Access(op.line, op.requestor), fresh.Access(op.line, op.requestor)
						if got != want {
							t.Fatalf("access %d (line %d, requestor %d): reset target hit=%v, fresh hit=%v",
								i, op.line, op.requestor, got, want)
						}
					}
					for req := 0; req < 2; req++ {
						if got, want := reused.Report(req), fresh.Report(req); got != want {
							t.Errorf("requestor %d counters: reset %+v, fresh %+v", req, got, want)
						}
					}
				})
			}
		}
	}
}
