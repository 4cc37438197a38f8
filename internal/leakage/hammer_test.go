package leakage

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/replacement"
	"repro/internal/uarch"
)

// referenceTrial is the trial as first written: a target freshly built
// from cfg (whose Profile and Ways must be set) with the trial seed, and
// the full KickerRepeats hammer on every kicker. It is the oracle that
// prober.trial — one reused target, hammer cut at the kicker's second
// hit — must match observation for observation.
func (p *prober) referenceTrial(cfg Config, seed uint64, secret int) uint64 {
	prof := cfg.Profile
	prof.L1Ways = cfg.Ways
	tg := attack.NewTarget(attack.TargetConfig{
		Defense: cfg.Defense, Profile: prof, Policy: cfg.Policy,
		FillWindow: cfg.FillWindow, Seed: seed,
	})
	st := p.st

	tg.WarmVictim(p.vlines)
	for _, ln := range p.alines {
		for try := 0; try < p.primeCap; try++ {
			if tg.Access(ln, attack.ReqAttacker) {
				break
			}
		}
	}
	for _, ln := range p.vlines {
		tg.Access(ln, attack.ReqVictim)
	}
	for _, ln := range p.alines {
		tg.Access(ln, attack.ReqAttacker)
	}
	if secret < len(p.vlines) {
		tg.Access(p.vlines[secret], attack.ReqVictim)
	}

	var obs uint64
	bit := 0
	for round := 0; round < st.Rounds; round++ {
		for k := 0; k < st.KickersPerRound; k++ {
			kicker := uint64(kickerTagBase+round*st.KickersPerRound+k) * p.sets
			misses := 0
			for m := 0; m < st.KickerRepeats; m++ {
				if !tg.Access(kicker, attack.ReqAttacker) {
					misses++
				}
			}
			if misses > 1<<missCountBits-1 {
				misses = 1<<missCountBits - 1
			}
			obs |= uint64(misses) << uint(bit)
			bit += missCountBits
		}
		for _, ln := range p.vlines {
			if tg.Access(ln, attack.ReqAttacker) {
				obs |= 1 << uint(bit)
			}
			bit++
		}
		for _, ln := range p.alines {
			tg.Access(ln, attack.ReqAttacker)
		}
	}
	return obs
}

// checkEarlyExit runs every secret of cfg under each seed through both
// trial forms and fails on the first differing observation.
func checkEarlyExit(t *testing.T, cfg Config, seeds []uint64) {
	t.Helper()
	p := newProber(cfg)
	for secret := 0; secret <= len(p.vlines); secret++ {
		for _, seed := range seeds {
			got, want := p.trial(seed, secret), p.referenceTrial(cfg, seed, secret)
			if got != want {
				t.Fatalf("%s/%v/%d/%v window=%d strategy=%+v secret=%d seed=%d: observation %#x, full hammer %#x",
					cfg.Profile.Name, cfg.Policy, cfg.Ways, cfg.Defense, cfg.FillWindow, p.st, secret, seed, got, want)
			}
		}
	}
}

// TestKickerEarlyExitMatchesFullHammer pins the hammer cut: over every
// profile, policy, small associativity, defense and fill window, every
// secret's observation under 20 trial seeds is bit-equal to the full
// KickerRepeats hammer on a freshly built target.
func TestKickerEarlyExitMatchesFullHammer(t *testing.T) {
	seeds := make([]uint64, 20)
	for i := range seeds {
		seeds[i] = uint64(1000 + 7919*i)
	}
	for _, prof := range uarch.Profiles() {
		for _, pol := range replacement.Kinds() {
			for _, ways := range []int{2, 4, 8} {
				for _, d := range attack.Defenses() {
					for _, window := range []uint64{0, 4, 64} {
						cfg := Config{Policy: pol, Ways: ways, Defense: d, FillWindow: window, Profile: prof}
						t.Run(fmt.Sprintf("%s/%v/%d/%v/%d", prof.Name, pol, ways, d, window), func(t *testing.T) {
							checkEarlyExit(t, cfg, seeds)
						})
					}
				}
			}
		}
	}
}

// FuzzKickerEarlyExit widens the oracle comparison to arbitrary
// strategies: short and long hammers, one to three kickers per round,
// any victim-line count and as many rounds as the observation word
// holds.
func FuzzKickerEarlyExit(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint8(0), uint8(1), uint8(95), uint8(1), uint8(3), uint64(1))
	f.Add(uint8(1), uint8(2), uint8(2), uint8(3), uint8(4), uint8(3), uint8(1), uint8(0), uint8(0), uint64(77))
	f.Add(uint8(2), uint8(4), uint8(1), uint8(4), uint8(64), uint8(0), uint8(2), uint8(2), uint8(1), uint64(9))
	f.Add(uint8(0), uint8(1), uint8(2), uint8(1), uint8(0), uint8(2), uint8(7), uint8(1), uint8(5), uint64(3))
	// The fixed PL cache (defense 2) with hammers of one, two and three
	// repeats, around the stop after two misses and no hit, and with
	// the Random policy, where that stop does not apply.
	f.Add(uint8(0), uint8(0), uint8(2), uint8(2), uint8(0), uint8(3), uint8(0), uint8(1), uint8(3), uint64(5))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(2), uint8(0), uint8(3), uint8(1), uint8(1), uint8(3), uint64(6))
	f.Add(uint8(2), uint8(2), uint8(1), uint8(2), uint8(0), uint8(1), uint8(2), uint8(2), uint8(2), uint64(7))
	f.Add(uint8(0), uint8(4), uint8(2), uint8(2), uint8(0), uint8(3), uint8(2), uint8(1), uint8(3), uint64(8))
	// The original PL cache (defense 1) with FIFO (policy 3) and the
	// same three hammers: its bypass touch is a FIFO no-op, so the same
	// stop applies. With true LRU the touch moves the victim's age and
	// the stop does not apply.
	f.Add(uint8(0), uint8(3), uint8(2), uint8(1), uint8(0), uint8(3), uint8(0), uint8(1), uint8(3), uint64(5))
	f.Add(uint8(1), uint8(3), uint8(2), uint8(1), uint8(0), uint8(3), uint8(1), uint8(1), uint8(3), uint64(6))
	f.Add(uint8(2), uint8(3), uint8(1), uint8(1), uint8(0), uint8(1), uint8(2), uint8(2), uint8(2), uint64(7))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(1), uint8(0), uint8(3), uint8(2), uint8(1), uint8(3), uint64(8))
	f.Fuzz(func(t *testing.T, profB, polB, waysB, defB, window, victimB, repeatsB, kickersB, roundsB uint8, seed uint64) {
		profs := uarch.Profiles()
		kinds := replacement.Kinds()
		defenses := attack.Defenses()
		ways := 2 << (int(waysB) % 3) // 2, 4, 8
		v := 1 + int(victimB)%(ways-1)
		kickers := 1 + int(kickersB)%3
		maxRounds := 64 / (kickers*missCountBits + v)
		cfg := Config{
			Profile:    profs[int(profB)%len(profs)],
			Policy:     kinds[int(polB)%len(kinds)],
			Ways:       ways,
			Defense:    defenses[int(defB)%len(defenses)],
			FillWindow: uint64(window),
			Strategy: Strategy{
				VictimLines:     v,
				KickerRepeats:   1 + int(repeatsB)%128,
				KickersPerRound: kickers,
				Rounds:          1 + int(roundsB)%maxRounds,
			},
		}
		checkEarlyExit(t, cfg, []uint64{seed, seed ^ 0x5bd1e995})
	})
}

// TestTouchTwiceIsFixedPoint pins the property the hammer cut rests
// on: in every stateful family, two touches of one way leave a state
// that a third touch does not change — from every enumerated state (the
// sampled set for true LRU at 16 ways). It also pins why the cut waits
// for the second hit and not the first: under Bit-PLRU a touch that
// fills the MRU mask rolls every bit over, its own included, so one
// touch is not always a fixed point.
func TestTouchTwiceIsFixedPoint(t *testing.T) {
	oneTouchMoves := false
	for _, kind := range statePolicies {
		for _, ways := range []int{2, 4, 8, 16} {
			sp := Enumerate(kind, ways, Options{})
			a := replacement.NewSetArray(kind, 1, ways, nil)
			for _, s := range sp.States {
				for w := 0; w < ways; w++ {
					a.SetPackedState(0, s)
					a.Touch(0, w)
					once := a.PackedState(0)
					a.Touch(0, w)
					twice := a.PackedState(0)
					a.Touch(0, w)
					if thrice := a.PackedState(0); thrice != twice {
						t.Fatalf("%v/%d state %#x way %d: touches give %#x then %#x", kind, ways, s, w, twice, thrice)
					}
					if once != twice {
						if kind != replacement.BitPLRU {
							t.Errorf("%v/%d state %#x way %d: one touch is not a fixed point", kind, ways, s, w)
						}
						oneTouchMoves = true
					}
				}
			}
		}
	}
	if !oneTouchMoves {
		t.Error("no Bit-PLRU state where one touch is not a fixed point: the hammer could stop at the first hit")
	}
}
