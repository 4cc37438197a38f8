// keyrecovery walks through the secret-recovery side channel end to
// end: a victim whose single secret-dependent access per event — the
// case flush- and eviction-based attacks miss — leaks its key through
// the L1 replacement state to a prime/probe template attacker, and the
// Section IX defense matrix shows which designs stop it and whether a
// counter monitor can see the attack happening.
//
// Run: go run ./examples/keyrecovery
package main

import (
	"fmt"

	"repro"
	"repro/internal/victim"
)

func main() {
	prof := lruleak.SandyBridge()
	v, err := lruleak.NewVictim("ttable", prof.L1Sets)
	if err != nil {
		panic(err)
	}
	secret := victim.DemoSecret(v, 16, 42)

	fmt.Println("=== 1. The victim: one secret-dependent access per event ===")
	fmt.Printf("an AES-style victim reads T[nibble] once per lookup; its %d-line\n", len(v.TableLines()))
	fmt.Println("table is cached the whole time, so the access is a plain cache hit")
	fmt.Println("buried in benign traffic — nothing a miss counter would notice.")
	fmt.Printf("planted key: %s\n", victim.FormatSecret(v, secret))

	fmt.Println("\n=== 2. The attack: prime the LRU state, probe which way moved ===")
	res := lruleak.RunAttack(lruleak.AttackConfig{
		Victim: v, Policy: lruleak.TreePLRU, Profile: prof, Seed: 7,
	}, secret)
	fmt.Printf("recovered  : %s\n", victim.FormatSecret(v, res.Recovered))
	fmt.Printf("recovery rate %.2f, guesses-to-first-correct %.1f (chance %.1f)\n",
		res.RecoveryRate, res.MeanGuesses, lruleak.AttackChanceGuesses(v))

	fmt.Println("\n=== 3. Is it detectable while it runs? ===")
	fmt.Printf("attacker: %s\n", res.AttackerExplain)
	fmt.Printf("victim:   %s\n", res.VictimExplain)
	fmt.Println("a miss-rate line alone cannot tell the probing from any memory-heavy")
	fmt.Println("program; the cross-eviction rate — fills that displace ANOTHER")
	fmt.Println("process's lines — is the prime/probe signature the monitor keys on.")

	fmt.Println("\n=== 4. The defense matrix: which design stops the attack ===")
	cells := lruleak.AttackSweep(lruleak.AttackSpec{
		Victims:  []string{"ttable"},
		Policies: []string{"treeplru"},
		Symbols:  8,
	}, 7, lruleak.RunOptions{})
	fmt.Print(lruleak.RenderAttackSweep(cells))
	fmt.Println("\nDAWG's way+state partitioning and the PL designs drive exact recovery")
	fmt.Println("to chance; random fill still leaks rank information (guesses-to-first-")
	fmt.Println("correct well below chance) even though exact recovery is rare.")
}
