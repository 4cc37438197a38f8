// spectre shows the Section VIII result: a Spectre v1 bounds-check-bypass
// attack that exfiltrates the victim's secret through the LRU channel. The
// sender side of the channel is ONE speculative cache access — a hit — so
// the attack fits a speculation window an order of magnitude smaller than
// the classic Flush+Reload gadget requires.
//
// Run: go run ./examples/spectre
package main

import (
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/spectre"
)

func main() {
	secretText := "THE MAGIC WORDS ARE SQUEAMISH OSSIFRAGE"
	secret := lruleak.EncodeString(secretText)

	fmt.Println("=== Spectre v1 with the LRU-channel disclosure primitive ===")
	attack := lruleak.NewSpectre(lruleak.SpectreConfig{
		Disclosure: lruleak.Alg1SharedMemory,
		Seed:       1,
	}, secret)

	fmt.Printf("planted secret: %q\n", secretText)
	fmt.Print("leaking:        ")
	got := make([]byte, len(secret))
	for i := range secret {
		got[i], _ = attack.RecoverByte(i)
		fmt.Print(lruleak.DecodeString(got[i : i+1]))
	}
	fmt.Println()

	fmt.Println("\n=== Why the LRU channel matters for transient execution ===")
	fmt.Println("smallest speculation window that still leaks (binary search):")
	probe := lruleak.EncodeString("AB")
	for _, c := range []struct {
		name string
		d    core.Algorithm
	}{
		{"LRU Algorithm 1 (hit-encoded)", lruleak.Alg1SharedMemory},
		{"LRU Algorithm 2 (no shared memory)", lruleak.Alg2NoSharedMemory},
		{"Flush+Reload via L1 eviction", lruleak.FlushReloadL1},
		{"Flush+Reload via clflush to memory", lruleak.FlushReloadMem},
	} {
		w := spectre.MinimumWindow(lruleak.SpectreConfig{Disclosure: c.d, Seed: 1}, probe, 1.0, 4, 400)
		fmt.Printf("  %-36s %4d cycles\n", c.name, w)
	}
	fmt.Println("\nthe F+R(mem) gadget needs its probe line to come back from memory")
	fmt.Println("inside the window; the LRU gadget only needs two cache hits.")
}
