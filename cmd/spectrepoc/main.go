// Command spectrepoc demonstrates Section VIII end to end: a Spectre v1
// attack that exfiltrates a secret through the L1 LRU channel instead of
// Flush+Reload, including the randomized-round prefetcher defence of
// Appendix C. It prints the recovered secret byte by byte and compares the
// minimum speculation window each disclosure primitive needs. Byte
// recoveries run as parallel engine jobs, one independent attack instance
// per byte; -workers 1 forces a serial run with identical output.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/spectre"
)

func main() {
	var (
		secretText = flag.String("secret", "THE MAGIC WORDS ARE SQUEAMISH OSSIFRAGE", "secret to plant and recover")
		disc       = flag.String("disclosure", "lru1", "disclosure primitive: lru1, lru2, frmem, frl1")
		rounds     = flag.Int("rounds", 8, "randomized measurement rounds per byte")
		prefetch   = flag.Bool("prefetcher", false, "enable the next-line prefetcher (Appendix C noise)")
		windows    = flag.Bool("windows", false, "also compare minimum speculation windows")
		seed       = flag.Uint64("seed", 2020, "experiment seed")
		workers    = flag.Int("workers", 0, "parallel experiment workers (0 = all cores)")
		progress   = flag.Bool("progress", false, "report per-byte progress on stderr")
	)
	flag.Parse()
	d, ok := map[string]core.Algorithm{
		"lru1": lruleak.Alg1SharedMemory, "lru2": lruleak.Alg2NoSharedMemory,
		"frmem": lruleak.FlushReloadMem, "frl1": lruleak.FlushReloadL1,
	}[*disc]
	if !ok {
		fmt.Fprintf(os.Stderr, "spectrepoc: unknown -disclosure %q (want lru1, lru2, frmem or frl1)\n", *disc)
		os.Exit(2)
	}
	if *rounds < 1 {
		fmt.Fprintf(os.Stderr, "spectrepoc: -rounds must be >= 1, got %d\n", *rounds)
		os.Exit(2)
	}

	opt := lruleak.RunOptions{Workers: *workers}
	if *progress {
		opt.Progress = lruleak.ProgressTo(os.Stderr)
	}

	cfg := lruleak.SpectreConfig{Disclosure: d, Rounds: *rounds, Seed: *seed}
	if *prefetch {
		cfg.Prefetcher = lruleak.PrefetchNextLine
		if cfg.Rounds < 16 {
			cfg.Rounds = 16 // Appendix C: more rounds to cancel the noise
		}
	}
	if d == lruleak.FlushReloadMem {
		cfg.Window = 300
	}

	secret := lruleak.EncodeString(*secretText)

	fmt.Printf("victim secret:   %q (%d bytes over the %d-value alphabet)\n",
		*secretText, len(secret), lruleak.SpectreAlphabet)
	fmt.Printf("disclosure:      %v, window %d cycles, %d rounds, prefetcher %v\n",
		d.Column(), cfgWindow(cfg), cfg.Rounds, *prefetch)

	// One job per secret byte: each builds its own attack (victim,
	// hierarchy, predictor) from a split seed and leaks just that byte.
	seeds := engine.Seeds(*seed, len(secret))
	jobs := make([]engine.Job[byte], len(secret))
	for i := range secret {
		i := i
		jobs[i] = engine.Job[byte]{
			Name: fmt.Sprintf("spectre/byte=%d", i),
			Seed: seeds[i],
			Run: func(s uint64) byte {
				c := cfg
				c.Seed = s
				a := lruleak.NewSpectre(c, secret)
				b, _ := a.RecoverByteWarm(i)
				return b
			},
		}
	}
	got := engine.Values(engine.Run(jobs, opt))

	fmt.Print("recovering:      ")
	for _, b := range got {
		fmt.Printf("%s", lruleak.DecodeString([]byte{b}))
	}
	fmt.Println()

	correct := 0
	for i := range got {
		if got[i] == secret[i] {
			correct++
		}
	}
	fmt.Printf("recovered:       %q (%d/%d bytes correct)\n",
		lruleak.DecodeString(got), correct, len(secret))

	if *windows {
		fmt.Println("\nminimum speculation window per disclosure primitive:")
		probe := lruleak.EncodeString("AB")
		prims := []struct {
			name string
			d    core.Algorithm
		}{{"LRU Alg.1", lruleak.Alg1SharedMemory}, {"LRU Alg.2", lruleak.Alg2NoSharedMemory},
			{"F+R (L1)", lruleak.FlushReloadL1}, {"F+R (mem)", lruleak.FlushReloadMem}}
		wjobs := make([]engine.Job[int], len(prims))
		for i, c := range prims {
			c := c
			wjobs[i] = engine.Job[int]{
				Name: "window/" + c.name,
				Seed: *seed,
				Run: func(s uint64) int {
					return spectre.MinimumWindow(lruleak.SpectreConfig{Disclosure: c.d, Seed: s}, probe, 1.0, 4, 400)
				},
			}
		}
		ws := engine.Values(engine.Run(wjobs, opt))
		for i, c := range prims {
			fmt.Printf("  %-10s %4d cycles\n", c.name, ws[i])
		}
	}
}

func cfgWindow(cfg lruleak.SpectreConfig) int {
	if cfg.Window != 0 {
		return cfg.Window
	}
	return spectre.DefaultWindow
}
