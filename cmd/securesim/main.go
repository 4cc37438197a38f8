// Command securesim regenerates the Section IX defence evaluations:
// Figure 9 (replacement-policy performance with FIFO/Random in the L1D),
// Figure 11 (the PL cache leaking through LRU state and the fixed design),
// and the random-fill / DAWG analyses discussed in Section IX-B. All
// evaluations execute through the experiment engine; -design both runs
// the two secure-design analyses as parallel jobs.
//
// Usage:
//
//	securesim -fig 9  [-instructions 2000000]
//	securesim -fig 11 [-samples 300]
//	securesim -design randomfill|dawg|both
//
// All forms accept -workers N (0 = all cores) and -progress.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/engine"
	"repro/internal/secure"
)

func main() {
	var (
		fig          = flag.Int("fig", 0, "figure to regenerate: 9 or 11")
		design       = flag.String("design", "", "secure design analysis: randomfill, dawg or both")
		instructions = flag.Int("instructions", 2_000_000, "instructions per Figure 9 benchmark")
		samples      = flag.Int("samples", 300, "receiver samples for Figure 11")
		seed         = flag.Uint64("seed", 2020, "experiment seed")
		workers      = flag.Int("workers", 0, "parallel experiment workers (0 = all cores)")
		progress     = flag.Bool("progress", false, "report per-cell progress on stderr")
	)
	flag.Parse()
	for _, c := range []struct {
		name string
		v    int
	}{{"samples", *samples}, {"instructions", *instructions}} {
		if c.v < 1 {
			fmt.Fprintf(os.Stderr, "securesim: -%s must be >= 1, got %d\n", c.name, c.v)
			os.Exit(2)
		}
	}

	opt := lruleak.RunOptions{Workers: *workers}
	if *progress {
		opt.Progress = lruleak.ProgressTo(os.Stderr)
	}

	renderRandomFill := func(s uint64) string {
		acc := secure.RandomFillLeakExperiment(1000, 120, s)
		return fmt.Sprintf("random-fill cache, Algorithm 1 style hit-encoded leak:\n"+
			"  receiver decodes the sender's bit correctly %.1f%% of the time (chance = 50%%)\n"+
			"  -> the LRU channel SURVIVES random fill (Section IX-B)\n", 100*acc)
	}
	renderDAWG := func(s uint64) string {
		acc := secure.DAWGLeakExperiment(4000, s)
		return fmt.Sprintf("DAWG-style way + LRU-state partitioning:\n"+
			"  receiver decodes the sender's bit correctly %.1f%% of the time (chance = 50%%)\n"+
			"  -> partitioning the replacement state CLOSES the channel\n", 100*acc)
	}

	var jobs []engine.Job[string]
	switch {
	case *fig == 9:
		fmt.Print(lruleak.RenderFigure9(lruleak.Figure9(*instructions, *seed, opt)))
		return
	case *fig == 11:
		fmt.Print(lruleak.Figure11(*samples, *seed, opt).Render())
		return
	case *design == "randomfill":
		jobs = []engine.Job[string]{{Name: "design/randomfill", Seed: *seed, Run: renderRandomFill}}
	case *design == "dawg":
		jobs = []engine.Job[string]{{Name: "design/dawg", Seed: *seed, Run: renderDAWG}}
	case *design == "both":
		jobs = []engine.Job[string]{
			{Name: "design/randomfill", Seed: *seed, Run: renderRandomFill},
			{Name: "design/dawg", Seed: *seed, Run: renderDAWG},
		}
	default:
		fmt.Fprintln(os.Stderr, "securesim: pass -fig 9, -fig 11, or -design randomfill|dawg|both")
		os.Exit(2)
	}
	for _, out := range engine.Values(engine.Run(jobs, opt)) {
		fmt.Print(out)
	}
}
