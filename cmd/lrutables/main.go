// Command lrutables regenerates the tables of the paper's evaluation:
// Table I (PLRU eviction probabilities), Table II (cache latencies),
// Table IV (transmission rates), Table V (encoding latencies), Table VI
// (sender miss rates) and Table VII (Spectre attack miss rates). Each
// table's cells run in parallel over the experiment engine; -workers 1
// forces a serial run with byte-identical output.
//
// Usage:
//
//	lrutables -table 1 [-trials 10000]
//	lrutables -table 2|4|5|6|7 [-seed N]
//	lrutables -leakage
//	lrutables -all
//
// -leakage renders the automated policy leakage study instead of a
// paper table: the reachable replacement-state spaces per policy and
// the ranked bits-per-observation leaderboard across the defense
// matrix (internal/leakage).
//
// All forms accept -workers N (0 = all cores) and -progress.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	var (
		table    = flag.Int("table", 1, "table number to regenerate (1,2,4,5,6,7)")
		all      = flag.Bool("all", false, "regenerate every table")
		leak     = flag.Bool("leakage", false, "render the policy leakage leaderboard instead of a table")
		trials   = flag.Int("trials", 10000, "trials per Table I cell")
		seed     = flag.Uint64("seed", 2020, "experiment seed")
		secret   = flag.String("secret", "MAGIC", "secret string for Table VII")
		workers  = flag.Int("workers", 0, "parallel experiment workers (0 = all cores)")
		progress = flag.Bool("progress", false, "report per-cell progress on stderr")
	)
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "lrutables: -trials must be >= 1, got %d\n", *trials)
		os.Exit(2)
	}

	opt := lruleak.RunOptions{Workers: *workers}
	if *progress {
		opt.Progress = lruleak.ProgressTo(os.Stderr)
	}

	render := func(n int) (string, bool) {
		switch n {
		case 1:
			return lruleak.RenderTableI(lruleak.TableI(*trials, *seed, opt)), true
		case 2:
			return lruleak.RenderTableII(lruleak.TableII()), true
		case 4:
			return lruleak.RenderTableIV(lruleak.TableIV(64, 4, *seed, opt)), true
		case 5:
			return lruleak.RenderTableV(lruleak.TableV(*seed, opt)), true
		case 6:
			return lruleak.RenderTableVI(lruleak.TableVI(200, *seed, opt)), true
		case 7:
			return lruleak.RenderTableVII(lruleak.TableVII(lruleak.EncodeString(*secret), *seed, opt)), true
		}
		return "", false
	}

	if *leak {
		fmt.Print(lruleak.RenderLeakage(lruleak.LeakageSweep(lruleak.LeakageSpec{}, *seed, opt)))
		return
	}
	if *all {
		for _, n := range []int{1, 2, 4, 5, 6, 7} {
			out, _ := render(n)
			fmt.Printf("=== Table %d ===\n%s\n", n, out)
		}
		return
	}
	out, ok := render(*table)
	if !ok {
		fmt.Fprintf(os.Stderr, "lrutables: no driver for table %d\n", *table)
		os.Exit(2)
	}
	fmt.Print(out)
}
