// Command lruattack runs the secret-recovery side-channel attack: a
// secret-dependent victim (AES-style T-table lookup, square-and-multiply
// exponentiation, or a generic table dispatch) leaks its key through the
// L1 replacement state to a prime/probe template attacker, optionally
// through one of the Section IX secure-cache defenses, and a
// performance-counter monitor judges both processes while the attack
// runs.
//
// Usage:
//
//	lruattack [-victim ttable|sqmul|lookup] [-defense none|plcache|plcache-fix|randomfill|dawg]
//	          [-policy lru|treeplru|bitplru|fifo|random] [-cpu sandy|skylake|zen]
//	          [-probe full|d=1] [-schedule sync|smt|tslice]
//	          [-secret HEX] [-symbols N] [-trials N] [-profrounds N] [-seed N]
//	lruattack -sweep [-symbols N] [-trials N] [-reps N]   (full victim × policy × defense matrix)
//	lruattack -overhead [-maxvotes N]   (votes needed per schedule: the price of scheduling jitter)
//	lruattack -roc                      (detection threshold sweep: per-defense ROC curves and AUC)
//
// -probe selects the per-window probe strategy: the canonical full
// prime, or the d-split partial prime of the paper's Figure 11 d=1
// operating point (which sees the original PL cache's locked-line
// replacement-state update — the leak the canonical prime erases).
// -schedule runs victim and attacker as SMT hyper-threads or
// time-sliced processes instead of the synchronous baseline, so probe
// windows carry real scheduling jitter.
//
// -trials is the per-symbol vote count (observation windows fused into
// one guess); -reps is how many independent repetitions each -sweep
// cell aggregates (mean ± stddev).
//
// All forms accept -workers N (0 = all cores) and -progress (which only
// affect the multi-cell modes: -sweep, -overhead and -roc).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/replacement"
	"repro/internal/victim"
)

func main() {
	var (
		victimName = flag.String("victim", "ttable", "victim program: ttable, sqmul or lookup")
		defense    = flag.String("defense", "none", "cache defense: none, plcache, plcache-fix, randomfill or dawg")
		policy     = flag.String("policy", "treeplru", "L1 replacement policy: lru, treeplru, bitplru, fifo or random")
		cpu        = flag.String("cpu", "sandy", "CPU profile: sandy, skylake or zen")
		probeName  = flag.String("probe", "full", "probe strategy: full (canonical prime) or d=N (partial prime, Figure 11 d-split)")
		schedName  = flag.String("schedule", "sync", "execution schedule: sync, smt or tslice")
		secretFlag = flag.String("secret", "", "secret to plant (digits in the victim's symbol base); empty = demo secret")
		symbols    = flag.Int("symbols", 16, "demo-secret length in symbols (when -secret is empty)")
		trials     = flag.Int("trials", 4, "observation windows (votes) fused per secret symbol")
		reps       = flag.Int("reps", 1, "independent repetitions per -sweep cell (reported as mean ± stddev)")
		profrounds = flag.Int("profrounds", 8, "profiling windows per symbol value")
		seed       = flag.Uint64("seed", 2020, "experiment seed")
		sweep      = flag.Bool("sweep", false, "run the victim × policy × defense evaluation matrix instead")
		overhead   = flag.Bool("overhead", false, "measure the votes each schedule needs for full recovery")
		maxvotes   = flag.Int("maxvotes", 10, "vote-count search ceiling for -overhead")
		roc        = flag.Bool("roc", false, "sweep detection thresholds into per-defense ROC curves")
		workers    = flag.Int("workers", 0, "parallel experiment workers for multi-cell modes (0 = all cores)")
		progress   = flag.Bool("progress", false, "report per-cell progress on stderr (multi-cell modes)")
	)
	flag.Parse()
	for _, c := range []struct {
		name string
		v    int
	}{{"symbols", *symbols}, {"trials", *trials}, {"reps", *reps}, {"profrounds", *profrounds}, {"maxvotes", *maxvotes}} {
		if c.v < 1 {
			fail(fmt.Errorf("-%s must be >= 1, got %d", c.name, c.v))
		}
	}

	opt := lruleak.RunOptions{Workers: *workers}
	if *progress {
		opt.Progress = lruleak.ProgressTo(os.Stderr)
	}

	// Parsed even for -sweep, so a bad name exits 2 instead of panicking.
	probe, err := lruleak.AttackProbeByName(*probeName)
	fail(err)
	schedule, err := lruleak.AttackScheduleByName(*schedName)
	fail(err)

	if *sweep {
		cells := lruleak.AttackSweep(lruleak.AttackSpec{
			Probes: []string{*probeName}, Schedules: []string{*schedName},
			Symbols: *symbols, Votes: *trials, ProfilingRounds: *profrounds,
			Trials: *reps,
		}, *seed, opt)
		fmt.Print(lruleak.RenderAttackSweep(cells))
		return
	}
	if *overhead {
		pol, err := replacement.ParseKind(*policy)
		fail(err)
		rows := lruleak.VoteOverheadStudy(*victimName, pol, *symbols, *maxvotes, *seed, opt)
		fmt.Printf("Vote overhead — victim=%s policy=%v (scheduled windows drift against the victim's events)\n",
			*victimName, pol)
		fmt.Print(lruleak.RenderVoteOverhead(rows))
		return
	}
	if *roc {
		res := lruleak.ROCSweep(lruleak.ROCSpec{}, *seed, opt)
		fmt.Print(lruleak.RenderROC(res))
		return
	}

	prof, err := lruleak.ProfileByName(*cpu)
	fail(err)
	pol, err := replacement.ParseKind(*policy)
	fail(err)
	def, err := lruleak.AttackDefenseByName(*defense)
	fail(err)
	v, err := lruleak.NewVictim(*victimName, prof.L1Sets)
	fail(err)

	var secret []int
	if *secretFlag == "" {
		secret = victim.DemoSecret(v, *symbols, *seed)
	} else {
		secret, err = victim.ParseSecret(v, *secretFlag)
		fail(err)
	}

	res := lruleak.RunAttack(lruleak.AttackConfig{
		Victim: v, Defense: def, Policy: pol, Profile: prof,
		Probe: probe, Schedule: schedule,
		Votes: *trials, ProfilingRounds: *profrounds, Seed: *seed,
	}, secret)

	fmt.Printf("Secret recovery through L1 LRU state — victim=%s defense=%v policy=%v cpu=%s probe=%v schedule=%v\n",
		v.Name(), def, pol, prof.Arch, probe, schedule)
	fmt.Printf("windows: %d (profiling + %d votes/symbol)\n\n", res.Windows, *trials)
	fmt.Printf("planted   : %s\n", victim.FormatSecret(v, res.Secret))
	fmt.Printf("recovered : %s\n", victim.FormatSecret(v, res.Recovered))
	fmt.Printf("recovery rate %.2f, mean guesses-to-first-correct %.1f (chance %.1f), mean confidence %.2f\n",
		res.RecoveryRate, res.MeanGuesses, lruleak.AttackChanceGuesses(v),
		res.ConfidenceSummary().Mean)
	if m := res.RenderConfusion(); m != "" {
		fmt.Printf("\nconfusion matrix:\n%s", m)
	}
	fmt.Printf("\ndetection while the attack ran:\n")
	fmt.Printf("  attacker: %s\n", res.AttackerExplain)
	fmt.Printf("  victim:   %s\n", res.VictimExplain)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lruattack:", err)
		os.Exit(2)
	}
}
