package attack

// The scheduler-native attack: instead of the synchronous, attack-driven
// sequencing of the original subsystem (victim window, then probe, in
// lockstep), victim and attacker run as internal/sched threads on an
// SMT or time-sliced machine. The victim paces itself by wall clock —
// one secret symbol per symbol period (16_000 cycles under SMT, 160_000
// time-sliced) — and the attacker paces Votes probe windows per period
// on its own deadlines, bucketing each window by the symbol period it
// nominally covers. Neither party observes the other's progress:
// windows drift against the victim's event under per-access SMT jitter
// or time-slice quantization, probes catch events mid-sequence or miss
// them entirely, and the classifier pays for it in votes — which is
// exactly the overhead MinVotes measures against the synchronous
// baseline.

import (
	"fmt"
	"strings"

	"repro/internal/rng"
	"repro/internal/sched"
)

// Schedule selects how victim and attacker execute.
type Schedule int

// The execution disciplines.
const (
	// ScheduleSync is the synchronous attack-driven baseline: the
	// attacker runs the victim's event window between its prime and
	// probe phases, in lockstep, with no simulated time.
	ScheduleSync Schedule = iota
	// ScheduleSMT runs victim and attacker as hyper-threads of one
	// physical core (per-access jitter from issue contention).
	ScheduleSMT
	// ScheduleTimeSliced alternates victim and attacker on one core
	// under round-robin quanta (probe windows quantized to slices).
	ScheduleTimeSliced
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case ScheduleSync:
		return "sync"
	case ScheduleSMT:
		return "smt"
	case ScheduleTimeSliced:
		return "tslice"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// ParseSchedule maps a schedule name back to its value, for flags.
func ParseSchedule(s string) (Schedule, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sync", "synchronous", "":
		return ScheduleSync, nil
	case "smt", "hyperthreaded", "hyper-threaded":
		return ScheduleSMT, nil
	case "tslice", "timesliced", "time-sliced", "ts":
		return ScheduleTimeSliced, nil
	default:
		return 0, fmt.Errorf("attack: unknown schedule %q (want sync, smt or tslice)", s)
	}
}

// Schedules lists every schedule, in evaluation order.
func Schedules() []Schedule {
	return []Schedule{ScheduleSync, ScheduleSMT, ScheduleTimeSliced}
}

// symbolPeriod is the wall-clock cycles the scheduled victim spends per
// secret symbol.
func (s Schedule) symbolPeriod() uint64 {
	if s == ScheduleTimeSliced {
		return 160_000
	}
	return 16_000
}

// schedQuantum is the time-sliced scheduler quantum, scaled down with
// the symbol period the same way the covert channel scales Figure 6:
// the period/quantum ratio is what matters.
const schedQuantum = 10_000

// mode maps a scheduled discipline onto the sched.Machine mode.
func (s Schedule) mode() sched.Mode {
	if s == ScheduleTimeSliced {
		return sched.TimeSliced
	}
	return sched.SMT
}

// roundRobinStream is the profiling phase's symbol schedule: rounds
// repetitions of 0..space-1, the same interleaving the synchronous
// profiling loop uses, so every template cell sees the same
// steady-state history mix.
func roundRobinStream(space, rounds int) []int {
	out := make([]int, 0, space*rounds)
	for round := 0; round < rounds; round++ {
		for v := 0; v < space; v++ {
			out = append(out, v)
		}
	}
	return out
}

// scheduleStream runs one symbol stream through a scheduled machine
// built over the session's target and returns the attacker's
// observations bucketed by symbol index. The session must be freshly
// built (newSession warms and settles the target synchronously, so the
// machine starts from the protocol's steady state).
//
// The victim thread processes stream[i] during wall period
// [i·P, (i+1)·P), placing its event window a quarter period in; the
// attacker thread runs cfg.Votes probe windows per period at its own
// wall-clock deadlines and labels each window with the period it
// nominally covers. Labels are exact — the attacker knows its own
// schedule — but execution is not: under SMT every access cost
// jitters, and under time-slicing a deadline reached mid-quantum slips
// to the thread's next slice.
func scheduleStream(cfg Config, s *session, stream []int, seed uint64) [][]Observation {
	period := cfg.Schedule.symbolPeriod()
	votes := cfg.Votes
	if votes < 1 {
		votes = 1
	}
	wp := period / uint64(votes)
	if wp == 0 {
		wp = 1
	}
	buckets := make([][]Observation, len(stream))

	m := sched.New(sched.Config{
		RNG:     rng.New(seed ^ 0x5c4ed11e),
		Mode:    cfg.Schedule.mode(),
		Quantum: schedQuantum,
	})
	// The attacker is thread 0: under time-slicing it owns the first
	// quantum, mirroring the synchronous protocol's attacker-first
	// ordering (the set is primed before the victim's first event).
	completed := 0
	m.AddThread("attacker", ReqAttacker, func(e *sched.Env) {
		total := len(stream) * votes
		for w := 0; w < total; w++ {
			deadline := uint64(w) * wp
			e.BusyUntil(deadline)
			if w%votes == 0 {
				// Symbol-period boundary: re-reference the d-split
				// orbit (no-op under the canonical strategy).
				s.reprime(e)
			}
			s.prime(e)
			// Sit out the middle of the window so the victim's event
			// has wall time to land between the phases.
			e.BusyUntil(deadline + wp/2)
			s.probe(e)
			obs := s.observed()
			s.windows++
			idx := w / votes
			buckets[idx] = append(buckets[idx], obs)
			completed = w + 1
		}
		// The attack is over once the last window is probed; don't
		// leave the victim spinning to the wall-clock limit.
		e.StopAll()
	})
	m.AddThread("victim", ReqVictim, func(e *sched.Env) {
		for i, sym := range stream {
			// The victim keeps processing events while a symbol is
			// live (a server runs many operations under one key
			// nibble), paced a quarter window past each attacker
			// deadline — between the prime and probe phases when both
			// parties are on schedule, and drifting across them under
			// scheduling jitter.
			for k := 0; k < votes; k++ {
				e.BusyUntil(uint64(i)*period + uint64(k)*wp + wp/4)
				s.victimWindow(e, sym)
			}
		}
	})
	m.Run(uint64(len(stream)+2) * period)
	// Every bucket gets exactly `votes` observations by construction
	// (labels follow the attacker's own window index), so a shortfall
	// means the wall-clock limit truncated the attack: the schedule's
	// symbol period cannot fit the probe windows it promises. Failing
	// loudly beats classifying empty buckets as uniform posteriors.
	if completed < len(stream)*votes {
		panic(fmt.Sprintf(
			"attack: scheduled run truncated after %d of %d windows — the %d-cycle symbol period is too small for %d votes of probe work per symbol",
			completed, len(stream)*votes, period, votes))
	}
	return buckets
}

// MinVotes searches for the smallest per-symbol vote count at which
// the configured attack recovers the secret exactly, up to maxVotes.
// It reports the vote count and whether full recovery was reached —
// the metric that prices scheduling jitter: the scheduled attack needs
// MinVotes(scheduled) − MinVotes(sync) extra windows per symbol.
func MinVotes(cfg Config, secret []int, maxVotes int) (int, bool) {
	if maxVotes < 1 {
		maxVotes = 1
	}
	for votes := 1; votes <= maxVotes; votes++ {
		c := cfg
		c.Votes = votes
		if Run(c, secret).RecoveryRate == 1.0 {
			return votes, true
		}
	}
	return maxVotes, false
}
