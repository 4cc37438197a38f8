package core

import (
	"repro/internal/mem"
	"repro/internal/sched"
)

// Observation is one receiver sample of one lane: the observed probe
// latency, the wall time at which the sweep completed, and ground truth
// for validation.
type Observation struct {
	Latency float64
	Wall    uint64
	// TrueL1Hit records whether line 0 really hit L1 — ground truth the
	// real attacker does not have, kept for test assertions.
	TrueL1Hit bool
}

// addressComputation is the sender's per-bit gadget arithmetic in cycles
// (Table V), on top of its memory operations.
const addressComputation = 27

// SenderProgram returns the single-bit sender thread on lane 0: it
// transmits message (one byte per bit) by holding each bit for Ts cycles
// and running the encoding phase of the configured algorithm in a loop
// (Algorithm 3, sender side). If repeat is true the message is
// retransmitted forever (the experiment's wall-clock limit stops it).
func (s *Setup) SenderProgram(message []byte, repeat bool) func(*sched.Env) {
	period := s.Cfg.senderPeriod()
	ts := s.Cfg.Ts
	fr := s.Cfg.Algorithm.flushReload()
	return func(e *sched.Env) {
		for {
			for _, bit := range message {
				deadline := e.Now() + ts
				for e.Now() < deadline {
					if fr {
						// Flush+Reload: flush line 0 (or
						// walk its L1 set), and reload it
						// to send a 1 — a miss either way.
						if s.Cfg.Algorithm == FlushReloadMem {
							e.Flush(s.SenderLine)
						}
						for _, ev := range s.evictors {
							e.Access(ev)
						}
						if bit != 0 {
							e.Access(s.SenderLine)
						}
						e.Busy(addressComputation)
					} else if bit != 0 {
						// Encoding phase: one access. Under
						// Algorithm 1 this touches shared
						// line 0; under Algorithm 2 the
						// private line N. Either way it is
						// normally a cache HIT.
						e.Access(s.SenderLine)
						if lat := period - uint64(s.Hier.Profile().L1Latency); lat > 0 {
							e.Busy(lat)
						}
					} else {
						// m=0: no access to the target set;
						// the loop still burns the address
						// computation time.
						e.Busy(period)
					}
				}
			}
			if !repeat {
				return
			}
		}
	}
}

// holdWord runs the word sender's encode loop until deadline: every
// iteration touches the sender line of each 1-lane (cache hits that push
// the lanes' replacement state) and burns the per-iteration
// address-computation budget.
func (s *Setup) holdWord(e *sched.Env, word []byte, deadline uint64) {
	period := s.Cfg.senderPeriod()
	for e.Now() < deadline {
		issued := false
		for i, bit := range word {
			if i >= len(s.lanes) {
				break
			}
			if bit != 0 {
				e.Access(s.lanes[i].sender)
				issued = true
			}
		}
		if !issued {
			e.Busy(period)
		} else {
			e.Busy(period / 2)
		}
	}
}

// WarmSender pre-loads every lane's sender line so that, as the paper
// assumes, the victim line "is already in cache before the attack" and
// all encoding accesses are hits.
func (s *Setup) WarmSender() {
	for _, l := range s.lanes {
		s.Hier.Warm(l.sender, ReqSender)
	}
}

// receiverProgram returns the receiver thread implementing Algorithm 3's
// receive loop around the configured algorithm, one sweep per sampling
// period: initialization phase (lines 0..d-1 of every lane), busy-wait
// until Tr has elapsed since the previous sweep, then per lane the
// decoding phase (lines d..K-1) and the timed pointer-chase access to
// line 0. Flush+Reload primes and decodes nothing: its receiver only
// reloads line 0. Each sweep appends one observation per lane, all
// stamped with the wall time the sweep ended; a sweep the machine stops
// midway appends nothing. The thread runs until the machine's wall-clock
// limit stops it (or maxSweeps is reached, if > 0).
func (s *Setup) receiverProgram(out *[]Observation, maxSweeps int) func(*sched.Env) {
	d, k := min(s.Cfg.D, len(s.ReceiverLines)), len(s.ReceiverLines)
	if s.Cfg.Algorithm.flushReload() {
		d, k = 0, 0
	}
	tr := s.Cfg.Tr
	return func(e *sched.Env) {
		s.Chaser.WarmUp()
		sweep := make([]Observation, len(s.lanes))
		var tLast uint64
		for n := 0; maxSweeps <= 0 || n < maxSweeps; n++ {
			// Step 0: initialization phase.
			for _, l := range s.lanes {
				for _, line := range l.receiver[:d] {
					e.Access(line)
				}
			}
			// Sleep: allow the sender's encoding to land.
			e.BusyUntil(tLast + tr)
			tLast = e.Now()
			for i, l := range s.lanes {
				// Step 2: decoding phase.
				for _, line := range l.receiver[d:k] {
					e.Access(line)
				}
				// Timed access to line 0 via the pointer chase.
				m := e.Measure(s.Chaser, l.receiver[0])
				sweep[i] = Observation{Latency: m.Observed, TrueL1Hit: m.L1Hit}
			}
			wall := e.Now()
			for i := range sweep {
				sweep[i].Wall = wall
			}
			*out = append(*out, sweep...)
		}
		// The experiment is over once the receiver has its samples;
		// don't leave the sender spinning to the wall-clock limit.
		e.StopAll()
	}
}

// NoiseProgram returns a background process that touches a random line of a
// random set every NoisePeriod cycles — the "other processes running during
// Tr" pollution discussed for time-sliced sharing in Section V-B.
func (s *Setup) NoiseProgram() func(*sched.Env) {
	prof := s.Hier.Profile()
	as := s.Sys.NewAddressSpace()
	// A private working set spanning every cache set, 4 lines deep.
	lines := make([]mem.Addr, 0, prof.L1Sets*4)
	for i := 0; i < 4; i++ {
		for set := 0; set < prof.L1Sets; set++ {
			v := as.LinesForSet(prof.L1Sets, set, 1)[0]
			lines = append(lines, as.Resolve(v))
		}
	}
	period := s.Cfg.NoisePeriod
	return func(e *sched.Env) {
		r := e.RNG()
		for {
			e.Access(lines[r.Intn(len(lines))])
			e.Busy(period)
		}
	}
}
