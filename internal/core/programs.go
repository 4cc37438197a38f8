package core

import (
	"repro/internal/mem"
	"repro/internal/sched"
)

// Observation is one receiver sample: the observed probe latency, the wall
// time at which the decode completed, and ground truth for validation.
type Observation struct {
	Latency float64
	Wall    uint64
	// TrueL1Hit records whether line 0 really hit L1 — ground truth the
	// real attacker does not have, kept for test assertions.
	TrueL1Hit bool
}

// SenderProgram returns the sender thread: it transmits message (one byte
// per bit) by holding each bit for Ts cycles and running the encoding phase
// of the configured algorithm in a loop (Algorithm 3, sender side). If
// repeat is true the message is retransmitted forever (the experiment's
// wall-clock limit stops it).
func (s *Setup) SenderProgram(message []byte, repeat bool) func(*sched.Env) {
	period := s.Cfg.senderPeriod()
	ts := s.Cfg.Ts
	return func(e *sched.Env) {
		for {
			for _, bit := range message {
				deadline := e.Now() + ts
				for e.Now() < deadline {
					if bit != 0 {
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

// WarmSender pre-loads the sender's line so that, as the paper assumes, the
// victim line "is already in cache before the attack" and all encoding
// accesses are hits.
func (s *Setup) WarmSender() { s.Hier.Warm(s.SenderLine, ReqSender) }

// ReceiverProgram returns the receiver thread implementing Algorithm 3's
// receive loop around the configured algorithm: initialization phase
// (lines 0..d-1), busy-wait until Tr has elapsed since the previous sample,
// decoding phase (remaining lines), and the timed pointer-chase access to
// line 0. Each sample is appended to out. The thread runs until the
// machine's wall-clock limit stops it (or maxSamples is reached, if > 0).
func (s *Setup) ReceiverProgram(out *[]Observation, maxSamples int) func(*sched.Env) {
	d := s.Cfg.D
	if d > len(s.ReceiverLines) {
		d = len(s.ReceiverLines)
	}
	tr := s.Cfg.Tr
	return func(e *sched.Env) {
		s.Chaser.WarmUp()
		var tLast uint64
		for maxSamples <= 0 || len(*out) < maxSamples {
			// Step 0: initialization phase.
			for i := 0; i < d; i++ {
				e.Access(s.ReceiverLines[i])
			}
			// Sleep: allow the sender's encoding to land.
			e.BusyUntil(tLast + tr)
			tLast = e.Now()
			// Step 2: decoding phase.
			for i := d; i < s.decodeEnd(); i++ {
				e.Access(s.ReceiverLines[i])
			}
			// Timed access to line 0 via the pointer chase.
			m := e.Measure(s.Chaser, s.ReceiverLines[0])
			*out = append(*out, Observation{
				Latency:   m.Observed,
				Wall:      e.Now(),
				TrueL1Hit: m.L1Hit,
			})
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
