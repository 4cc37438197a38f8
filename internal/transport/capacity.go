package transport

import (
	"repro/internal/rng"
)

// CapacityPoint is one end-to-end goodput measurement: the Figure 4
// capacity-vs-reliability trade-off re-expressed at the transport layer
// (goodput of correct payload bits instead of raw channel rate, frame
// error rate instead of bit edit distance).
type CapacityPoint struct {
	Tr, Ts       uint64
	Codec        string
	Lanes        int
	NoiseThreads int
	PayloadBytes int

	FramesSent, FramesOK int
	FrameErrorRate       float64
	ByteErrors           int
	GoodputBitsPerCycle  float64
	GoodputBps           float64
}

// MeasureCapacity builds a stream from cfg, transfers a payload of
// payloadBytes pseudo-random bytes derived from seed, and reports the
// operating point. The channel seed is also derived from seed, so one
// uint64 pins the whole experiment.
func MeasureCapacity(cfg Config, payloadBytes int, seed uint64) CapacityPoint {
	r := rng.New(seed)
	cfg.Channel.Seed = r.Uint64()
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}

	s := New(cfg)
	res := s.Transfer(payload)
	return CapacityPoint{
		Tr: s.Setup.Cfg.Tr, Ts: s.Setup.Cfg.Ts,
		Codec:        s.Cfg.Codec.Name(),
		Lanes:        s.Setup.Lanes(),
		NoiseThreads: s.Setup.Cfg.NoiseThreads,
		PayloadBytes: payloadBytes,

		FramesSent: res.FramesSent, FramesOK: res.FramesOK,
		FrameErrorRate:      res.FrameErrorRate,
		ByteErrors:          res.ByteErrors,
		GoodputBitsPerCycle: res.GoodputBitsPerCycle,
		GoodputBps:          res.GoodputBps,
	}
}
