package transport

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/transport/codec"
)

// Config parameterizes a covert-channel stream.
type Config struct {
	// Channel configures the underlying LRU channel (profile,
	// algorithm, Tr, Ts, noise...). Zero Tr/Ts default to the stream
	// operating point Tr=2000, Ts=12000 — about six receiver sweeps
	// per symbol, enough majority voting to absorb the one-to-two
	// sweeps of replacement-state drift that follow a 1→0 transition
	// (the channel's intrinsic intersymbol interference).
	Channel core.Config

	// Lanes are the L1 target sets carrying one bit per symbol each.
	// Defaults to DefaultLanes(4).
	Lanes []int

	// Codec is the error-correcting code; defaults to codec.Identity.
	Codec codec.Codec

	// FramePayload is the payload bytes per frame (default
	// DefaultFramePayload).
	FramePayload int
}

// DefaultFramePayload is the frame payload size used when
// Config.FramePayload is zero.
const DefaultFramePayload = 32

// leadInSymbols is the number of idle (all-zero) symbols sent before the
// first frame so the receiver's warm-up misses nothing.
const leadInSymbols = 4

func (c Config) withDefaults() Config {
	if c.Channel.Tr == 0 {
		c.Channel.Tr = 2000
	}
	if c.Channel.Ts == 0 {
		c.Channel.Ts = 12000
	}
	if len(c.Lanes) == 0 {
		c.Lanes = DefaultLanes(4)
	}
	if c.Codec == nil {
		c.Codec = codec.Identity{}
	}
	if c.FramePayload == 0 {
		c.FramePayload = DefaultFramePayload
	}
	return c
}

// DefaultLanes returns n well-spread L1 target sets for lane striping,
// avoiding set 0 (pollution magnet) and the default reserved
// pointer-chase set (the last set, 63 on every Table III profile). The
// first lanes step by 6 for spread; once the stride would leave the
// valid range, remaining lanes fill in from the lowest unused sets. It
// panics if n exceeds the 62 usable sets.
func DefaultLanes(n int) []int {
	const reserved, sets = 63, 64
	if n > sets-2 {
		panic(fmt.Sprintf("transport: DefaultLanes(%d) exceeds the %d usable sets", n, sets-2))
	}
	used := make([]bool, sets)
	out := make([]int, 0, n)
	take := func(set int) {
		if len(out) < n && set != 0 && set != reserved && !used[set] {
			used[set] = true
			out = append(out, set)
		}
	}
	for set := 3; set < reserved; set += 6 {
		take(set)
	}
	for set := 1; set < reserved; set++ {
		take(set)
	}
	return out
}

// Stream is an instantiated covert-channel transport: a channel with one
// lane per target set plus the framing/ECC pipeline over it.
type Stream struct {
	Cfg   Config
	Setup *core.Setup
}

// New builds a stream over a fresh channel with one lane per
// Config.Lanes entry.
func New(cfg Config) *Stream {
	cfg = cfg.withDefaults()
	return &Stream{Cfg: cfg, Setup: core.NewMultiSetup(cfg.Channel, cfg.Lanes)}
}

// WireBits returns the on-air size of one frame under the stream's
// codec.
func (s *Stream) WireBits() int { return WireBits(s.Cfg.FramePayload, s.Cfg.Codec) }

// TxRecord is the sender side of one transfer: the receiver's raw
// sweeps (observation i on lane i mod Lanes()) plus the wire accounting
// needed to decode and rate them.
type TxRecord struct {
	Obs []core.Observation
	// Frames is the number of frames sent.
	Frames int
	// Symbols is the total symbol count including the lead-in.
	Symbols int
	// Elapsed is the simulated wall time of the run in cycles.
	Elapsed uint64
}

// Send frames, codes and stripes payload across the lanes, runs the
// simulated machine, and returns the receiver's raw sweeps. Decoding is
// the receiver's half (Receive) — split so experiments can decode one
// capture several ways.
func (s *Stream) Send(payload []byte) *TxRecord {
	lanes := s.Setup.Lanes()
	bits := EncodeFrames(payload, s.Cfg.FramePayload, s.Cfg.Codec)
	frames := len(bits) / s.WireBits()

	stream := make([]byte, leadInSymbols*lanes, leadInSymbols*lanes+len(bits)+lanes)
	stream = append(stream, bits...)
	for len(stream)%lanes != 0 {
		stream = append(stream, 0)
	}
	symbols := len(stream) / lanes
	words := make([][]byte, symbols)
	for j := range words {
		words[j] = stream[j*lanes : (j+1)*lanes]
	}

	ts := s.Setup.Cfg.Ts
	wall := uint64(symbols)*ts + s.Setup.Cfg.Tr
	obs := s.Setup.RunSchedule(words, wall)
	return &TxRecord{Obs: obs, Frames: frames, Symbols: symbols, Elapsed: wall}
}

// RxResult is the receiver side of one transfer.
type RxResult struct {
	ScanResult
	// Bits is the de-striped symbol stream the scan ran over.
	Bits []byte
	// Symbols is the number of symbol periods observed.
	Symbols int
	// EmptySymbols counts symbol periods with no sweep at all (erased
	// lanes-worth of bits — the receiver fell behind the schedule).
	EmptySymbols int
}

// Receive decodes raw sweeps into frames: per-symbol majority vote on
// each lane (symbol index from the sweep's wall time — sender and
// receiver share the machine's TSC, the paper's Algorithm 3 clock
// assumption), de-striping into a bit stream, then the sync-hunting
// frame scan. Observation i belongs to lane i mod Lanes().
func (s *Stream) Receive(obs []core.Observation) *RxResult {
	lanes := s.Setup.Lanes()
	ts, tr := s.Setup.Cfg.Ts, s.Setup.Cfg.Tr
	th := s.Setup.Chaser.Threshold()
	hitOne := s.Setup.HitMeansOne()

	maxSym := -1
	symOf := func(wall uint64) int {
		// A sweep's decode completes at wall; the state it read was
		// set during the preceding sampling window, so attribute it
		// half a period back.
		if wall < tr/2 {
			return 0
		}
		return int((wall - tr/2) / ts)
	}
	for _, o := range obs {
		if sym := symOf(o.Wall); sym > maxSym {
			maxSym = sym
		}
	}
	res := &RxResult{Symbols: maxSym + 1}
	if maxSym < 0 {
		return res
	}

	ones := make([]int, (maxSym+1)*lanes)
	total := make([]int, (maxSym+1)*lanes)
	for i, o := range obs {
		k := symOf(o.Wall)*lanes + i%lanes
		total[k]++
		ones[k] += int(core.ClassifyBit(o.Latency, th, hitOne))
	}
	bits := make([]byte, (maxSym+1)*lanes)
	for sym := 0; sym <= maxSym; sym++ {
		empty := true
		for lane := 0; lane < lanes; lane++ {
			i := sym*lanes + lane
			if total[i] > 0 {
				empty = false
				// Strict majority: a transmitted 1 is reinforced by
				// every 31-cycle sender encode-loop iteration, so all
				// of its sweeps read fast; a spurious fast read from
				// replacement-state drift is an isolated single-sweep
				// event. Ties therefore resolve to 0.
				if 2*ones[i] > total[i] {
					bits[i] = 1
				}
			}
		}
		if empty {
			res.EmptySymbols++
		}
	}
	res.Bits = bits
	res.ScanResult = ScanFrames(bits, s.Cfg.FramePayload, s.Cfg.Codec)
	return res
}

// TransferResult is the end-to-end outcome of moving one payload.
type TransferResult struct {
	Sent, Received []byte
	// FramesSent and FramesOK count wire frames and the distinct
	// in-range frames recovered with a valid CRC.
	FramesSent, FramesOK int
	// FrameErrorRate is 1 - FramesOK/FramesSent.
	FrameErrorRate float64
	// ByteErrors counts positions where Received differs from Sent —
	// residual errors after ECC, CRC and reassembly.
	ByteErrors int
	// ElapsedCycles is the simulated wall time of the whole transfer.
	ElapsedCycles uint64
	// GoodputBitsPerCycle is correctly delivered payload bits per
	// simulated cycle; GoodputBps scales it by the profile's clock.
	GoodputBitsPerCycle float64
	GoodputBps          float64
	// Rx keeps the receiver-side detail (sync hits, CRC failures,
	// empty symbols).
	Rx *RxResult
}

// Transfer sends payload end to end and scores the result against the
// ground truth.
func (s *Stream) Transfer(payload []byte) *TransferResult {
	tx := s.Send(payload)
	rx := s.Receive(tx.Obs)

	got := Reassemble(rx.Frames, s.Cfg.FramePayload, len(payload))
	res := &TransferResult{
		Sent: payload, Received: got,
		FramesSent:    tx.Frames,
		ElapsedCycles: tx.Elapsed,
		Rx:            rx,
	}
	seen := make(map[int]bool)
	for _, f := range rx.Frames {
		if f.Seq < tx.Frames && !seen[f.Seq] {
			seen[f.Seq] = true
			res.FramesOK++
		}
	}
	if tx.Frames > 0 {
		res.FrameErrorRate = 1 - float64(res.FramesOK)/float64(tx.Frames)
	}
	for i := range payload {
		if got[i] != payload[i] {
			res.ByteErrors++
		}
	}
	if tx.Elapsed > 0 {
		okBits := 8 * (len(payload) - res.ByteErrors)
		res.GoodputBitsPerCycle = float64(okBits) / float64(tx.Elapsed)
		res.GoodputBps = float64(okBits) / s.Setup.Hier.Profile().CyclesToSeconds(float64(tx.Elapsed))
	}
	return res
}

// String summarizes a transfer for logs and the CLI.
func (r *TransferResult) String() string {
	return fmt.Sprintf("%d/%d frames, FER %.1f%%, %d byte errors, goodput %.1f Kbps",
		r.FramesOK, r.FramesSent, 100*r.FrameErrorRate, r.ByteErrors, r.GoodputBps/1000)
}
