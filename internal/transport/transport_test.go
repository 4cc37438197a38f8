package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/transport/codec"
)

func allCodecs() []codec.Codec {
	return []codec.Codec{codec.Identity{}, codec.Repetition{K: 3}, codec.Hamming74{}}
}

// --- frame layer (no channel) ---

func TestFrameRoundTripClean(t *testing.T) {
	r := rng.New(1)
	for _, c := range allCodecs() {
		for _, n := range []int{1, 31, 32, 33, 100} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(r.Uint64())
			}
			bits := EncodeFrames(payload, 32, c)
			frames := (n + 31) / 32
			if len(bits) != frames*WireBits(32, c) {
				t.Fatalf("%s n=%d: %d wire bits, want %d frames x %d",
					c.Name(), n, len(bits), frames, WireBits(32, c))
			}
			res := ScanFrames(bits, 32, c)
			if len(res.Frames) != frames || res.CRCFailures != 0 {
				t.Fatalf("%s n=%d: scanned %d frames (%d CRC failures), want %d",
					c.Name(), n, len(res.Frames), res.CRCFailures, frames)
			}
			got := Reassemble(res.Frames, 32, n)
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s n=%d: reassembled payload differs", c.Name(), n)
			}
		}
	}
}

// The scanner must find frames at any bit offset (lane striping plus
// lead-in symbols shift frame starts arbitrarily).
func TestScanFindsFramesAtAnyOffset(t *testing.T) {
	payload := []byte("stream me please")
	bits := EncodeFrames(payload, 32, codec.Identity{})
	for off := 0; off < 9; off++ {
		shifted := append(make([]byte, off), bits...)
		shifted = append(shifted, make([]byte, 5)...)
		res := ScanFrames(shifted, 32, codec.Identity{})
		if len(res.Frames) != 1 {
			t.Fatalf("offset %d: %d frames", off, len(res.Frames))
		}
		if got := Reassemble(res.Frames, 32, len(payload)); !bytes.Equal(got, payload) {
			t.Fatalf("offset %d: payload differs", off)
		}
	}
}

// A single flipped wire bit anywhere in a Hamming-coded frame must not
// cost the frame; under identity the CRC must reject the corruption
// rather than deliver a wrong payload.
func TestSingleWireFlip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	t.Run("hamming corrects", func(t *testing.T) {
		bits := EncodeFrames(payload, 8, codec.Hamming74{})
		for pos := SyncBits; pos < len(bits); pos++ {
			corr := append([]byte(nil), bits...)
			corr[pos] ^= 1
			res := ScanFrames(corr, 8, codec.Hamming74{})
			if len(res.Frames) != 1 || !bytes.Equal(res.Frames[0].Payload, payload) {
				t.Fatalf("flip at %d not corrected", pos)
			}
		}
	})
	t.Run("sync tolerates one flip", func(t *testing.T) {
		bits := EncodeFrames(payload, 8, codec.Identity{})
		for pos := 0; pos < SyncBits; pos++ {
			corr := append([]byte(nil), bits...)
			corr[pos] ^= 1
			res := ScanFrames(corr, 8, codec.Identity{})
			if len(res.Frames) != 1 {
				t.Fatalf("sync flip at %d lost the frame", pos)
			}
		}
	})
	t.Run("identity CRC rejects", func(t *testing.T) {
		bits := EncodeFrames(payload, 8, codec.Identity{})
		for pos := SyncBits; pos < len(bits); pos++ {
			corr := append([]byte(nil), bits...)
			corr[pos] ^= 1
			res := ScanFrames(corr, 8, codec.Identity{})
			for _, f := range res.Frames {
				if f.Seq == 0 && !bytes.Equal(f.Payload, payload) {
					t.Fatalf("flip at %d delivered a corrupt frame", pos)
				}
			}
			if len(res.Frames) == 1 {
				t.Fatalf("flip at %d: identity frame survived without ECC", pos)
			}
		}
	})
}

func TestReassembleMissingAndDuplicate(t *testing.T) {
	frames := []RxFrame{
		{Seq: 2, Payload: []byte("CCCC")},
		{Seq: 0, Payload: []byte("AAAA")},
		{Seq: 0, Payload: []byte("XXXX")}, // duplicate: first wins
		{Seq: 9, Payload: []byte("ZZZZ")}, // out of range: dropped
	}
	got := Reassemble(frames, 4, 12)
	want := []byte("AAAA\x00\x00\x00\x00CCCC")
	if !bytes.Equal(got, want) {
		t.Fatalf("reassembled %q, want %q", got, want)
	}
}

func TestEncodeFramesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero frame payload": func() { EncodeFrames([]byte{1}, 0, codec.Identity{}) },
		"too many frames":    func() { EncodeFrames(make([]byte, 257), 1, codec.Identity{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCRC16KnownAnswer(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("crc16 check value %#04x, want 0x29B1", got)
	}
}

func TestBitByteHelpers(t *testing.T) {
	bs := []byte{0xA5, 0x01}
	bits := bytesToBits(bs)
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(bits, want) {
		t.Fatalf("bytesToBits = %v", bits)
	}
	if got := bitsToBytes(bits); !bytes.Equal(got, bs) {
		t.Fatalf("bitsToBytes = %v", got)
	}
	// Trailing partial byte drops.
	if got := bitsToBytes(bits[:10]); !bytes.Equal(got, bs[:1]) {
		t.Fatalf("partial bitsToBytes = %v", got)
	}
}

// FuzzScanFrames hardens the receiver's frame scanner against arbitrary
// bit streams: it must never panic, and every frame it accepts must
// respect the wire invariants (payload within the frame size, sequence
// within the one-byte space).
func FuzzScanFrames(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytesToBits([]byte("some random stream bytes")), uint8(1))
	f.Add(EncodeFrames([]byte("seed corpus payload"), 8, codec.Hamming74{}), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, which uint8) {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		c := allCodecs()[int(which)%3]
		res := ScanFrames(bits, 8, c)
		for _, fr := range res.Frames {
			if fr.Seq < 0 || fr.Seq > 255 {
				t.Fatalf("frame seq %d out of range", fr.Seq)
			}
			if len(fr.Payload) > 8 {
				t.Fatalf("frame payload %d bytes exceeds frame size", len(fr.Payload))
			}
		}
		if res.SyncHits < len(res.Frames)+res.CRCFailures {
			t.Fatalf("accounting: %d sync hits < %d frames + %d CRC failures",
				res.SyncHits, len(res.Frames), res.CRCFailures)
		}
	})
}

// --- end to end over the simulated channel ---

func streamCfg(noise int) Config {
	return Config{
		Channel: core.Config{
			Algorithm: core.Alg1SharedMemory, Mode: sched.SMT,
			NoiseThreads: noise, NoisePeriod: 20_000,
		},
	}
}

func TestTransferCleanChannel(t *testing.T) {
	r := rng.New(33)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	for _, c := range allCodecs() {
		cfg := streamCfg(0)
		cfg.Codec = c
		cfg.Channel.Seed = 100
		s := New(cfg)
		res := s.Transfer(payload)
		if res.ByteErrors != 0 || res.FrameErrorRate != 0 {
			t.Errorf("%s on a clean channel: %v", c.Name(), res)
		}
		if !bytes.Equal(res.Received, payload) {
			t.Errorf("%s: received payload differs", c.Name())
		}
		if res.GoodputBps <= 0 {
			t.Errorf("%s: goodput %v", c.Name(), res.GoodputBps)
		}
	}
}

// More lanes must not break the transfer and must finish in fewer
// symbols (parallel goodput).
func TestTransferLaneScaling(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	elapsed := map[int]uint64{}
	for _, lanes := range []int{1, 4} {
		cfg := streamCfg(0)
		cfg.Lanes = DefaultLanes(lanes)
		cfg.Channel.Seed = 7
		s := New(cfg)
		res := s.Transfer(payload)
		if res.ByteErrors != 0 {
			t.Fatalf("lanes=%d: %d byte errors", lanes, res.ByteErrors)
		}
		elapsed[lanes] = res.ElapsedCycles
	}
	if elapsed[4]*2 >= elapsed[1] {
		t.Errorf("4 lanes took %d cycles vs %d for 1; expected ~4x speedup",
			elapsed[4], elapsed[1])
	}
}

// DefaultLanes must honour its contract for every feasible n: distinct
// sets, never set 0 or the reserved chase set 63.
func TestDefaultLanesContract(t *testing.T) {
	for _, n := range []int{1, 4, 10, 11, 12, 62} {
		lanes := DefaultLanes(n)
		if len(lanes) != n {
			t.Fatalf("DefaultLanes(%d) returned %d lanes", n, len(lanes))
		}
		seen := map[int]bool{}
		for _, set := range lanes {
			if set <= 0 || set >= 63 {
				t.Fatalf("DefaultLanes(%d) includes unusable set %d", n, set)
			}
			if seen[set] {
				t.Fatalf("DefaultLanes(%d) repeats set %d", n, set)
			}
			seen[set] = true
		}
	}
	// 11+ lanes must build a working multi-set channel, not panic.
	cfg := streamCfg(0)
	cfg.Lanes = DefaultLanes(11)
	cfg.Channel.Seed = 9
	if s := New(cfg); s.Setup.Lanes() != 11 {
		t.Fatalf("11-lane stream has %d lanes", s.Setup.Lanes())
	}
	defer func() {
		if recover() == nil {
			t.Error("DefaultLanes(63) did not panic")
		}
	}()
	DefaultLanes(63)
}

func TestMeasureCapacityDeterministic(t *testing.T) {
	a := MeasureCapacity(streamCfg(2), 48, 42)
	b := MeasureCapacity(streamCfg(2), 48, 42)
	if a != b {
		t.Fatalf("capacity point not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Codec != "none" || a.Lanes != 4 || a.NoiseThreads != 2 {
		t.Fatalf("capacity point identity %+v", a)
	}
}
