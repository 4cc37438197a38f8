// Package transport is the streaming layer on top of the LRU covert
// channel: it turns arbitrary []byte payloads into framed, error-coded
// bit streams striped across multi-set channel lanes, and recovers them
// from the receiver's raw latency sweeps.
//
// The paper's channel (Algorithm 3) moves loose bits; Section VII's
// headline transfer rates implicitly assume a byte transport on top.
// This package supplies it:
//
//	payload -> frames -> ECC (codec) -> lane striping -> core.Setup lanes
//	sweeps  -> per-symbol majority vote -> de-striping -> sync hunt
//	        -> ECC decode -> CRC check -> reassembly
//
// Wire format of one frame (bit-level, MSB first within bytes):
//
//	+------------+-----------------------------------------------+
//	| SYNC 16b   |  codec.Encode( seq | len | payload | CRC-16 )  |
//	| (uncoded)  |   1B    1B     F bytes      2B                 |
//	+------------+-----------------------------------------------+
//
// The sync word is sent uncoded so the receiver can locate frames
// before it can decode them; it is matched with a 1-bit tolerance, and
// false matches are rejected by the CRC. Every frame carries exactly F
// payload bytes on the wire (the last frame zero-padded, its true
// length in the len field), so frames have a constant wire size and the
// scanner can skip a whole frame after each accepted one.
package transport
