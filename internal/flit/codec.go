package flit

import (
	"encoding/binary"
	"errors"
)

// Mode selects the flit format. CXL Flex Bus supports a 68-byte flit
// (CXL 1.x/2.0) and a 256-byte flit (CXL 3.0, PBR) — §2.1.
type Mode uint8

const (
	// Mode68 is the 68B flit: 2B protocol ID, 64B slot payload, 2B CRC.
	Mode68 Mode = iota
	// Mode256 is the 256B flit: 2B protocol ID, 248B payload, 6B
	// CRC/FEC trailer.
	Mode256
)

// String names the mode.
func (m Mode) String() string {
	if m == Mode68 {
		return "68B"
	}
	return "256B"
}

// WireBytes is the total size of one flit on the wire.
func (m Mode) WireBytes() int {
	if m == Mode68 {
		return 68
	}
	return 256
}

// PayloadBytes is the number of packet bytes one flit carries.
func (m Mode) PayloadBytes() int {
	if m == Mode68 {
		return 64
	}
	return 248
}

// headerSize is the fixed encoded size of a packet header. Layout:
//
//	[0]   channel
//	[1]   op
//	[2:4] src (12-bit PBR ID)
//	[4:6] dst
//	[6:8] tag
//	[8:16] addr
//	[16:20] size
//	[20]  hops
//	[21:24] reqlen (24-bit requested read length)
const headerSize = 24

// hopsOffset is the header byte a switch rewrites when it forwards a
// train.
const hopsOffset = 20

// FlitsFor reports how many flits are needed to carry a packet with the
// given payload size in this mode.
func (m Mode) FlitsFor(payloadBytes uint32) int {
	total := headerSize + int(payloadBytes)
	per := m.PayloadBytes()
	return (total + per - 1) / per
}

// WireBytesFor reports the total wire bytes for a packet: flit count
// times flit wire size. This is what the physical layer serializes.
func (m Mode) WireBytesFor(payloadBytes uint32) int {
	return m.FlitsFor(payloadBytes) * m.WireBytes()
}

// Flit is one encoded flit as it travels the wire.
type Flit struct {
	Seq     uint32 // link-level sequence number (for replay)
	Last    bool   // final flit of its packet
	Payload []byte // PayloadBytes() of packet bytes (zero-padded)
	CRC     uint16 // CRC-16/CCITT over Payload

	// refs and next belong to the owning Pool: refs counts the holders
	// (replay buffer, rx assembly) that must Release the flit before it
	// recycles; next links the pool free list. While a flit sits in the
	// free list refs holds the poolFree sentinel, so a stale holder's
	// Release or Retain panics immediately instead of double-inserting
	// the flit (a silent free-list cycle). home remembers the pool that
	// minted the flit: with per-side pools on cross-shard links, a flit
	// released into a foreign pool would corrupt both free lists. Flits
	// built by the plain Encode path leave all three zero and are
	// garbage-collected as before.
	refs int32
	next *Flit
	home *Pool
}

// errors returned by the codec.
var (
	ErrCRC        = errors.New("flit: CRC mismatch")
	ErrTruncated  = errors.New("flit: truncated packet")
	ErrBadPortID  = errors.New("flit: port ID exceeds 12 bits")
	ErrSizeBounds = errors.New("flit: payload size out of bounds")
)

// MaxPayload bounds a single packet's payload (a sanity limit well above
// the 16KB bulk writes the paper's §3 experiments use).
const MaxPayload = 1 << 20

// EncodeHeader writes the packet header into buf (len >= headerSize).
func EncodeHeader(p *Packet, buf []byte) {
	buf[0] = byte(p.Chan)
	buf[1] = byte(p.Op)
	binary.LittleEndian.PutUint16(buf[2:4], uint16(p.Src))
	binary.LittleEndian.PutUint16(buf[4:6], uint16(p.Dst))
	binary.LittleEndian.PutUint16(buf[6:8], p.Tag)
	binary.LittleEndian.PutUint64(buf[8:16], p.Addr)
	binary.LittleEndian.PutUint32(buf[16:20], p.Size)
	buf[20] = p.Hops
	buf[21] = byte(p.ReqLen)
	buf[22] = byte(p.ReqLen >> 8)
	buf[23] = byte(p.ReqLen >> 16)
}

// parseHeader reads the routing fields of a packet header from buf and
// runs the bounds checks every decoder shares: the header's length, the
// 12-bit port IDs and the payload size.
func parseHeader(buf []byte) (Header, error) {
	if len(buf) < headerSize {
		return Header{}, ErrTruncated
	}
	h := Header{
		Chan: Channel(buf[0]),
		Op:   Op(buf[1]),
		Src:  PortID(binary.LittleEndian.Uint16(buf[2:4])),
		Dst:  PortID(binary.LittleEndian.Uint16(buf[4:6])),
		Tag:  binary.LittleEndian.Uint16(buf[6:8]),
		Size: binary.LittleEndian.Uint32(buf[16:20]),
		Hops: buf[hopsOffset],
	}
	if h.Src > MaxPortID || h.Dst > MaxPortID {
		return Header{}, ErrBadPortID
	}
	if h.Size > MaxPayload {
		return Header{}, ErrSizeBounds
	}
	return h, nil
}

// fill writes the packet header h was parsed from into p: h's fields
// plus the two only endpoints read, Addr and ReqLen.
func (h Header) fill(p *Packet, buf []byte) {
	p.Chan, p.Op, p.Src, p.Dst, p.Tag, p.Size, p.Hops = h.Chan, h.Op, h.Src, h.Dst, h.Tag, h.Size, h.Hops
	p.Addr = binary.LittleEndian.Uint64(buf[8:16])
	p.ReqLen = uint32(buf[21]) | uint32(buf[22])<<8 | uint32(buf[23])<<16
}

// Corrupt flips one bit of the flit payload (for link-error injection)
// without updating the CRC, so a decoder will detect it.
func (f *Flit) Corrupt(bit int) {
	idx := (bit / 8) % len(f.Payload)
	f.Payload[idx] ^= 1 << (bit % 8)
}

// crcTable holds the slicing-by-16 tables for CRC-16/CCITT-FALSE (poly
// 0x1021, 8 KiB in all). crcTable[0] is the classic byte-at-a-time
// table; crcTable[k][b] is the CRC contribution of byte b followed by k
// zero bytes, so sixteen independent lookups fold sixteen bytes at once.
var crcTable [16][256]uint16

func init() {
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for j := 0; j < 8; j++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		crcTable[0][i] = crc
	}
	for k := 1; k < len(crcTable); k++ {
		for i := 0; i < 256; i++ {
			prev := crcTable[k-1][i]
			crcTable[k][i] = prev<<8 ^ crcTable[0][prev>>8]
		}
	}
}

// CRC16 computes CRC-16/CCITT-FALSE over data: sixteen bytes per step
// through the slicing tables, then a byte loop for the tail. The running
// CRC folds into the first two bytes of each step (the register is two
// bytes wide and the CRC is linear), leaving each byte's lookup
// independent of the others.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	t := &crcTable
	for len(data) >= 16 {
		d := data[:16:16]
		crc = t[15][d[0]^byte(crc>>8)] ^ t[14][d[1]^byte(crc)] ^
			t[13][d[2]] ^ t[12][d[3]] ^ t[11][d[4]] ^ t[10][d[5]] ^
			t[9][d[6]] ^ t[8][d[7]] ^ t[7][d[8]] ^ t[6][d[9]] ^
			t[5][d[10]] ^ t[4][d[11]] ^ t[3][d[12]] ^ t[2][d[13]] ^
			t[1][d[14]] ^ t[0][d[15]]
		data = data[16:]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>8)^b]
	}
	return crc
}
