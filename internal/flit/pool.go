package flit

import "fmt"

// Pool recycles Flit objects and their payload buffers of one flit
// mode. The link layer keeps one per mode per simulation engine, shared
// by every link on it (link.home). The engine fires one event at a time,
// so the pool is deliberately a plain free list — no sync.Pool, whose
// scheduler-dependent reuse order would leak nondeterminism into
// allocation patterns (and whose per-P caches defeat the engine's
// single-threaded locality anyway). A flit stays with the pool that
// minted it: releasing it into another pool panics.
//
// Ownership is reference-counted because one flit can be held by two
// parties at once in retry mode: the sender's replay buffer and the
// receiver's reassembly queue (or the switch holding the received
// train). Every holder calls Retain when it files the flit and Release
// when it lets go; the last Release recycles the flit. Code that never
// pools (tests) can ignore refcounts entirely — Release on a flit that
// never came from a pool is a bug and panics.
type Pool struct {
	mode Mode
	free *Flit  // recycled flits, LIFO for cache warmth
	raw  []byte // Encode scratch: header + payload staging
	live int    // flits handed out and not yet back (see Live)
}

// NewPool returns an empty pool producing flits of the given mode.
func NewPool(m Mode) *Pool {
	return &Pool{mode: m}
}

// Mode reports the flit mode this pool encodes for.
func (pl *Pool) Mode() Mode { return pl.mode }

// Live reports the flits the pool has handed out and not had back: zero
// once every holder has let go of every flit, so a nonzero count when
// the simulation has drained is a leak.
func (pl *Pool) Live() int { return pl.live }

// Get returns a flit with refs=1 and a payload buffer of PayloadBytes
// capacity. The payload contents are stale; callers must overwrite (the
// pool's Encode does).
func (pl *Pool) Get() *Flit {
	f := pl.free
	if f == nil {
		f = &Flit{Payload: make([]byte, pl.mode.PayloadBytes()), home: pl}
	} else {
		pl.free = f.next
		f.next = nil
	}
	pl.live++
	f.refs = 1
	f.Seq = 0
	f.Last = false
	f.CRC = 0
	return f
}

// poolFree marks a flit that currently sits in its pool's free list.
// Using a sentinel instead of 0 lets Release and Retain distinguish "a
// stale holder touched a recycled flit" (a use-after-free that would
// otherwise double-insert the flit and silently cycle the free list)
// from an ordinary over-release, and panic for both — at the first
// wrong touch, not after the corruption has propagated.
const poolFree = int32(-1)

// Retain adds a holder to a pooled flit. A no-op on non-pooled flits
// (refs stays 0) so shared helpers can call it unconditionally.
// Retaining a flit that is sitting in a free list panics: some holder
// kept the pointer past its last Release.
func (f *Flit) Retain() {
	if f.refs == poolFree {
		panic(fmt.Sprintf("flit: retain of a recycled flit seq=%d (use after free)", f.Seq))
	}
	if f.refs > 0 {
		f.refs++
	}
}

// Release drops one holder; the last holder's Release returns the flit
// to the pool. Releasing a flit that was never pooled, more times than
// it was retained, after it has already been recycled, or into a pool
// other than the one that minted it panics — all are ownership bugs
// that would otherwise surface as silent payload or free-list
// corruption much later.
func (pl *Pool) Release(f *Flit) {
	if f.refs == poolFree {
		panic(fmt.Sprintf("flit: double release of flit seq=%d (already in the pool free list)", f.Seq))
	}
	if f.home != nil && f.home != pl {
		panic(fmt.Sprintf("flit: flit seq=%d released into a foreign pool (minted by a different link side)", f.Seq))
	}
	f.refs--
	if f.refs > 0 {
		return
	}
	if f.refs < 0 {
		panic(fmt.Sprintf("flit: over-released flit seq=%d (refs=%d)", f.Seq, f.refs))
	}
	f.refs = poolFree
	f.next = pl.free
	pl.free = f
	pl.live--
}

// Encode splits a packet into flits drawn from the pool (each refs=1,
// owned by the caller), numbered from firstSeq, and appends them to
// dst, reusing the pool's staging buffer. Packets with nil Data get a
// zero payload of p.Size bytes (timing-only models); packets with Data
// carry it verbatim.
func (pl *Pool) Encode(p *Packet, firstSeq uint32, dst []*Flit) ([]*Flit, error) {
	if p.Src > MaxPortID || p.Dst > MaxPortID {
		return dst, ErrBadPortID
	}
	if p.Size > MaxPayload {
		return dst, ErrSizeBounds
	}
	if p.Data != nil && uint32(len(p.Data)) != p.Size {
		return dst, fmt.Errorf("flit: data length %d != size %d", len(p.Data), p.Size)
	}
	total := headerSize + int(p.Size)
	if cap(pl.raw) < total {
		pl.raw = make([]byte, total)
	}
	raw := pl.raw[:total]
	EncodeHeader(p, raw[:headerSize])
	if p.Data != nil {
		copy(raw[headerSize:], p.Data)
	} else {
		clear(raw[headerSize:])
	}
	per := pl.mode.PayloadBytes()
	n := pl.mode.FlitsFor(p.Size)
	for i := 0; i < n; i++ {
		f := pl.Get()
		chunk := f.Payload[:per]
		lo := i * per
		hi := lo + per
		if hi > total {
			hi = total
		}
		copy(chunk, raw[lo:hi])
		clear(chunk[hi-lo:]) // pooled buffer: pad bytes may be stale
		f.Seq = firstSeq + uint32(i)
		f.Last = i == n-1
		f.CRC = CRC16(chunk)
		dst = append(dst, f)
	}
	return dst, nil
}

// PeekHeader checks a received train as Decode does — every flit's CRC,
// the header's bounds, and the flit count its size implies — and
// returns the header's routing fields, read in place from the first
// flit. It copies and allocates nothing, and its errors are Decode's.
// Every flit carries a full PayloadBytes() payload, so the header flit
// holds the whole header.
func (pl *Pool) PeekHeader(flits []*Flit) (Header, error) {
	if len(flits) == 0 {
		return Header{}, ErrTruncated
	}
	for _, f := range flits {
		if CRC16(f.Payload) != f.CRC {
			return Header{}, ErrCRC
		}
	}
	h, err := parseHeader(flits[0].Payload)
	if err != nil {
		return Header{}, err
	}
	if pl.mode.FlitsFor(h.Size) != len(flits) {
		return Header{}, ErrTruncated
	}
	return h, nil
}

// inlineLine is the largest payload Decode stores inside the packet's
// own allocation: one cache line, the payload of every CXL.mem data
// message.
const inlineLine = 64

// linePacket is a decoded packet together with the storage of a payload
// of up to inlineLine bytes.
type linePacket struct {
	Packet
	line [inlineLine]byte
}

// Decode reassembles a packet from its flits after PeekHeader's checks,
// copying the payload straight from the flits into the packet's Data.
// The packet is one new object: a bare Packet when it carries no
// payload, the Packet and its Data together when the payload is at most
// 64 bytes, and a Packet plus a Data slice of its own beyond that. It
// escapes to the transaction layer and beyond, so it cannot alias flit
// buffers. The input flits are NOT released; the caller owns them and
// releases after a successful decode.
func (pl *Pool) Decode(flits []*Flit) (*Packet, error) {
	h, err := pl.PeekHeader(flits)
	if err != nil {
		return nil, err
	}
	var p *Packet
	switch {
	case h.Size == 0:
		p = new(Packet)
	case h.Size <= inlineLine:
		lp := new(linePacket)
		p = &lp.Packet
		p.Data = lp.line[:h.Size:h.Size]
	default:
		p = &Packet{Data: make([]byte, h.Size)}
	}
	h.fill(p, flits[0].Payload)
	if h.Size > 0 {
		n := copy(p.Data, flits[0].Payload[headerSize:])
		for _, f := range flits[1:] {
			n += copy(p.Data[n:], f.Payload)
		}
	}
	return p, nil
}

// Forward appends to dst the copy of a received train that a switch
// sends on, drawn from this pool and numbered from firstSeq. Payload
// bytes, Last and the CRC of every flit but the header flit are copied
// unchanged; the header flit gets hops in its Hops byte and a CRC
// recomputed over its new bytes. The copies are refs=1, owned by the
// caller; the train itself is neither changed nor released. Every flit
// of the train must be of this pool's mode.
func (pl *Pool) Forward(train []*Flit, hops uint8, firstSeq uint32, dst []*Flit) []*Flit {
	per := pl.mode.PayloadBytes()
	for i, src := range train {
		if len(src.Payload) != per {
			panic(fmt.Sprintf("flit: forwarding a %d-byte flit payload through a %v pool", len(src.Payload), pl.mode))
		}
		f := pl.Get()
		copy(f.Payload, src.Payload)
		f.Seq = firstSeq + uint32(i)
		f.Last = src.Last
		f.CRC = src.CRC
		if i == 0 {
			f.Payload[hopsOffset] = hops
			f.CRC = CRC16(f.Payload)
		}
		dst = append(dst, f)
	}
	return dst
}
