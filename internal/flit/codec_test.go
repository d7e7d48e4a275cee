package flit

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Encode, Decode and DecodeHeader are the unpooled codec: every flit
// and every buffer freshly allocated, one straight pass each way. They
// are the oracle the pooled codec (Pool.Encode, Pool.Decode,
// Pool.PeekHeader and Pool.Forward) is checked against here and in
// FuzzDecode.

// Encode splits a packet into flits, starting at link sequence number
// firstSeq. Packets with nil Data get a zero payload of p.Size bytes;
// packets with Data carry it verbatim.
func Encode(m Mode, p *Packet, firstSeq uint32) ([]*Flit, error) {
	if p.Src > MaxPortID || p.Dst > MaxPortID {
		return nil, ErrBadPortID
	}
	if p.Size > MaxPayload {
		return nil, ErrSizeBounds
	}
	if p.Data != nil && uint32(len(p.Data)) != p.Size {
		return nil, fmt.Errorf("flit: data length %d != size %d", len(p.Data), p.Size)
	}
	total := headerSize + int(p.Size)
	raw := make([]byte, total)
	EncodeHeader(p, raw[:headerSize])
	if p.Data != nil {
		copy(raw[headerSize:], p.Data)
	}
	per := m.PayloadBytes()
	n := m.FlitsFor(p.Size)
	flits := make([]*Flit, 0, n)
	for i := 0; i < n; i++ {
		chunk := make([]byte, per)
		lo := i * per
		hi := lo + per
		if hi > total {
			hi = total
		}
		copy(chunk, raw[lo:hi])
		f := &Flit{
			Seq:     firstSeq + uint32(i),
			Last:    i == n-1,
			Payload: chunk,
		}
		f.CRC = CRC16(chunk)
		flits = append(flits, f)
	}
	return flits, nil
}

// DecodeHeader parses a packet header from buf.
func DecodeHeader(buf []byte) (*Packet, error) {
	h, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	p := new(Packet)
	h.fill(p, buf)
	return p, nil
}

// Decode reassembles a packet from its flits, verifying every CRC.
func Decode(m Mode, flits []*Flit) (*Packet, error) {
	if len(flits) == 0 {
		return nil, ErrTruncated
	}
	raw := make([]byte, 0, len(flits)*m.PayloadBytes())
	for _, f := range flits {
		if CRC16(f.Payload) != f.CRC {
			return nil, ErrCRC
		}
		raw = append(raw, f.Payload...)
	}
	p, err := DecodeHeader(raw)
	if err != nil {
		return nil, err
	}
	need := headerSize + int(p.Size)
	if len(raw) < need {
		return nil, ErrTruncated
	}
	if p.Size > 0 {
		p.Data = append([]byte(nil), raw[headerSize:need]...)
	}
	if m.FlitsFor(p.Size) != len(flits) {
		return nil, ErrTruncated
	}
	return p, nil
}

func TestModeGeometry(t *testing.T) {
	if Mode68.WireBytes() != 68 || Mode68.PayloadBytes() != 64 {
		t.Fatal("Mode68 geometry wrong")
	}
	if Mode256.WireBytes() != 256 || Mode256.PayloadBytes() != 248 {
		t.Fatal("Mode256 geometry wrong")
	}
}

func TestFlitsForSmallPacket(t *testing.T) {
	// Header (24B) + 64B cacheline = 88B -> 2 flits in 68B mode, 1 in 256B.
	if got := Mode68.FlitsFor(64); got != 2 {
		t.Fatalf("Mode68.FlitsFor(64) = %d, want 2", got)
	}
	if got := Mode256.FlitsFor(64); got != 1 {
		t.Fatalf("Mode256.FlitsFor(64) = %d, want 1", got)
	}
	// Dataless ack: header only -> 1 flit either mode.
	if got := Mode68.FlitsFor(0); got != 1 {
		t.Fatalf("Mode68.FlitsFor(0) = %d, want 1", got)
	}
}

func TestFlitsForBulk(t *testing.T) {
	// 16KB bulk write (the §3 interference workload).
	if got := Mode68.FlitsFor(16384); got != (24+16384+63)/64 {
		t.Fatalf("Mode68.FlitsFor(16K) = %d", got)
	}
	if got := Mode256.WireBytesFor(16384); got != Mode256.FlitsFor(16384)*256 {
		t.Fatal("WireBytesFor inconsistent with FlitsFor")
	}
}

func roundTrip(t *testing.T, m Mode, p *Packet) *Packet {
	t.Helper()
	flits, err := Encode(m, p, 100)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(flits) != m.FlitsFor(p.Size) {
		t.Fatalf("flit count %d != FlitsFor %d", len(flits), m.FlitsFor(p.Size))
	}
	for i, f := range flits {
		if f.Seq != 100+uint32(i) {
			t.Fatalf("flit %d seq = %d", i, f.Seq)
		}
		if (i == len(flits)-1) != f.Last {
			t.Fatalf("Last flag wrong at flit %d", i)
		}
	}
	q, err := Decode(m, flits)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return q
}

func TestRoundTripHeaderFields(t *testing.T) {
	p := &Packet{
		Chan: ChMem, Op: OpMemRd, Src: 0x123, Dst: 0xFFF,
		Tag: 0xBEEF, Addr: 0xDEADBEEF00, Size: 0, Hops: 3,
	}
	for _, m := range []Mode{Mode68, Mode256} {
		q := roundTrip(t, m, p)
		if q.Chan != p.Chan || q.Op != p.Op || q.Src != p.Src || q.Dst != p.Dst ||
			q.Tag != p.Tag || q.Addr != p.Addr || q.Size != p.Size || q.Hops != p.Hops {
			t.Fatalf("mode %v: round trip mismatch: %+v vs %+v", m, q, p)
		}
	}
}

func TestRoundTripPayload(t *testing.T) {
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 7)
	}
	p := &Packet{Chan: ChIO, Op: OpIOWr, Src: 1, Dst: 2, Tag: 9,
		Size: uint32(len(data)), Data: data}
	for _, m := range []Mode{Mode68, Mode256} {
		q := roundTrip(t, m, p)
		if !bytes.Equal(q.Data, data) {
			t.Fatalf("mode %v: payload corrupted", m)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(src, dst uint16, tag uint16, addr uint64, payload []byte) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		p := &Packet{
			Chan: ChMem, Op: OpMemWr,
			Src: PortID(src & 0xFFF), Dst: PortID(dst & 0xFFF),
			Tag: tag, Addr: addr,
			Size: uint32(len(payload)),
		}
		if len(payload) > 0 {
			p.Data = payload
		}
		for _, m := range []Mode{Mode68, Mode256} {
			flits, err := Encode(m, p, 0)
			if err != nil {
				return false
			}
			q, err := Decode(m, flits)
			if err != nil {
				return false
			}
			if q.Src != p.Src || q.Dst != p.Dst || q.Tag != p.Tag ||
				q.Addr != p.Addr || q.Size != p.Size {
				return false
			}
			if len(payload) > 0 && !bytes.Equal(q.Data, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	p := &Packet{Chan: ChMem, Op: OpMemWr, Src: 1, Dst: 2, Size: 64,
		Data: bytes.Repeat([]byte{0xAB}, 64)}
	flits, err := Encode(Mode68, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	flits[1].Corrupt(13)
	if _, err := Decode(Mode68, flits); err != ErrCRC {
		t.Fatalf("Decode after corruption: err = %v, want ErrCRC", err)
	}
}

func TestEncodeRejectsOversizedPortID(t *testing.T) {
	p := &Packet{Chan: ChMem, Op: OpMemRd, Src: 0x1000, Dst: 2}
	if _, err := Encode(Mode68, p, 0); err != ErrBadPortID {
		t.Fatalf("err = %v, want ErrBadPortID", err)
	}
}

func TestEncodeRejectsMismatchedData(t *testing.T) {
	p := &Packet{Chan: ChMem, Op: OpMemWr, Src: 1, Dst: 2, Size: 64,
		Data: make([]byte, 32)}
	if _, err := Encode(Mode68, p, 0); err == nil {
		t.Fatal("mismatched Data/Size not rejected")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p := &Packet{Chan: ChMem, Op: OpMemWr, Src: 1, Dst: 2, Size: 256,
		Data: make([]byte, 256)}
	flits, err := Encode(Mode68, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(Mode68, flits[:len(flits)-1]); err == nil {
		t.Fatal("truncated flit stream not rejected")
	}
	if _, err := Decode(Mode68, nil); err == nil {
		t.Fatal("empty flit stream not rejected")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %#x, want 0x29B1", got)
	}
}

// crc16Bitwise is the reference CRC-16/CCITT-FALSE: poly 0x1021, init
// 0xFFFF, one bit at a time, no tables. It pins the sliced CRC16.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16MatchesBitwise checks CRC16 against the bitwise reference at
// every length up to two Mode256 payloads plus a tail (every split
// between 16-byte steps and the byte loop), and pins the values of the
// two flit payload sizes.
func TestCRC16MatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 2*Mode256.PayloadBytes()+17)
	for i := range buf {
		buf[i] = byte(rng.Uint32())
	}
	for n := 0; n <= len(buf); n++ {
		if got, want := CRC16(buf[:n]), crc16Bitwise(buf[:n]); got != want {
			t.Fatalf("len %d: CRC16 = %#04x, bitwise = %#04x", n, got, want)
		}
	}
	for _, c := range []struct {
		m    Mode
		want uint16
	}{{Mode68, 0x8064}, {Mode256, 0x8E07}} {
		payload := make([]byte, c.m.PayloadBytes())
		for i := range payload {
			payload[i] = byte(i*7 + 3)
		}
		if got := CRC16(payload); got != c.want {
			t.Fatalf("%v payload: CRC16 = %#04x, want %#04x", c.m, got, c.want)
		}
	}
}

// FuzzCRC16 checks CRC16 against the bitwise reference on arbitrary
// bytes.
func FuzzCRC16(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("len %d: CRC16 = %#04x, bitwise = %#04x", len(data), got, want)
		}
	})
}

// FuzzDecode cuts arbitrary bytes into flits of each mode, with valid
// CRCs unless flip is non-zero (it is XORed into the last flit's). Decode,
// Pool.Decode and Pool.PeekHeader must not panic and must agree on the
// error, the packet and its header fields, and a decoded packet must
// survive Encode/Decode in both modes. A train that Pool.Encode
// reproduces byte for byte (the input's, else the decoded packet's
// re-encoding) must forward, through Pool.Forward with Hops+1, to
// exactly the flits Pool.Encode makes of the packet with Hops+1.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, flip uint16) {
		for _, m := range []Mode{Mode68, Mode256} {
			flits := rawFlits(m, raw)
			flits[len(flits)-1].CRC ^= flip
			pl := NewPool(m)
			p, err := Decode(m, flits)
			q, qerr := pl.Decode(flits)
			h, herr := pl.PeekHeader(flits)
			if err != qerr || err != herr { // all return bare sentinels
				t.Fatalf("%v: Decode err %v, Pool.Decode err %v, PeekHeader err %v", m, err, qerr, herr)
			}
			if err != nil {
				continue
			}
			if !samePacket(p, q) {
				t.Fatalf("%v: Decode %+v, Pool.Decode %+v", m, p, q)
			}
			if h != p.Header() {
				t.Fatalf("%v: PeekHeader %+v, Decode's header %+v", m, h, p.Header())
			}
			checkForward(t, pl, p, flits)
			for _, m2 := range []Mode{Mode68, Mode256} {
				fl, err := Encode(m2, p, 0)
				if err != nil {
					t.Fatalf("%v->%v: re-encode: %v", m, m2, err)
				}
				r, err := Decode(m2, fl)
				if err != nil {
					t.Fatalf("%v->%v: re-decode: %v", m, m2, err)
				}
				if !samePacket(p, r) {
					t.Fatalf("%v->%v: round trip %+v, want %+v", m, m2, r, p)
				}
			}
		}
	})
}

// checkForward forwards a train of packet p through pl with Hops+1 and
// compares the copy, flit for flit, with pl's encoding of p at Hops+1.
// The train is the received one when pl's encoding of p reproduces it
// (payload, CRC and Last), else that encoding itself.
func checkForward(t *testing.T, pl *Pool, p *Packet, received []*Flit) {
	t.Helper()
	train, err := pl.Encode(p, 0, nil)
	if err != nil {
		t.Fatalf("%v: encode %+v: %v", pl.Mode(), p, err)
	}
	if sameFlits(train, received) {
		train = received
	}
	next := *p
	next.Hops++
	want, err := pl.Encode(&next, 40, nil)
	if err != nil {
		t.Fatalf("%v: encode %+v: %v", pl.Mode(), next, err)
	}
	got := pl.Forward(train, p.Hops+1, 40, nil)
	if !sameFlits(got, want) {
		t.Fatalf("%v: forwarding %+v with hops %d differs from its encoding", pl.Mode(), p, next.Hops)
	}
	for i, f := range got {
		if f.Seq != want[i].Seq {
			t.Fatalf("%v: forwarded flit %d seq %d, want %d", pl.Mode(), i, f.Seq, want[i].Seq)
		}
	}
}

// sameFlits reports whether two trains match in payload, CRC and Last.
func sameFlits(a, b []*Flit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Last != b[i].Last || a[i].CRC != b[i].CRC || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// rawFlits cuts raw into zero-padded flits of mode m, at least one, each
// with a valid CRC.
func rawFlits(m Mode, raw []byte) []*Flit {
	per := m.PayloadBytes()
	n := max(1, (len(raw)+per-1)/per)
	flits := make([]*Flit, n)
	for i := range flits {
		payload := make([]byte, per)
		copy(payload, raw[min(i*per, len(raw)):])
		flits[i] = &Flit{Seq: uint32(i), Last: i == n-1, Payload: payload,
			CRC: CRC16(payload)}
	}
	return flits
}

func samePacket(a, b *Packet) bool {
	return a.Chan == b.Chan && a.Op == b.Op && a.Src == b.Src && a.Dst == b.Dst &&
		a.Tag == b.Tag && a.Addr == b.Addr && a.Size == b.Size &&
		a.ReqLen == b.ReqLen && a.Hops == b.Hops && bytes.Equal(a.Data, b.Data) &&
		(a.Data == nil) == (b.Data == nil)
}

// TestResponseSwapsEndpoints pins Response: the request itself becomes
// the response, with the op's channel, Src and Dst swapped, the same
// Tag and Addr, the given Size, and ReqLen, Hops and Data cleared.
func TestResponseSwapsEndpoints(t *testing.T) {
	for _, req := range []*Packet{
		{Chan: ChMem, Op: OpMemRd, Src: 5, Dst: 9, Tag: 77, Addr: 0x1000},
		{Chan: ChIO, Op: OpIOWr, Src: 5, Dst: 9, Tag: 77, Addr: 0x1000,
			Size: 4, Data: []byte{1, 2, 3, 4}, ReqLen: 4096, Hops: 3},
	} {
		resp := req.Response(OpMemRdData, 64)
		want := &Packet{Chan: ChMem, Op: OpMemRdData, Src: 9, Dst: 5, Tag: 77, Addr: 0x1000, Size: 64}
		if resp != req {
			t.Fatalf("Response returned a new packet, not its receiver")
		}
		if !samePacket(resp, want) {
			t.Fatalf("response = %+v, want %+v", resp, want)
		}
	}
}

func TestOpChannelMapping(t *testing.T) {
	cases := map[Op]Channel{
		OpMemRd: ChMem, OpMemWrAck: ChMem,
		OpSnpInv: ChCache, OpCacheWB: ChCache,
		OpIOWr: ChIO, OpCfgRd: ChIO,
		OpCtrlGrant: ChCtrl, OpCtrlCreditReserve: ChCtrl,
	}
	for op, want := range cases {
		if got := op.Channel(); got != want {
			t.Errorf("%v.Channel() = %v, want %v", op, got, want)
		}
	}
}

func TestIsRequest(t *testing.T) {
	if !OpMemRd.IsRequest() || OpMemRdData.IsRequest() {
		t.Fatal("MemRd/MemRdData request classification wrong")
	}
	if !OpCfgWr.IsRequest() || OpCfgRsp.IsRequest() {
		t.Fatal("Cfg request classification wrong")
	}
}
