package flit

import (
	"strconv"
	"testing"
)

// crcSink keeps each benchmarked CRC16 result live, so the compiler
// cannot drop the checksum as dead code if it inlines the call.
var crcSink uint16

// BenchmarkPoolEncode64B measures cacheline-packet encoding (2 flits)
// on the send path's pooled encoder, flits recycled every iteration.
func BenchmarkPoolEncode64B(b *testing.B) {
	pl := NewPool(Mode68)
	p := &Packet{Chan: ChMem, Op: OpMemWr, Src: 1, Dst: 2, Size: 64,
		Data: make([]byte, 64)}
	buf := make([]*Flit, 0, 2)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = pl.Encode(p, 0, buf[:0]); err != nil {
			b.Fatal(err)
		}
		for _, f := range buf {
			pl.Release(f)
		}
	}
}

// BenchmarkPoolDecode512B measures max-payload packet reassembly + CRC
// on the receive path's pooled decoder.
func BenchmarkPoolDecode512B(b *testing.B) {
	pl := NewPool(Mode68)
	p := &Packet{Chan: ChIO, Op: OpIOWr, Src: 1, Dst: 2, Size: 512,
		Data: make([]byte, 512)}
	flits, err := pl.Encode(p, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Decode(flits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRC16 measures the per-flit checksum at each mode's payload
// size: 64B (Mode68) and 248B (Mode256).
func BenchmarkCRC16(b *testing.B) {
	for _, m := range []Mode{Mode68, Mode256} {
		buf := make([]byte, m.PayloadBytes())
		for i := range buf {
			buf[i] = byte(i*7 + 3)
		}
		b.Run(strconv.Itoa(len(buf))+"B", func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				crcSink = CRC16(buf)
			}
		})
	}
}
