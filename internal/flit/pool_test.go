package flit

import (
	"bytes"
	"testing"
)

func poolPacket(size uint32, fill byte) *Packet {
	p := &Packet{
		Chan: ChMem, Op: OpMemWr, Src: 3, Dst: 9, Tag: 77,
		Addr: 0xdead0000, Size: size,
	}
	if size > 0 {
		p.Data = bytes.Repeat([]byte{fill}, int(size))
	}
	return p
}

// TestPoolEncodeMatchesEncode: the pooled encoder must be byte-for-byte
// identical to the allocating one, for both modes and for payload sizes
// around every flit boundary.
func TestPoolEncodeMatchesEncode(t *testing.T) {
	for _, m := range []Mode{Mode68, Mode256} {
		pl := NewPool(m)
		for _, size := range []uint32{0, 1, 40, 63, 64, 65, 200, 248, 4096} {
			p := poolPacket(size, byte(size))
			want, err := Encode(m, p, 100)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pl.Encode(p, 100, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v size %d: %d flits, want %d", m, size, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || got[i].Last != want[i].Last ||
					got[i].CRC != want[i].CRC || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("%v size %d: flit %d differs", m, size, i)
				}
			}
			dec, err := pl.Decode(got)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Size != p.Size || !bytes.Equal(dec.Data, p.Data) {
				t.Fatalf("%v size %d: pooled decode round-trip mismatch", m, size)
			}
			for _, f := range got {
				pl.Release(f)
			}
		}
	}
}

// TestPoolReuseIsClean: a recycled flit carrying stale payload must not
// bleed into the next, shorter packet (pad bytes are re-zeroed).
func TestPoolReuseIsClean(t *testing.T) {
	pl := NewPool(Mode68)
	big, err := pl.Encode(poolPacket(100, 0xFF), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range big {
		pl.Release(f)
	}
	small, err := pl.Encode(poolPacket(4, 0xAA), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Encode(Mode68, poolPacket(4, 0xAA), 10)
	if !bytes.Equal(small[0].Payload, want[0].Payload) {
		t.Fatal("stale payload bytes leaked into recycled flit")
	}
	p, err := pl.Decode(small)
	if err != nil || !bytes.Equal(p.Data, []byte{0xAA, 0xAA, 0xAA, 0xAA}) {
		t.Fatalf("round-trip through recycled flits: %v %v", p, err)
	}
}

// TestPoolRefcount: two holders, two releases; the third panics.
func TestPoolRefcount(t *testing.T) {
	pl := NewPool(Mode68)
	f := pl.Get()
	f.Retain()
	pl.Release(f)
	if pl.free != nil {
		t.Fatal("flit recycled while a holder remained")
	}
	pl.Release(f)
	if pl.free != f {
		t.Fatal("flit not recycled after last release")
	}
	g := pl.Get()
	if g != f {
		t.Fatal("pool did not hand back the recycled flit")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	pl.Release(g)
	pl.Release(g)
}

// TestPoolDecodeErrors: pooled decode keeps the exact error contract of
// the allocating decoder.
func TestPoolDecodeErrors(t *testing.T) {
	pl := NewPool(Mode68)
	if _, err := pl.Decode(nil); err != ErrTruncated {
		t.Fatalf("empty: %v", err)
	}
	flits, _ := pl.Encode(poolPacket(100, 1), 0, nil)
	flits[1].Corrupt(13)
	if _, err := pl.Decode(flits); err != ErrCRC {
		t.Fatalf("corrupt: %v", err)
	}
	flits2, _ := pl.Encode(poolPacket(100, 1), 0, nil)
	if _, err := pl.Decode(flits2[:1]); err != ErrTruncated {
		t.Fatalf("missing flit: %v", err)
	}
}

// TestPoolEncodeZeroAlloc: steady-state pooled encode of a recycled
// packet allocates nothing, neither flits nor staging buffers.
func TestPoolEncodeZeroAlloc(t *testing.T) {
	pl := NewPool(Mode256)
	p := poolPacket(512, 7)
	buf := make([]*Flit, 0, 8)
	// Warm: size the scratch buffers and free list.
	for i := 0; i < 4; i++ {
		var err error
		buf, err = pl.Encode(p, 0, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range buf {
			pl.Release(f)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = pl.Encode(p, 0, buf[:0])
		for _, f := range buf {
			pl.Release(f)
		}
	}); n != 0 {
		t.Fatalf("pooled encode allocates %.1f per packet, want 0", n)
	}
}

// TestPoolDecodeOneObject pins what a decode allocates: one object for a
// packet without payload or with one of up to 64 bytes, which rides
// inside it, and a second for the payload beyond that. An inline
// payload's capacity ends at its length, so appending to it never
// writes into the rest of the line.
func TestPoolDecodeOneObject(t *testing.T) {
	for _, tc := range []struct {
		size   uint32
		allocs float64
	}{{0, 1}, {8, 1}, {64, 1}, {65, 2}, {512, 2}} {
		pl := NewPool(Mode68)
		want := poolPacket(tc.size, 0xA5)
		flits, err := pl.Encode(want, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got *Packet
		n := testing.AllocsPerRun(100, func() { got, _ = pl.Decode(flits) })
		if n != tc.allocs {
			t.Errorf("decoding a %d-byte payload allocates %.1f, want %.0f", tc.size, n, tc.allocs)
		}
		if !samePacket(got, want) || cap(got.Data) != len(got.Data) {
			t.Errorf("decoded %+v (cap %d), want %+v", got, cap(got.Data), want)
		}
	}
}

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		if s, ok := r.(string); !ok || !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("panic %v; want message containing %q", r, want)
		}
	}()
	fn()
}

// TestPoolDoubleReleasePanics: releasing a flit that is already sitting
// in the free list must fail immediately and say so. Pre-fix this
// tripped the generic over-release panic only until the next Get
// recycled the flit — after which the stale Release double-inserted it
// and silently cycled the free list.
func TestPoolDoubleReleasePanics(t *testing.T) {
	pl := NewPool(Mode68)
	f := pl.Get()
	pl.Release(f)
	mustPanic(t, "double release", func() { pl.Release(f) })
}

// TestPoolRetainAfterFreePanics: a stale holder retaining a recycled
// flit was a silent no-op pre-fix; its eventual Release then pushed a
// live flit into the free list while another owner held it — exactly
// the free-list corruption the refcount exists to prevent. It must
// panic at the retain.
func TestPoolRetainAfterFreePanics(t *testing.T) {
	pl := NewPool(Mode68)
	f := pl.Get()
	pl.Release(f)
	mustPanic(t, "use after free", func() { f.Retain() })
}

// TestPoolForeignReleasePanics: with per-side pools on cross-shard
// links, releasing a flit into a pool that did not mint it would
// corrupt both free lists (and can hand out wrong-sized payload
// buffers across modes). Pre-fix this was completely silent.
func TestPoolForeignReleasePanics(t *testing.T) {
	a := NewPool(Mode68)
	b := NewPool(Mode68)
	f := a.Get()
	mustPanic(t, "foreign pool", func() { b.Release(f) })
}

// TestPoolRecycledFlitIsReusable: the poolFree sentinel must be fully
// reversible — a recycled flit handed out again behaves like new.
func TestPoolRecycledFlitIsReusable(t *testing.T) {
	pl := NewPool(Mode68)
	f := pl.Get()
	pl.Release(f)
	g := pl.Get()
	if g != f {
		t.Fatal("expected the recycled flit back")
	}
	g.Retain()
	pl.Release(g)
	pl.Release(g)
	if pl.free != g {
		t.Fatal("recycled flit did not recycle again")
	}
}
