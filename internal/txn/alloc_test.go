package txn

import (
	"testing"
	"unsafe"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// TestRequestPathAllocCeiling pins the transaction-layer allocation
// floor. A steady-state tag-matched round trip allocates only the
// objects that escape to the caller or cross the wire by design: the
// request packet, its completion future, and one object per packet the
// link decodes (the request at the device, which the handler turns
// into its response, and the response at the caller, its 64-byte
// payload inline). Everything else — tag bookkeeping, the timeout
// timer, the reply context, the dispatch events — must come from pools,
// so the ceiling is those 4 per round trip. A clean RequestRetry round
// trip on an endpoint with a timeout may cost no more than a plain
// Request: the retry budget rides in the pooled timer record, so no
// attempt copies the packet or wraps the future.
func TestRequestPathAllocCeiling(t *testing.T) {
	// A request with a timeout holds its timer record until the timeout
	// passes, answered or not, so the record's size is live heap.
	if n := unsafe.Sizeof(reqTimer{}); n > 48 {
		t.Fatalf("reqTimer is %d bytes, want <= 48", n)
	}
	eng := sim.NewEngine()
	l, err := link.New(eng, "alloc", link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewEndpoint(eng, 1, l.A(), 0)
	d := NewEndpoint(eng, 2, l.B(), 0)
	l.A().SetSink(a)
	l.B().SetSink(d)
	d.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		reply(req.Response(flit.OpMemRdData, 64))
	}
	perRoundTrip := func(issue func(*flit.Packet)) float64 {
		// Warm every pool on the path: endpoint tag ring, timer and
		// reply contexts, link flit/txPacket/event pools.
		for round := 0; round < 4; round++ {
			for i := 0; i < 64; i++ {
				issue(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2})
			}
			eng.Run()
		}
		return testing.AllocsPerRun(20, func() {
			for i := 0; i < 16; i++ {
				issue(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2})
			}
			eng.Run()
		}) / 16
	}

	plain := perRoundTrip(func(p *flit.Packet) { a.Request(p) })
	t.Logf("request path: %.2f allocs per round trip", plain)
	if plain > 4 {
		t.Fatalf("request path allocates %.2f per round trip in steady state, want <= 4", plain)
	}

	a.Timeout = 25 * sim.Microsecond
	retried := perRoundTrip(func(p *flit.Packet) { a.RequestRetry(p, 3, 20*sim.Microsecond) })
	t.Logf("retried request path: %.2f allocs per round trip", retried)
	if retried > plain {
		t.Fatalf("a clean RequestRetry round trip allocates %.2f, a plain Request %.2f: want no more", retried, plain)
	}
	if a.Timeouts.Value() != 0 {
		t.Fatalf("%d requests timed out on a clean link", a.Timeouts.Value())
	}
}
