package txn

import (
	"errors"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// TestRequestPathAllocCeiling pins the transaction-layer allocation
// floor. A steady-state tag-matched round trip allocates only the
// objects that escape to the caller or cross the wire by design: the
// request packet and one object per packet the link decodes (the
// request at the device, which the handler turns into its response, and
// the response at the caller, its 64-byte payload inline). The request
// record, the timeout timer, the reply context and the dispatch events
// come from pools, so the completion form (RequestFn) and the blocking
// form (RequestP) cost those 3 per round trip, and the future form
// (Request) 4, its fresh future the fourth. A clean RequestRetry round
// trip on an endpoint with a timeout costs no more than a plain
// Request: the retry budget rides in the pooled record, so no attempt
// copies the packet or wraps the future.
func TestRequestPathAllocCeiling(t *testing.T) {
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
	read := func() *flit.Packet { return &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2} }
	perRoundTrip := func(issue func(*flit.Packet)) float64 {
		// Warm every pool on the path: endpoint tag ring, request
		// records and reply contexts, link flit/txPacket/event pools.
		for round := 0; round < 4; round++ {
			for i := 0; i < 64; i++ {
				issue(read())
			}
			eng.Run()
		}
		return testing.AllocsPerRun(20, func() {
			for i := 0; i < 16; i++ {
				issue(read())
			}
			eng.Run()
		}) / 16
	}
	blockingPerRoundTrip := func(attempts int) float64 {
		var n float64
		eng.Go("blocking", func(p *sim.Proc) {
			for i := 0; i < 256; i++ {
				a.RequestP(p, read(), attempts, 20*sim.Microsecond)
			}
			n = testing.AllocsPerRun(20, func() {
				for i := 0; i < 16; i++ {
					if _, err := a.RequestP(p, read(), attempts, 20*sim.Microsecond); err != nil {
						t.Error(err)
					}
				}
			}) / 16
		})
		eng.Run()
		return n
	}
	check := func(form string, got, ceiling float64) {
		t.Helper()
		t.Logf("%s: %.2f allocs per round trip", form, got)
		if got > ceiling {
			t.Errorf("%s allocates %.2f per round trip in steady state, want <= %.0f", form, got, ceiling)
		}
	}
	ignore := func(any, *flit.Packet, error) {}

	plain := perRoundTrip(func(p *flit.Packet) { a.Request(p) })
	check("future form", plain, 4)
	check("completion form", perRoundTrip(func(p *flit.Packet) { a.RequestFn(p, 0, 0, ignore, nil) }), 3)
	check("blocking form", blockingPerRoundTrip(0), 3)

	a.Timeout = 25 * sim.Microsecond
	check("future form with a timeout", perRoundTrip(func(p *flit.Packet) { a.Request(p) }), 4)
	check("completion form with retries", perRoundTrip(func(p *flit.Packet) { a.RequestFn(p, 3, 20*sim.Microsecond, ignore, nil) }), 3)
	check("blocking form with retries", blockingPerRoundTrip(3), 3)
	retried := perRoundTrip(func(p *flit.Packet) { a.RequestRetry(p, 3, 20*sim.Microsecond) })
	check("RequestRetry", retried, plain)
	if a.Timeouts.Value() != 0 {
		t.Fatalf("%d requests timed out on a clean link", a.Timeouts.Value())
	}
}

// TestRequestRecordsRetireAtResponse pins that a request's record goes
// back to the pool when its response lands, not when its timeout would
// have fired: 64 requests one after another on a fresh endpoint with a
// 25 µs Timeout, each answered in about 100 ns, share one record where
// holding each until its timeout would mint one per request.
func TestRequestRecordsRetireAtResponse(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = echoMem(eng, 50*sim.Nanosecond)
	a.Timeout = 25 * sim.Microsecond
	eng.Go("requester", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if _, err := a.RequestP(p, &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}, 3, sim.Microsecond); err != nil {
				t.Error(err)
			}
			if _, err := a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).Await(p); err != nil {
				t.Error(err)
			}
		}
		if now := p.Now(); now > 64*150*sim.Nanosecond {
			t.Errorf("64 round trips took %v, want about 100 ns each", now)
		}
	})
	eng.Run()
	if a.RespsRecv.Value() != 64 || a.Timeouts.Value() != 0 {
		t.Fatalf("received %d responses with %d timeouts, want 64 and 0", a.RespsRecv.Value(), a.Timeouts.Value())
	}
	if a.minted > 2 {
		t.Fatalf("64 sequential requests minted %d records, want <= 2", a.minted)
	}
}

// TestStaleTimeoutSparesReusedRecord reuses a record its response
// retired while that first request's timeout is still pending. The
// stale timeout must leave the later request alone: the later request's
// reply is dropped, and it times out at its own deadline, not the first
// request's.
func TestStaleTimeoutSparesReusedRecord(t *testing.T) {
	eng, a, b := pair(t, 0)
	arrivals := 0
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		if arrivals++; arrivals == 1 {
			reply(req.Response(flit.OpMemRdData, 64))
		}
	}
	a.Timeout = sim.Microsecond
	var first, second error
	var firstAt, secondAt sim.Time
	eng.At(0, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).
			OnComplete(func(_ *flit.Packet, err error) { first, firstAt = err, eng.Now() })
	})
	eng.At(500*sim.Nanosecond, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).
			OnComplete(func(_ *flit.Packet, err error) { second, secondAt = err, eng.Now() })
	})
	eng.Run()
	if first != nil || firstAt >= 500*sim.Nanosecond {
		t.Fatalf("first request ended at %v with %v, want its response before 500ns", firstAt, first)
	}
	if a.minted != 1 {
		t.Fatalf("minted %d records, want the second request to reuse the first's", a.minted)
	}
	if want := 1500 * sim.Nanosecond; !errors.Is(second, ErrTimeout) || secondAt != want {
		t.Fatalf("second request ended at %v with %v, want ErrTimeout at %v", secondAt, second, want)
	}
	if a.Timeouts.Value() != 1 || a.Outstanding() != 0 || a.Tombstones() != 1 {
		t.Fatalf("timeouts %d, outstanding %d, tombstones %d; want 1, 0, 1",
			a.Timeouts.Value(), a.Outstanding(), a.Tombstones())
	}
}
