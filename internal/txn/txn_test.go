package txn

import (
	"testing"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// pair wires two endpoints together over a real link.
func pair(t *testing.T, maxTags int) (*sim.Engine, *Endpoint, *Endpoint) {
	t.Helper()
	eng := sim.NewEngine()
	l, err := link.New(eng, "t", link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewEndpoint(eng, 1, l.A(), maxTags)
	b := NewEndpoint(eng, 2, l.B(), maxTags)
	l.A().SetSink(a)
	l.B().SetSink(b)
	return eng, a, b
}

// echoMem replies to MemRd with 64B of data after a fixed device time.
func echoMem(eng *sim.Engine, devTime sim.Time) Handler {
	return func(req *flit.Packet, reply func(*flit.Packet)) {
		switch req.Op {
		case flit.OpMemRd:
			eng.After(devTime, func() { reply(req.Response(flit.OpMemRdData, 64)) })
		case flit.OpMemWr:
			eng.After(devTime, func() { reply(req.Response(flit.OpMemWrAck, 0)) })
		case flit.OpIOWr:
			reply(req.Response(flit.OpIOAck, 0))
		case flit.OpIORd:
			reply(req.Response(flit.OpIOData, req.ReqLen))
		default:
			panic("unexpected op " + req.Op.String())
		}
	}
}

func TestRequestResponseRoundTrip(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = echoMem(eng, 50*sim.Nanosecond)
	var resp *flit.Packet
	var at sim.Time
	eng.After(0, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2, Addr: 0x40}).
			OnComplete(func(p *flit.Packet, err error) {
				if err != nil {
					t.Errorf("request failed: %v", err)
				}
				resp, at = p, eng.Now()
			})
	})
	eng.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Op != flit.OpMemRdData || resp.Size != 64 || resp.Dst != 1 {
		t.Fatalf("response = %v", resp)
	}
	if at < 50*sim.Nanosecond {
		t.Fatalf("response at %v, impossibly fast", at)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after completion", a.Outstanding())
	}
}

func TestTagsDistinguishConcurrentRequests(t *testing.T) {
	eng, a, b := pair(t, 0)
	// Reply slower for even addresses, so completions come out of order.
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		d := 10 * sim.Nanosecond
		if req.Addr%128 == 0 {
			d = 500 * sim.Nanosecond
		}
		eng.After(d, func() {
			resp := req.Response(flit.OpMemRdData, 64)
			resp.Addr = req.Addr
			reply(resp)
		})
	}
	got := make(map[uint64]bool)
	eng.After(0, func() {
		for i := 0; i < 16; i++ {
			addr := uint64(i * 64)
			a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2, Addr: addr}).
				OnComplete(func(p *flit.Packet, err error) {
					if p.Addr != addr {
						t.Errorf("response addr %#x for request %#x", p.Addr, addr)
					}
					got[addr] = true
				})
		}
	})
	eng.Run()
	if len(got) != 16 {
		t.Fatalf("completed %d of 16", len(got))
	}
}

func TestOutstandingWindowBlocks(t *testing.T) {
	eng, a, b := pair(t, 4)
	inFlight, maxInFlight := 0, 0
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		eng.After(100*sim.Nanosecond, func() {
			inFlight--
			reply(req.Response(flit.OpMemRdData, 64))
		})
	}
	done := 0
	eng.After(0, func() {
		for i := 0; i < 32; i++ {
			a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2, Addr: uint64(i)}).
				OnComplete(func(*flit.Packet, error) { done++ })
		}
	})
	eng.Run()
	if done != 32 {
		t.Fatalf("done = %d, want 32", done)
	}
	if maxInFlight > 4 {
		t.Fatalf("maxInFlight = %d, window of 4 violated", maxInFlight)
	}
}

func TestMLPWindowLimitsThroughput(t *testing.T) {
	// The paper's Difference #1: remote throughput a core can drive is
	// bounded by outstanding ops / latency. Doubling the window should
	// roughly double completion rate against a fixed-latency responder.
	measure := func(window int) float64 {
		eng, a, b := pair(t, window)
		b.Handler = echoMem(eng, 500*sim.Nanosecond)
		done := 0
		eng.After(0, func() {
			for i := 0; i < 200; i++ {
				a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2,
					Addr: uint64(i * 64)}).OnComplete(func(*flit.Packet, error) { done++ })
			}
		})
		eng.Run()
		return float64(done) / eng.Now().Seconds() / 1e6 // MOPS
	}
	m2, m8 := measure(2), measure(8)
	ratio := m8 / m2
	if ratio < 3.0 || ratio > 4.5 {
		t.Fatalf("MOPS(8)/MOPS(2) = %.2f, want ≈4 (MLP-limited)", ratio)
	}
}

func TestBulkWriteSegmentsAndCompletes(t *testing.T) {
	eng, a, b := pair(t, 0)
	var sizes []uint32
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		sizes = append(sizes, req.Size)
		reply(req.Response(flit.OpIOAck, 0))
	}
	var n int
	eng.After(0, func() {
		a.BulkWrite(2, 0x10000, 16384).OnComplete(func(v int, err error) {
			if err != nil {
				t.Errorf("bulk write failed: %v", err)
			}
			n = v
		})
	})
	eng.Run()
	if n != 16384 {
		t.Fatalf("bulk completed %d bytes, want 16384", n)
	}
	if len(sizes) != 32 {
		t.Fatalf("segments = %d, want 32 (16K / 512B MPS)", len(sizes))
	}
	for _, s := range sizes {
		if s != link.MaxPacketPayload {
			t.Fatalf("segment size %d, want %d", s, link.MaxPacketPayload)
		}
	}
}

func TestBulkWriteUnevenTail(t *testing.T) {
	eng, a, b := pair(t, 0)
	total := uint32(0)
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		total += req.Size
		reply(req.Response(flit.OpIOAck, 0))
	}
	eng.After(0, func() { a.BulkWrite(2, 0, 1300) })
	eng.Run()
	if total != 1300 {
		t.Fatalf("bytes received = %d, want 1300 (512+512+276)", total)
	}
}

func TestBulkZeroBytesCompletesImmediately(t *testing.T) {
	eng, a, _ := pair(t, 0)
	f := a.BulkWrite(2, 0, 0)
	if !f.Done() {
		t.Fatal("zero-byte bulk not immediately done")
	}
	eng.Run()
}

func TestRequestWithResponseOpPanics(t *testing.T) {
	_, a, _ := pair(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("non-request op accepted")
		}
	}()
	a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRdData, Dst: 2})
}

func TestUnexpectedResponsePanics(t *testing.T) {
	_, a, _ := pair(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("orphan response accepted")
		}
	}()
	a.Dispatch(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRdData, Dst: 1, Tag: 999})
}

func TestRequestWithoutHandlerPanics(t *testing.T) {
	_, a, _ := pair(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("request without handler accepted")
		}
	}()
	a.Dispatch(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 1, Tag: 3})
}

func TestCountersTrack(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = echoMem(eng, 0)
	eng.After(0, func() {
		for i := 0; i < 5; i++ {
			a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2})
		}
	})
	eng.Run()
	if a.ReqsSent.Value() != 5 || a.RespsRecv.Value() != 5 || b.ReqsServed.Value() != 5 {
		t.Fatalf("counters: sent=%d recv=%d served=%d",
			a.ReqsSent.Value(), a.RespsRecv.Value(), b.ReqsServed.Value())
	}
}

func TestTagReuseAfterCompletion(t *testing.T) {
	// Many sequential requests with a tiny window must recycle tags.
	eng, a, b := pair(t, 2)
	b.Handler = echoMem(eng, 10*sim.Nanosecond)
	done := 0
	eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).MustAwait(p)
			done++
		}
	})
	eng.Run()
	if done != 300 {
		t.Fatalf("done = %d, want 300", done)
	}
}
