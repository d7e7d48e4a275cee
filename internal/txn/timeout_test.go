package txn

import (
	"errors"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/sim"
)

func TestRequestTimesOutTyped(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {} // never replies
	a.Timeout = 1 * sim.Microsecond
	var got error
	var at sim.Time
	eng.After(0, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).
			OnComplete(func(_ *flit.Packet, err error) { got, at = err, eng.Now() })
	})
	eng.Run()
	if !errors.Is(got, ErrTimeout) || !Typed(got) {
		t.Fatalf("err = %v, want ErrTimeout", got)
	}
	if at != a.Timeout {
		t.Fatalf("timed out at %v, want %v", at, a.Timeout)
	}
	if a.Outstanding() != 0 || a.Timeouts.Value() != 1 {
		t.Fatalf("outstanding %d, timeouts %d after expiry", a.Outstanding(), a.Timeouts.Value())
	}
	if a.tags.InUse() != 0 {
		t.Fatalf("tag not released on timeout: %d in use", a.tags.InUse())
	}
}

func TestZeroTimeoutWaitsForever(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = echoMem(eng, 50*sim.Microsecond) // far beyond any default
	var resp *flit.Packet
	eng.After(0, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).
			OnComplete(func(p *flit.Packet, err error) {
				if err != nil {
					t.Errorf("request failed: %v", err)
				}
				resp = p
			})
	})
	eng.Run()
	if resp == nil {
		t.Fatal("no response with Timeout = 0")
	}
}

func TestLateResponseAfterTimeoutIsDropped(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = echoMem(eng, 5*sim.Microsecond) // replies, but after the deadline
	a.Timeout = 1 * sim.Microsecond
	var got error
	eng.After(0, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).
			OnComplete(func(_ *flit.Packet, err error) { got = err })
	})
	eng.Run() // the late response would panic as unmatched without the tombstone
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got)
	}
	if a.LateResps.Value() != 1 {
		t.Fatalf("late responses = %d, want 1", a.LateResps.Value())
	}
	if a.Tombstones() != 0 {
		t.Fatalf("%d tombstones left after the late response landed", a.Tombstones())
	}
}

// TestTombsAccumulateWithoutHorizon pins that tombs persist until their
// late response lands: no timer expires them, so a response from an
// arbitrarily slow path can never complete a recycled tag's request.
func TestTombsAccumulateWithoutHorizon(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {}
	a.Timeout = 1 * sim.Microsecond
	for i := 0; i < 4; i++ {
		at := sim.Time(i) * 100 * sim.Nanosecond
		eng.At(at, func() {
			a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2})
		})
	}
	eng.Run()
	if a.Tombstones() != 4 {
		t.Fatalf("tombstones = %d, want 4", a.Tombstones())
	}
}

func TestTombstonedTagIsNotReused(t *testing.T) {
	eng, a, b := pair(t, 1) // single tag: reuse would be immediate
	first := true
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		if first {
			first = false
			// Reply long after the timeout — while the second request is
			// in flight. If the tag were reused, this response would
			// complete the wrong request.
			eng.After(4*sim.Microsecond, func() { reply(req.Response(flit.OpMemRdData, 64)) })
			return
		}
		reply(req.Response(flit.OpMemWrAck, 0))
	}
	a.Timeout = 1 * sim.Microsecond
	var second *flit.Packet
	eng.After(0, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).
			OnComplete(func(_ *flit.Packet, err error) {
				if !errors.Is(err, ErrTimeout) {
					t.Errorf("first request: %v, want timeout", err)
				}
				a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: 2, Size: 64}).
					OnComplete(func(p *flit.Packet, err error) {
						if err != nil {
							t.Errorf("second request: %v", err)
						}
						second = p
					})
			})
	})
	eng.Run()
	if second == nil {
		t.Fatal("second request never completed")
	}
	if second.Op != flit.OpMemWrAck {
		t.Fatalf("second request completed with %v — the late read data leaked in", second.Op)
	}
	if a.LateResps.Value() != 1 {
		t.Fatalf("late responses = %d, want 1", a.LateResps.Value())
	}
}

func TestRequestRetryRecoversFromTransientLoss(t *testing.T) {
	eng, a, b := pair(t, 0)
	drops := 2
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		if drops > 0 {
			drops--
			return // black-hole the first attempts
		}
		reply(req.Response(flit.OpMemRdData, 64))
	}
	a.Timeout = 1 * sim.Microsecond
	var resp *flit.Packet
	eng.After(0, func() {
		a.RequestRetry(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}, 3, 500*sim.Nanosecond).
			OnComplete(func(p *flit.Packet, err error) {
				if err != nil {
					t.Errorf("retry chain failed: %v", err)
				}
				resp = p
			})
	})
	eng.Run()
	if resp == nil {
		t.Fatal("no response after retries")
	}
	if a.Retries.Value() != 2 || a.Timeouts.Value() != 2 {
		t.Fatalf("retries/timeouts = %d/%d, want 2/2", a.Retries.Value(), a.Timeouts.Value())
	}
}

func TestRequestRetryExhaustionIsTyped(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {} // dead device
	a.Timeout = 1 * sim.Microsecond
	var got error
	var at sim.Time
	eng.After(0, func() {
		a.RequestRetry(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}, 3, 500*sim.Nanosecond).
			OnComplete(func(_ *flit.Packet, err error) { got, at = err, eng.Now() })
	})
	eng.Run()
	if !errors.Is(got, ErrDeviceDown) || !errors.Is(got, ErrTimeout) || !Typed(got) {
		t.Fatalf("err = %v, want ErrDeviceDown wrapping ErrTimeout", got)
	}
	// Deterministic schedule: 3 timeouts plus backoffs of 500ns and 1us.
	if want := 3*a.Timeout + 1500*sim.Nanosecond; at != want {
		t.Fatalf("exhausted at %v, want %v", at, want)
	}
	if a.Retries.Value() != 2 {
		t.Fatalf("retries = %d, want 2", a.Retries.Value())
	}
}

func TestRequestRetryNormalizesAttempts(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = echoMem(eng, 10*sim.Nanosecond)
	// attempts <= 0 normalizes to one attempt and still succeeds.
	var resp *flit.Packet
	eng.After(0, func() {
		a.RequestRetry(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}, 0, 0).
			OnComplete(func(p *flit.Packet, err error) { resp = p })
	})
	eng.Run()
	if resp == nil {
		t.Fatal("single-attempt RequestRetry did not complete")
	}
	if a.Retries.Value() != 0 {
		t.Fatalf("retries = %d on a clean path", a.Retries.Value())
	}
}

// TestRefusalFailsTyped answers every request with OpMemErr. Both
// request forms must fail with ErrRefused, which Typed accepts, and the
// retried form must not retry: the device answered, so the armed
// timeout finds the request done.
func TestRefusalFailsTyped(t *testing.T) {
	eng, a, b := pair(t, 0)
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		reply(req.Response(flit.OpMemErr, 0))
	}
	a.Timeout = 1 * sim.Microsecond
	var errs [2]error
	eng.After(0, func() {
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2}).
			OnComplete(func(_ *flit.Packet, err error) { errs[0] = err })
		a.RequestRetry(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: 2, Size: 64}, 3, 500*sim.Nanosecond).
			OnComplete(func(_ *flit.Packet, err error) { errs[1] = err })
	})
	eng.Run()
	for i, err := range errs {
		if !errors.Is(err, ErrRefused) || !Typed(err) || errors.Is(err, ErrTimeout) {
			t.Errorf("request %d: err = %v, want ErrRefused", i, err)
		}
	}
	if s, r, n := a.ReqsSent.Value(), a.RespsRecv.Value(), a.Retries.Value(); s != 2 || r != 2 || n != 0 {
		t.Errorf("sent %d, received %d, retried %d; want 2, 2, 0", s, r, n)
	}
	if a.Timeouts.Value() != 0 || a.Outstanding() != 0 || a.Tombstones() != 0 || a.tags.InUse() != 0 {
		t.Errorf("timeouts %d, outstanding %d, tombstones %d, tags in use %d after the refusals",
			a.Timeouts.Value(), a.Outstanding(), a.Tombstones(), a.tags.InUse())
	}
}
