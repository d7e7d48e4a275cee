package txn

import (
	"errors"
	"fmt"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/sim"
)

// retryOracle is RequestRetry as a closure chain over Request: an outer
// future, a closure per attempt, and a copy of the packet per attempt.
// It is how RequestRetry was written before the retry budget moved into
// the request's record, and FuzzRequestRetry holds every request form
// to it.
func retryOracle(e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time) *sim.Future[*flit.Packet] {
	if attempts <= 0 {
		attempts = 1
	}
	f := sim.NewFuture[*flit.Packet]()
	var try func(n int, wait sim.Time)
	try = func(n int, wait sim.Time) {
		q := *pkt
		if pkt.Data != nil {
			q.Data = append([]byte(nil), pkt.Data...)
		}
		e.Request(&q).OnComplete(func(resp *flit.Packet, err error) {
			switch {
			case err == nil:
				f.Complete(resp)
			case !errors.Is(err, ErrTimeout):
				f.Fail(err)
			case n >= attempts:
				f.Fail(fmt.Errorf("%w: %d attempts: %w", ErrDeviceDown, n, err))
			default:
				e.Retries.Inc()
				e.eng.After(wait, func() { try(n+1, wait*2) })
			}
		})
	}
	try(1, backoff)
	return f
}

// retryForm issues one retried request from process p, at the instant
// p runs, and reports how it ended to done.
type retryForm func(p *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error))

func oracleForm(_ *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
	retryOracle(e, pkt, attempts, backoff).OnComplete(done)
}

// The request forms under test. The completion and blocking forms take
// RequestRetry's budget as at least one attempt, as RequestRetry does.
var retryForms = []struct {
	name string
	form retryForm
}{
	{"RequestRetry", func(_ *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
		e.RequestRetry(pkt, attempts, backoff).OnComplete(done)
	}},
	{"RequestFn", func(_ *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
		e.RequestFn(pkt, max(attempts, 1), backoff, callDone, done)
	}},
	{"RequestP", func(p *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
		done(e.RequestP(p, pkt, max(attempts, 1), backoff))
	}},
}

// callDone is the fuzz harness's RequestFn completion: arg is the
// outcome callback.
func callDone(arg any, resp *flit.Packet, err error) { arg.(func(*flit.Packet, error))(resp, err) }

// retryCase is one fuzz input decoded: the retry budget and timing, the
// window, the requests, and what the serving endpoint does with each
// arrival, in arrival order.
type retryCase struct {
	attempts         int
	backoff, timeout sim.Time
	stagger          sim.Time // between the requests' issue times
	maxTags, reqs    int
	actions          []byte
}

func decodeRetryCase(b []byte) retryCase {
	at := func(i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	c := retryCase{
		attempts: int(at(0) % 5),
		backoff:  sim.Time(at(1)%8) * 250 * sim.Nanosecond,
		timeout:  sim.Time(at(2)%8) * 500 * sim.Nanosecond, // 0: no timeout
		maxTags:  1 + int(at(3)%4),
		reqs:     1 + int(at(4)%8),
		stagger:  sim.Time(at(5)%16) * 100 * sim.Nanosecond,
	}
	if len(b) > 6 {
		c.actions = b[6:]
	}
	return c
}

// Handler actions per arrival; arrivals past the end of the input are
// answered in time.
const (
	actDrop      = iota // never answer
	actInTime           // answer after 20 ns
	actLate             // answer just after the deadline
	actAfterNext        // answer once the next attempt has gone
)

// runRetry issues c's requests through form on a fresh pair and logs
// every arrival at the server and every completion at the initiator,
// each with the initiator's counters at that instant, then the final
// books and clock. Each request has a process of its own, started at
// time 0 and woken by an event at its issue time, so the blocking form
// issues at the same point in the event order as the others.
func runRetry(t *testing.T, c retryCase, form retryForm) []string {
	eng, a, b := pair(t, c.maxTags)
	a.Timeout = c.timeout
	var log []string
	counters := func() string {
		return fmt.Sprintf("sent=%d retries=%d timeouts=%d late=%d",
			a.ReqsSent.Value(), a.Retries.Value(), a.Timeouts.Value(), a.LateResps.Value())
	}
	arrivals := 0
	seen := make([]int, c.reqs) // arrivals so far per request
	b.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		i := int(req.Addr / 64)
		seen[i]++
		act := actInTime
		if arrivals < len(c.actions) {
			act = int(c.actions[arrivals] % 4)
		}
		arrivals++
		log = append(log, fmt.Sprintf("%v arrive req=%d attempt=%d tag=%d act=%d %s",
			eng.Now(), i, seen[i], req.Tag, act, counters()))
		var d sim.Time
		switch act {
		case actDrop:
			return
		case actInTime:
			d = 20 * sim.Nanosecond
		case actLate:
			d = c.timeout + 50*sim.Nanosecond
		case actAfterNext:
			d = c.timeout + c.backoff<<(seen[i]-1) + 300*sim.Nanosecond
		}
		op, size := flit.OpMemRdData, uint32(64)
		if req.Op == flit.OpMemWr {
			op, size = flit.OpMemWrAck, 0
		}
		eng.After(d, func() { reply(req.Response(op, size)) })
	}
	done := 0
	for i := 0; i < c.reqs; i++ {
		start := sim.NewFuture[struct{}]()
		eng.At(sim.Time(i)*c.stagger, func() { start.Complete(struct{}{}) })
		eng.Go(fmt.Sprint("req", i), func(p *sim.Proc) {
			start.MustAwait(p)
			pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2, Addr: uint64(i) * 64}
			if i%3 == 2 {
				pkt.Op, pkt.Size, pkt.Data = flit.OpMemWr, 8, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}
			}
			form(p, a, pkt, c.attempts, c.backoff, func(resp *flit.Packet, err error) {
				done++
				out := fmt.Sprint("err=", err)
				if err == nil {
					out = "resp=" + resp.String()
				}
				log = append(log, fmt.Sprintf("%v done req=%d %s %s", eng.Now(), i, out, counters()))
			})
		})
	}
	eng.Run()
	return append(log, fmt.Sprintf("end %v done=%d outstanding=%d tombstones=%d tags=%d %s",
		eng.Now(), done, a.Outstanding(), a.Tombstones(), a.tags.InUse(), counters()))
}

// FuzzRequestRetry holds every request form (RequestRetry, the
// completion form RequestFn and the blocking form RequestP) to the
// closure-chain oracle: for any retry budget, backoff, timeout, window
// and mix of dropped, timely, late and very late answers, each must
// resolve every request at the same instant with the same response or
// error text, move the endpoint's counters at the same instants, and
// leave the same books and clock. A stagger shorter than the timeout
// reuses records that responses retired while their stale timeouts are
// still pending.
func FuzzRequestRetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRetryCase(data)
		want := runRetry(t, c, oracleForm)
		for _, rf := range retryForms {
			got := runRetry(t, c, rf.form)
			for i := range max(len(got), len(want)) {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("%s %+v: line %d differs\n got: %s\nwant: %s", rf.name, c, i, g, w)
				}
			}
		}
	})
}
