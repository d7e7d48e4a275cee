package txn

import (
	"fmt"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// refInit is the reference initiator FuzzRequestRetry holds every
// request form to. It shares no code with Endpoint's request path:
// pending requests sit in a map by tag and tombstones in a set, freed
// tags queue FIFO ahead of a bump counter, the window is a count of free
// slots with a FIFO of sends waiting for one, and each attempt arms a
// timeout event of its own that acts only while that attempt is still
// pending under its tag. A request with attempts 0 is a plain request,
// whose timeout fails it with the bare ErrTimeout.
type refInit struct {
	eng     *sim.Engine
	out     Sender
	timeout sim.Time
	window  int
	slots   int      // free window slots
	waiting []func() // sends queued for a slot, oldest first
	pend    map[uint16]*refReq
	tomb    map[uint16]bool
	free    []uint16 // released tags, oldest first
	next    uint16

	sent, retries, timeouts, late int
}

// refReq is one request on the reference initiator.
type refReq struct {
	pkt      *flit.Packet
	attempts int
	n        int // attempts sent
	backoff  sim.Time
	done     func(*flit.Packet, error)
}

func newRefInit(eng *sim.Engine, out Sender, window int, timeout sim.Time) *refInit {
	return &refInit{eng: eng, out: out, timeout: timeout, window: window, slots: window,
		pend: map[uint16]*refReq{}, tomb: map[uint16]bool{}}
}

func (r *refInit) issue(_ *sim.Proc, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
	r.acquire(&refReq{pkt: pkt, attempts: attempts, backoff: backoff, done: done})
}

func (r *refInit) acquire(q *refReq) {
	if r.slots == 0 {
		r.waiting = append(r.waiting, func() { r.send(q) })
		return
	}
	r.slots--
	r.send(q)
}

// release frees a window slot, handing it straight to the oldest
// waiting send if there is one.
func (r *refInit) release() {
	if len(r.waiting) == 0 {
		r.slots++
		return
	}
	w := r.waiting[0]
	r.waiting = r.waiting[1:]
	w()
}

func (r *refInit) send(q *refReq) {
	tag := r.allocTag()
	q.pkt.Src, q.pkt.Tag = 1, tag
	r.pend[tag] = q
	r.sent++
	r.out.Send(q.pkt)
	q.n++
	if r.timeout > 0 {
		n := q.n
		r.eng.After(r.timeout, func() {
			if r.pend[tag] == q && q.n == n {
				r.expire(tag, q)
			}
		})
	}
}

func (r *refInit) allocTag() uint16 {
	if len(r.free) > 0 {
		t := r.free[0]
		r.free = r.free[1:]
		return t
	}
	for {
		t := r.next
		r.next++
		if r.pend[t] == nil && !r.tomb[t] {
			return t
		}
	}
}

// expire times out q's attempt under tag: the tag is tombstoned until
// its late answer arrives, and q is re-sent after its backoff or fails.
func (r *refInit) expire(tag uint16, q *refReq) {
	delete(r.pend, tag)
	r.tomb[tag] = true
	r.release()
	r.timeouts++
	if q.n < q.attempts {
		r.retries++
		wait := q.backoff
		q.backoff *= 2
		r.eng.After(wait, func() { r.acquire(q) })
		return
	}
	err := fmt.Errorf("%w: %v to %d after %v", ErrTimeout, q.pkt.Op, q.pkt.Dst, r.timeout)
	if q.attempts > 0 {
		err = fmt.Errorf("%w: %d attempts: %w", ErrDeviceDown, q.n, err)
	}
	q.done(nil, err)
}

// Arrive implements link.Sink. The fuzz server never refuses, so every
// answer completes its request or is a late one.
func (r *refInit) Arrive(pkt *flit.Packet, release func()) {
	release()
	q := r.pend[pkt.Tag]
	if q == nil {
		if !r.tomb[pkt.Tag] {
			panic(fmt.Sprintf("reference: response %v with no pending request", pkt))
		}
		delete(r.tomb, pkt.Tag)
		r.free = append(r.free, pkt.Tag)
		r.late++
		return
	}
	delete(r.pend, pkt.Tag)
	r.free = append(r.free, pkt.Tag)
	r.release()
	q.done(pkt, nil)
}

func (r *refInit) counters() string {
	return fmt.Sprintf("sent=%d retries=%d timeouts=%d late=%d", r.sent, r.retries, r.timeouts, r.late)
}

func (r *refInit) books() string {
	return fmt.Sprintf("outstanding=%d tombstones=%d tags=%d", len(r.pend), len(r.tomb), r.window-r.slots)
}

// initiator is port A of a run: the reference, or an Endpoint driven
// through one request form.
type initiator interface {
	link.Sink
	issue(p *sim.Proc, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error))
	counters() string
	books() string
}

// retryForm issues one request from process p, at the instant p runs,
// and reports how it ended to done.
type retryForm func(p *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error))

// formInit drives an Endpoint through one request form.
type formInit struct {
	*Endpoint
	form retryForm
}

func (f formInit) issue(p *sim.Proc, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
	f.form(p, f.Endpoint, pkt, attempts, backoff, done)
}

func (f formInit) counters() string {
	return fmt.Sprintf("sent=%d retries=%d timeouts=%d late=%d",
		f.ReqsSent.Value(), f.Retries.Value(), f.Timeouts.Value(), f.LateResps.Value())
}

func (f formInit) books() string {
	return fmt.Sprintf("outstanding=%d tombstones=%d tags=%d", f.Outstanding(), f.Tombstones(), f.tags.InUse())
}

// The request forms under test. The retried forms take RequestRetry's
// budget as at least one attempt, as RequestRetry does, and answer to
// the reference at that budget; the plain form Request has no budget
// and answers to the reference's plain mode.
var retryForms = []struct {
	name  string
	plain bool
	form  retryForm
}{
	{"RequestRetry", false, func(_ *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
		e.RequestRetry(pkt, attempts, backoff).OnComplete(done)
	}},
	{"RequestFn", false, func(_ *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
		e.RequestFn(pkt, max(attempts, 1), backoff, callDone, done)
	}},
	{"RequestP", false, func(p *sim.Proc, e *Endpoint, pkt *flit.Packet, attempts int, backoff sim.Time, done func(*flit.Packet, error)) {
		done(e.RequestP(p, pkt, max(attempts, 1), backoff))
	}},
	{"Request", true, func(_ *sim.Proc, e *Endpoint, pkt *flit.Packet, _ int, _ sim.Time, done func(*flit.Packet, error)) {
		e.Request(pkt).OnComplete(done)
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

// runRetry issues c's requests from the initiator mk puts on port A,
// each with a budget of attempts, and logs every arrival at the server
// and every completion at the initiator, each with the initiator's
// counters at that instant, then the final books and clock. Each
// request has a process of its own, started at time 0 and woken by an
// event at its issue time, so the blocking form issues at the same
// point in the event order as the others.
func runRetry(t *testing.T, c retryCase, attempts int, mk func(eng *sim.Engine, out Sender) initiator) []string {
	eng := sim.NewEngine()
	l, err := link.New(eng, "t", link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := NewEndpoint(eng, 2, l.B(), 0)
	l.B().SetSink(b)
	a := mk(eng, l.A())
	l.A().SetSink(a)
	var log []string
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
			eng.Now(), i, seen[i], req.Tag, act, a.counters()))
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
			a.issue(p, pkt, attempts, c.backoff, func(resp *flit.Packet, err error) {
				done++
				out := fmt.Sprint("err=", err)
				if err == nil {
					out = "resp=" + resp.String()
				}
				log = append(log, fmt.Sprintf("%v done req=%d %s %s", eng.Now(), i, out, a.counters()))
			})
		})
	}
	eng.Run()
	return append(log, fmt.Sprintf("end %v done=%d %s %s", eng.Now(), done, a.books(), a.counters()))
}

// FuzzRequestRetry holds every request form (RequestRetry, the
// completion form RequestFn, the blocking form RequestP and the plain
// Request) to the reference initiator: for any retry budget, backoff,
// timeout, window and mix of dropped, timely, late and very late
// answers, each must send every attempt at the same instant under the
// same tag, resolve every request at the same instant with the same
// response or error text, move the counters at the same instants, and
// leave the same books and clock. A stagger shorter than the timeout
// reuses records that responses retired while their stale timeouts are
// still pending.
func FuzzRequestRetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRetryCase(data)
		ref := func(eng *sim.Engine, out Sender) initiator { return newRefInit(eng, out, c.maxTags, c.timeout) }
		retried := max(c.attempts, 1)
		wantRetried := runRetry(t, c, retried, ref)
		wantPlain := runRetry(t, c, 0, ref)
		for _, rf := range retryForms {
			want, attempts := wantRetried, c.attempts
			if rf.plain {
				want, attempts = wantPlain, 0
			}
			got := runRetry(t, c, attempts, func(eng *sim.Engine, out Sender) initiator {
				e := NewEndpoint(eng, 1, out, c.maxTags)
				e.Timeout = c.timeout
				return formInit{e, rf.form}
			})
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
