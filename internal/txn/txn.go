// Package txn implements the Flex Bus transaction layer (§2.1): channel
// semantics over raw packet delivery. It gives each endpoint tag
// allocation with a bounded outstanding window, request/response
// matching, request dispatch, and segmentation of bulk transfers into
// link-MTU-sized packets (the PCIe max-payload-size discipline).
package txn

//fcclint:hotpath tag/pend tracking must stay dense (PR 5)

import (
	"errors"
	"fmt"
	"math"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// ErrTimeout reports a request whose response did not arrive within the
// endpoint's Timeout — the transaction-layer symptom of a dead device,
// severed path, or crashed switch. Callers match it with errors.Is.
var ErrTimeout = errors.New("txn: request timed out")

// ErrDeviceDown reports a request abandoned after RequestRetry exhausted
// its attempts: the destination stayed unreachable across every backoff.
var ErrDeviceDown = errors.New("txn: device unreachable")

// ErrRefused reports a request the device answered with OpMemErr: a
// partition violation, a dead or missing function, a failed copy. The
// device is alive and said no, so a refused request is never retried.
var ErrRefused = errors.New("txn: request refused")

// Typed reports whether err is a typed fabric failure: a request that
// timed out, spent its retries, or was refused. A caller that counts
// every request as committed, failed or lost matches failures with it.
func Typed(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrDeviceDown) || errors.Is(err, ErrRefused)
}

// Sender is anything that can emit a packet toward the fabric — a link
// port, or a loopback in tests. A sender is done with pkt when Send
// returns (link.Port.Send encodes it into flits at once), so a request
// can send the same packet again.
type Sender interface {
	Send(pkt *flit.Packet)
}

// Handler serves incoming requests at an endpoint. reply must be called
// exactly once with the response packet. req.Response builds it by
// turning req itself into the response, so a handler reads what it
// needs of the request first; the request is the handler's alone, a
// packet the link decoded for this delivery.
type Handler func(req *flit.Packet, reply func(resp *flit.Packet))

// Endpoint is the transaction-layer state of one fabric endpoint: it
// owns the endpoint's PBR ID, its outstanding-request window, and the
// dispatch of inbound traffic into requests (handled) and responses
// (matched to futures).
type Endpoint struct {
	eng  *sim.Engine
	id   flit.PortID
	out  Sender
	tags *sim.Semaphore
	next uint16

	// pend is the dense tag table: pend[tag] is the request awaiting
	// that tag's response, nil when free — one load to match a response,
	// no map hashing. It grows geometrically toward the full 64K tag space
	// as the bump allocator hands out higher tags, so a short-lived
	// endpoint (a benchmark iteration, a test rig) pays for a window's
	// worth of slots rather than half a megabyte up front.
	pend  []*request
	npend int

	// tomb is a bitset over tags whose request timed out but whose
	// response may still arrive (a slow path, a healed flap). A
	// tombstoned tag is not reallocated — a late response must never
	// complete a different request — and the late response, when it
	// lands, is dropped and counted instead of panicking as an
	// unmatched response. Like pend it grows lazily; most endpoints
	// never time out and keep it empty.
	tomb  []uint64
	ntomb int

	// freeTags queues released tags back to the allocator; allocTag
	// pops from here first and falls back to the monotonic bump pointer.
	freeTags sim.Queue[uint16]

	// Free lists recycling the per-request records and the
	// per-inbound-request reply contexts, so the steady-state request
	// and serve paths allocate neither. minted counts the request
	// records ever made.
	reqFree   *request
	replyFree *replyCtx
	minted    int

	// Timeout, when > 0, bounds each request's wait for its response;
	// expiry fails the request with ErrTimeout. Zero (the default) waits
	// forever — the right semantics for a fabric that cannot fail. Set
	// it before the first request: a record's stale timeout is told
	// from its reuse's by deadline, which a shorter Timeout could match.
	Timeout sim.Time

	// Handler serves inbound requests. It may be nil for pure
	// initiators (a request arriving then panics — a topology bug).
	Handler Handler

	// Metrics.
	ReqsSent   sim.Counter
	RespsRecv  sim.Counter
	ReqsServed sim.Counter
	Timeouts   sim.Counter
	Retries    sim.Counter
	LateResps  sim.Counter
}

// DefaultMaxTags is the default outstanding-transaction window.
const DefaultMaxTags = 256

// NewEndpoint creates an endpoint with PBR ID id sending via out.
func NewEndpoint(eng *sim.Engine, id flit.PortID, out Sender, maxTags int) *Endpoint {
	if maxTags <= 0 {
		maxTags = DefaultMaxTags
	}
	return &Endpoint{
		eng:  eng,
		id:   id,
		out:  out,
		tags: sim.NewSemaphore(maxTags),
	}
}

// growPend extends the dense tag table to cover tag t. Growth is
// geometric and bounded by the 16-bit tag space, so the amortized cost
// per endpoint is one window's worth of slots, not the full 64K.
func (e *Endpoint) growPend(t uint16) {
	n := len(e.pend)
	if n == 0 {
		n = 64
	}
	for n <= int(t) {
		n *= 2
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	grown := make([]*request, n)
	copy(grown, e.pend)
	e.pend = grown
}

// ID reports the endpoint's fabric port ID.
func (e *Endpoint) ID() flit.PortID { return e.id }

// Outstanding reports in-flight requests initiated by this endpoint.
func (e *Endpoint) Outstanding() int { return e.npend }

// Tombstones reports tags held back from reallocation because a
// timed-out request's response may still arrive.
func (e *Endpoint) Tombstones() int { return e.ntomb }

func (e *Endpoint) tombed(t uint16) bool {
	if int(t>>6) >= len(e.tomb) {
		return false
	}
	return e.tomb[t>>6]&(1<<(t&63)) != 0
}

func (e *Endpoint) setTomb(t uint16) {
	if int(t>>6) >= len(e.tomb) {
		n := len(e.tomb)
		if n == 0 {
			n = 4
		}
		for n <= int(t>>6) {
			n *= 2
		}
		if n > 1<<16/64 {
			n = 1 << 16 / 64
		}
		grown := make([]uint64, n)
		copy(grown, e.tomb)
		e.tomb = grown
	}
	e.tomb[t>>6] |= 1 << (t & 63)
	e.ntomb++
}

func (e *Endpoint) clearTomb(t uint16) {
	e.tomb[t>>6] &^= 1 << (t & 63)
	e.ntomb--
}

// Arrive implements link.Sink: endpoint buffers drain instantly (the
// endpoint is the terminus; its internal queues are modelled above the
// fabric), so the receive buffer is released immediately.
func (e *Endpoint) Arrive(pkt *flit.Packet, release func()) {
	release()
	e.Dispatch(pkt)
}

// replyCtx is the recyclable state behind the reply callback handed to
// a Handler. The callback itself (fn) is bound to the context once at
// construction, so serving a request costs no closure allocation; the
// context returns to the endpoint's free list when the reply is sent.
type replyCtx struct {
	e       *Endpoint
	replied bool
	fn      func(*flit.Packet)
	next    *replyCtx
}

func (c *replyCtx) reply(resp *flit.Packet) {
	if c.replied {
		panic("txn: handler replied twice")
	}
	c.replied = true
	e := c.e
	e.out.Send(resp)
	e.ReqsServed.Inc()
	c.next = e.replyFree
	e.replyFree = c
}

func (e *Endpoint) getReplyCtx() *replyCtx {
	c := e.replyFree
	if c == nil {
		c = &replyCtx{e: e}
		c.fn = c.reply
	} else {
		e.replyFree = c.next
		c.next = nil
	}
	c.replied = false
	return c
}

// Dispatch routes an inbound packet: responses complete their pending
// request, or fail it with ErrRefused when the device answered
// OpMemErr; requests go to the Handler.
func (e *Endpoint) Dispatch(pkt *flit.Packet) {
	if pkt.Op.IsRequest() {
		if e.Handler == nil {
			panic(fmt.Sprintf("txn: endpoint %d received request %v with no handler", e.id, pkt))
		}
		e.Handler(pkt, e.getReplyCtx().fn)
		return
	}
	var r *request
	if int(pkt.Tag) < len(e.pend) {
		r = e.pend[pkt.Tag]
	}
	if r == nil {
		if e.tombed(pkt.Tag) {
			e.clearTomb(pkt.Tag)
			e.freeTags.Push(pkt.Tag)
			e.LateResps.Inc()
			return
		}
		panic(fmt.Sprintf("txn: endpoint %d got response %v with no pending request", e.id, pkt))
	}
	e.pend[pkt.Tag] = nil
	e.npend--
	e.freeTags.Push(pkt.Tag)
	e.tags.Release()
	e.RespsRecv.Inc()
	if pkt.Op == flit.OpMemErr {
		e.resolve(r, nil, fmt.Errorf("%w by device %d at %#x", ErrRefused, pkt.Src, pkt.Addr))
		return
	}
	e.resolve(r, pkt, nil)
}

// request is the pooled record of one request, from the call that
// sends it to the response, refusal or final timeout that resolves it.
// It holds the caller's packet, the retry budget, the deadline stamp of
// its armed timeout and the caller's completion, and RequestP awaits
// the future embedded in it. The record returns to the endpoint's free
// list the moment its request resolves, before the completion runs, so
// a free list holds at most the peak number of requests in flight. A
// timeout event outlives the record's use when a response came first:
// it fires for a record that no longer carries its deadline (retired,
// or reused by a later request whose deadline lies later still, since
// every request on an endpoint shares one Timeout and a response takes
// time to arrive), and does nothing.
type request struct {
	e        *Endpoint
	pkt      *flit.Packet
	done     func(arg any, resp *flit.Packet, err error)
	arg      any
	deadline sim.Time // when the armed timeout fires; 0 while none is armed
	backoff  sim.Time // wait before the next re-send; doubles per attempt
	n        int32    // attempts sent
	attempts int32    // the budget; 0 marks a plain Request
	next     *request
	f        sim.Future[*flit.Packet] // RequestP's; zeroed per use
}

func requestTimeout(a any) {
	r := a.(*request)
	e := r.e
	if r.deadline != e.eng.Now() {
		return // resolved before its deadline; the record has moved on
	}
	r.deadline = 0
	pkt := r.pkt
	e.pend[pkt.Tag] = nil
	e.npend--
	e.setTomb(pkt.Tag)
	e.tags.Release()
	e.Timeouts.Inc()
	if r.n < r.attempts {
		e.Retries.Inc()
		e.eng.After2(r.backoff, requestResend, r)
		return
	}
	err := fmt.Errorf("%w: %v to %d after %v", ErrTimeout, pkt.Op, pkt.Dst, e.Timeout)
	if r.attempts > 0 {
		err = fmt.Errorf("%w: %d attempts: %w", ErrDeviceDown, r.n, err)
	}
	e.resolve(r, nil, err)
}

func requestResend(a any) {
	r := a.(*request)
	r.backoff *= 2
	r.e.acquire(r)
}

// resolve retires r to the free list and then runs its completion:
// nothing reads r after the call that may wake its process.
func (e *Endpoint) resolve(r *request, resp *flit.Packet, err error) {
	done, arg := r.done, r.arg
	r.pkt, r.done, r.arg, r.deadline = nil, nil, nil, 0
	r.next = e.reqFree
	e.reqFree = r
	done(arg, resp, err)
}

// settle is the completion of the future forms: it resolves the future
// in arg with the outcome.
func settle(arg any, resp *flit.Packet, err error) {
	f := arg.(*sim.Future[*flit.Packet])
	if err != nil {
		f.Fail(err)
		return
	}
	f.Complete(resp)
}

// Request sends a request packet (Src and Tag are filled in) and returns
// a future resolving to the response. If the outstanding window is full,
// the send waits for a tag — the future covers that wait too, exactly
// like a full MSHR stalls a real pipeline. It is RequestFn with no retry
// and a fresh future as the completion, so pkt must stay unchanged
// until the future resolves.
func (e *Endpoint) Request(pkt *flit.Packet) *sim.Future[*flit.Packet] {
	f := sim.NewFuture[*flit.Packet]()
	e.RequestFn(pkt, 0, 0, settle, f)
	return f
}

// RequestRetry sends a request with bounded retry: when an attempt times
// out it re-sends pkt with a fresh tag after an exponentially growing
// backoff, up to attempts total tries (attempts <= 0 means one; without
// a Timeout no attempt times out). Once exhausted, the future fails with
// ErrDeviceDown wrapping the final timeout; a refusal fails it at once
// with ErrRefused. The doubling is
// deterministic, with no jitter, so seeded runs reproduce exactly. The
// re-send reuses the caller's packet: pkt and its Data must stay
// unchanged until the future resolves.
func (e *Endpoint) RequestRetry(pkt *flit.Packet, attempts int, backoff sim.Time) *sim.Future[*flit.Packet] {
	f := sim.NewFuture[*flit.Packet]()
	e.RequestFn(pkt, max(attempts, 1), backoff, settle, f)
	return f
}

// RequestFn is the one request path. It sends pkt (Src and Tag are
// filled in) once a window slot is free and calls done(arg, resp, nil)
// with the response, or done(arg, nil, err) with a typed error, exactly
// once. attempts 0 makes it a plain Request, whose timeout fails with
// the bare ErrTimeout; attempts >= 1 is RequestRetry's budget and
// backoff. done should be a static function and arg the caller's own
// record, so a call allocates nothing: the request's record comes from
// the endpoint's pool and is back there before done runs. The caller's
// packet is the request's until done runs: a retry re-sends it, and a
// timeout reads its op and destination.
func (e *Endpoint) RequestFn(pkt *flit.Packet, attempts int, backoff sim.Time, done func(arg any, resp *flit.Packet, err error), arg any) {
	e.acquire(e.newRequest(pkt, attempts, backoff, done, arg))
}

// RequestP is the blocking form of RequestFn: it parks p until the
// request resolves and returns the response or the typed error. It
// awaits the future embedded in the request's record, so a call
// allocates nothing of its own.
func (e *Endpoint) RequestP(p *sim.Proc, pkt *flit.Packet, attempts int, backoff sim.Time) (*flit.Packet, error) {
	r := e.newRequest(pkt, attempts, backoff, settle, nil)
	r.f = sim.Future[*flit.Packet]{}
	r.arg = &r.f
	e.acquire(r)
	return r.f.Await(p)
}

func (e *Endpoint) newRequest(pkt *flit.Packet, attempts int, backoff sim.Time, done func(any, *flit.Packet, error), arg any) *request {
	if !pkt.Op.IsRequest() {
		panic("txn: Request with non-request op " + pkt.Op.String())
	}
	r := e.reqFree
	if r == nil {
		r = &request{e: e}
		e.minted++
	} else {
		e.reqFree = r.next
		r.next = nil
	}
	r.pkt, r.done, r.arg = pkt, done, arg
	r.backoff, r.n, r.attempts = backoff, 0, int32(min(attempts, math.MaxInt32))
	return r
}

// acquire sends r's packet once a window slot is free.
func (e *Endpoint) acquire(r *request) {
	if e.tags.TryAcquire() {
		e.send(r)
	} else {
		e.tags.Acquire(func() { e.send(r) })
	}
}

// send runs with a window slot held: allocates the tag, emits the
// packet, and arms the timeout.
func (e *Endpoint) send(r *request) {
	tag := e.allocTag()
	pkt := r.pkt
	pkt.Src = e.id
	pkt.Tag = tag
	if int(tag) >= len(e.pend) {
		e.growPend(tag)
	}
	e.pend[tag] = r
	e.npend++
	e.ReqsSent.Inc()
	e.out.Send(pkt)
	r.n++
	if e.Timeout > 0 {
		r.deadline = sim.SaturatingAdd(e.eng.Now(), e.Timeout)
		e.eng.At2(r.deadline, requestTimeout, r)
	}
}

func (e *Endpoint) allocTag() uint16 {
	if e.freeTags.Len() > 0 {
		return e.freeTags.Pop()
	}
	// Bump path: hands out never-recycled tag values; after a full wrap
	// of the 16-bit space it must probe past still-busy tags.
	for {
		t := e.next
		e.next++
		if (int(t) >= len(e.pend) || e.pend[t] == nil) && !e.tombed(t) {
			return t
		}
	}
}

// segments splits [0,size) into MaxPacketPayload chunks.
func segments(size uint32) []uint32 {
	var out []uint32
	for size > 0 {
		c := uint32(link.MaxPacketPayload)
		if size < c {
			c = size
		}
		out = append(out, c)
		size -= c
	}
	return out
}

// BulkWrite issues a bulk transfer of size bytes to (dst, addr) on the
// CXL.io channel, segmented into max-payload packets, and returns a
// future resolving when every segment is acknowledged. This is the
// mechanism behind the paper's "16KB writes" interference workload and
// the elastic transaction engine's data movement.
func (e *Endpoint) BulkWrite(dst flit.PortID, addr uint64, size uint32) *sim.Future[int] {
	done := sim.NewFuture[int]()
	segs := segments(size)
	if len(segs) == 0 {
		done.Complete(0)
		return done
	}
	remaining := len(segs)
	var firstErr error
	off := uint64(0)
	for _, sz := range segs {
		pkt := &flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr, Dst: dst, Addr: addr + off, Size: sz}
		e.Request(pkt).OnComplete(func(_ *flit.Packet, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 {
				if firstErr != nil {
					done.Fail(firstErr)
				} else {
					done.Complete(int(size))
				}
			}
		})
		off += uint64(sz)
	}
	return done
}

// RegisterStats attaches the endpoint's transaction counters and its
// outstanding-request occupancy to a stats registry.
func (e *Endpoint) RegisterStats(s *sim.Stats) {
	s.Register("reqs_sent", &e.ReqsSent)
	s.Register("resps_recv", &e.RespsRecv)
	s.Register("reqs_served", &e.ReqsServed)
	s.Register("timeouts", &e.Timeouts)
	s.Register("retries", &e.Retries)
	s.Register("late_resps", &e.LateResps)
	s.Gauge("outstanding", func() int64 { return int64(e.npend) })
	s.Gauge("tags_in_use", func() int64 { return int64(e.tags.InUse()) })
}
