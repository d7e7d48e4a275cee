// Package etrans implements FCC Design Principle #1 — data movement as
// a managed service — and the UniFabric elastic transaction engine of
// §5(1). A transaction is the generic primitive the paper sketches,
//
//	eTrans(src_addr_list, dst_addr_list, immediate_bit, attributes, ownership)
//
// with the initiator decoupled from the executor: small/urgent
// transfers run inline at the initiator (synchronous), everything else
// is delegated to a migration agent in the destination's memory domain
// and orchestrated under the central arbiter's control-plane policy
// (bandwidth reservation on the dedicated control lane).
package etrans

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fcc/internal/arbiter"
	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// Ownership says who observes a transaction's completion (the paper's
// ownership field: "captures how completion is handled").
type Ownership uint8

const (
	// OwnInitiator: the initiator's future resolves when every byte has
	// landed at the destination.
	OwnInitiator Ownership = iota
	// OwnExecutor: the initiator's future resolves as soon as an
	// executor has durably accepted the descriptor; the executor owns
	// completion (fire-and-forget from the initiator's viewpoint).
	OwnExecutor
)

// Segment is one contiguous range on a fabric node.
type Segment struct {
	Port flit.PortID // owning device/host endpoint
	Addr uint64      // address within that node
	Size uint64
}

// Request is one elastic transaction.
type Request struct {
	Src       []Segment
	Dst       []Segment
	Immediate bool // execute inline at the initiator when small
	Ownership Ownership
	// Priority is an attribute hint (reserved for schedulers).
	Priority uint8
}

// TotalBytes sums the source segments.
func (r *Request) TotalBytes() uint64 {
	var n uint64
	for _, s := range r.Src {
		n += s.Size
	}
	return n
}

// Validate checks shape: equal src/dst byte counts and bounded segment
// lists (a descriptor must fit one control packet).
func (r *Request) Validate() error {
	var src, dst uint64
	for _, s := range r.Src {
		src += s.Size
	}
	for _, d := range r.Dst {
		dst += d.Size
	}
	if src != dst {
		return fmt.Errorf("etrans: src bytes %d != dst bytes %d", src, dst)
	}
	if src == 0 {
		return errors.New("etrans: empty transaction")
	}
	if len(r.Src)+len(r.Dst) > maxSegments {
		return fmt.Errorf("etrans: %d segments exceed descriptor capacity %d",
			len(r.Src)+len(r.Dst), maxSegments)
	}
	return nil
}

// maxSegments bounds a descriptor to one 512B control packet:
// 4B header + 18B per segment.
const maxSegments = 28

// encodeDescriptor serializes a request for the wire.
func encodeDescriptor(r *Request) []byte {
	buf := make([]byte, 0, 4+18*(len(r.Src)+len(r.Dst)))
	buf = append(buf, byte(len(r.Src)), byte(len(r.Dst)), byte(r.Ownership), r.Priority)
	seg := func(s Segment) {
		var b [18]byte
		binary.LittleEndian.PutUint16(b[0:2], uint16(s.Port))
		binary.LittleEndian.PutUint64(b[2:10], s.Addr)
		binary.LittleEndian.PutUint64(b[10:18], s.Size)
		buf = append(buf, b[:]...)
	}
	for _, s := range r.Src {
		seg(s)
	}
	for _, d := range r.Dst {
		seg(d)
	}
	return buf
}

// decodeDescriptor parses a wire descriptor.
func decodeDescriptor(data []byte) (*Request, error) {
	if len(data) < 4 {
		return nil, errors.New("etrans: short descriptor")
	}
	ns, nd := int(data[0]), int(data[1])
	r := &Request{Ownership: Ownership(data[2]), Priority: data[3]}
	need := 4 + 18*(ns+nd)
	if len(data) < need {
		return nil, fmt.Errorf("etrans: descriptor truncated: %d < %d", len(data), need)
	}
	off := 4
	rd := func() Segment {
		s := Segment{
			Port: flit.PortID(binary.LittleEndian.Uint16(data[off : off+2])),
			Addr: binary.LittleEndian.Uint64(data[off+2 : off+10]),
			Size: binary.LittleEndian.Uint64(data[off+10 : off+18]),
		}
		off += 18
		return s
	}
	for i := 0; i < ns; i++ {
		r.Src = append(r.Src, rd())
	}
	for i := 0; i < nd; i++ {
		r.Dst = append(r.Dst, rd())
	}
	return r, nil
}

// ErrExecutorFailed reports a transaction whose executor (inline path or
// delegated agent) could not move the data — a source or destination
// device refused or stopped answering mid-copy. Match with errors.Is.
// It wraps the cause, a txn error that txn.Typed accepts: the inline
// path's failing segment and its error, or the agent's refusal.
var ErrExecutorFailed = errors.New("etrans: executor failed")

// Result reports a completed transaction.
type Result struct {
	Bytes    uint64
	Executor flit.PortID // who moved the data (initiator itself if inline)
}

// Engine is the initiator-side elastic transaction engine.
type Engine struct {
	eng *sim.Engine
	ep  *txn.Endpoint

	agents []flit.PortID
	// affinity maps a destination port to the preferred agent (the one
	// in its memory domain); absent entries fall back to round-robin.
	affinity map[flit.PortID]flit.PortID
	rr       int

	// arb, when set, gates inline transfers with bandwidth reservations
	// (agents carry their own arbiter clients).
	arb *arbiter.Client

	// InlineLimit is the largest transaction Immediate may run inline.
	InlineLimit uint64

	// Metrics.
	Inline    sim.Counter
	Delegated sim.Counter
}

// NewEngine builds an engine for the initiator endpoint ep.
func NewEngine(eng *sim.Engine, ep *txn.Endpoint) *Engine {
	return &Engine{
		eng:         eng,
		ep:          ep,
		affinity:    make(map[flit.PortID]flit.PortID),
		InlineLimit: link.MaxPacketPayload,
	}
}

// AddAgent registers a migration agent; domainOf lists destination ports
// the agent is co-located with (its memory domain).
func (e *Engine) AddAgent(agent flit.PortID, domainOf ...flit.PortID) {
	e.agents = append(e.agents, agent)
	for _, d := range domainOf {
		e.affinity[d] = agent
	}
}

// SetArbiter installs the central arbiter client used for inline
// transfers.
func (e *Engine) SetArbiter(c *arbiter.Client) { e.arb = c }

// Submit runs one elastic transaction and returns its completion future
// (resolution point depends on req.Ownership).
func (e *Engine) Submit(req *Request) *sim.Future[*Result] {
	f := sim.NewFuture[*Result]()
	if err := req.Validate(); err != nil {
		f.Fail(err)
		return f
	}
	if req.Immediate && req.TotalBytes() <= e.InlineLimit {
		e.Inline.Inc()
		e.eng.Go("etrans-inline", func(p *sim.Proc) {
			if err := copySegments(p, e.ep, e.arb, req); err != nil {
				f.Fail(fmt.Errorf("%w: %w", ErrExecutorFailed, err))
				return
			}
			f.Complete(&Result{Bytes: req.TotalBytes(), Executor: e.ep.ID()})
		})
		return f
	}
	if len(e.agents) == 0 {
		f.Fail(errors.New("etrans: no migration agents registered"))
		return f
	}
	e.Delegated.Inc()
	agent := e.pickAgent(req)
	desc := encodeDescriptor(req)
	e.ep.Request(&flit.Packet{
		Chan: flit.ChCtrl, Op: flit.OpETrans, Dst: agent,
		Size: uint32(len(desc)), Data: desc,
	}).OnComplete(func(_ *flit.Packet, err error) {
		switch {
		case errors.Is(err, txn.ErrRefused): // the agent's copy failed
			f.Fail(fmt.Errorf("%w: agent %d: %w", ErrExecutorFailed, agent, err))
		case err != nil:
			f.Fail(err)
		default:
			f.Complete(&Result{Bytes: req.TotalBytes(), Executor: agent})
		}
	})
	return f
}

// SubmitP is the blocking form of Submit.
func (e *Engine) SubmitP(p *sim.Proc, req *Request) *Result {
	return e.Submit(req).MustAwait(p)
}

// pickAgent prefers the destination's domain agent, else round-robin.
func (e *Engine) pickAgent(req *Request) flit.PortID {
	if len(req.Dst) > 0 {
		if a, ok := e.affinity[req.Dst[0].Port]; ok {
			return a
		}
	}
	a := e.agents[e.rr%len(e.agents)]
	e.rr++
	return a
}

// Agent is a migration agent: a small executor endpoint placed in a
// memory domain (e.g. on a FAM chassis backplane) that executes
// delegated transactions so initiator cores never stall on bulk copies.
type Agent struct {
	eng *sim.Engine
	ep  *txn.Endpoint
	arb *arbiter.Client

	Executed   sim.Counter
	BytesMoved sim.Counter
	Failed     sim.Counter
}

// NewAgent attaches a migration agent at att.
func NewAgent(eng *sim.Engine, att *fabric.Attachment) *Agent {
	a := &Agent{eng: eng}
	a.ep = txn.NewEndpoint(eng, att.ID, att.Port, 0)
	a.ep.Handler = a.handle
	att.Port.SetSink(a.ep)
	return a
}

// ID reports the agent's fabric port.
func (a *Agent) ID() flit.PortID { return a.ep.ID() }

// SetArbiter makes the agent reserve destination bandwidth per chunk.
func (a *Agent) SetArbiter(c *arbiter.Client) { a.arb = c }

func (a *Agent) handle(req *flit.Packet, reply func(*flit.Packet)) {
	if req.Op != flit.OpETrans {
		panic("etrans: agent got " + req.Op.String())
	}
	r, err := decodeDescriptor(req.Data)
	if err != nil {
		panic("etrans: bad descriptor: " + err.Error())
	}
	run := func(done func(err error)) {
		a.eng.Go("etrans-agent", func(p *sim.Proc) {
			if err := copySegments(p, a.ep, a.arb, r); err != nil {
				a.Failed.Inc()
				done(err)
				return
			}
			a.Executed.Inc()
			a.BytesMoved.Add(int64(r.TotalBytes()))
			done(nil)
		})
	}
	switch r.Ownership {
	case OwnExecutor:
		// Accept now; the initiator is released immediately. The executor
		// owns completion, so a copy failure is the agent's to count —
		// the initiator asked not to hear about it.
		reply(req.Response(flit.OpETransDone, 0))
		run(func(error) {})
	default:
		run(func(err error) {
			if err != nil {
				reply(req.Response(flit.OpMemErr, 0))
				return
			}
			reply(req.Response(flit.OpETransDone, 0))
		})
	}
}

// copySegments streams src segments into dst segments in max-payload
// chunks through ep, carrying real bytes. When arb is set, each chunk's
// destination bandwidth is reserved first. A chunk or reservation that
// fails (a timeout on a dead path, a refusal from a partitioned device)
// aborts the copy with its txn error, naming the failing segment.
func copySegments(p *sim.Proc, ep *txn.Endpoint, arb *arbiter.Client, r *Request) error {
	si, di := 0, 0
	var sOff, dOff uint64
	for si < len(r.Src) {
		s, d := r.Src[si], r.Dst[di]
		chunk := uint64(link.MaxPacketPayload)
		if rem := s.Size - sOff; rem < chunk {
			chunk = rem
		}
		if rem := d.Size - dOff; rem < chunk {
			chunk = rem
		}
		// Read the chunk from the source node.
		rdResp, err := ep.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd,
			Dst: s.Port, Addr: s.Addr + sOff, ReqLen: uint32(chunk)}).Await(p)
		if err != nil {
			return fmt.Errorf("read %d@%#x: %w", s.Port, s.Addr+sOff, err)
		}
		if arb != nil {
			if _, err := arb.Reserve(d.Port, chunk).Await(p); err != nil {
				return fmt.Errorf("reserve toward %d: %w", d.Port, err)
			}
		}
		_, werr := ep.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
			Dst: d.Port, Addr: d.Addr + dOff, Size: uint32(chunk),
			Data: rdResp.Data}).Await(p)
		if arb != nil {
			if _, err := arb.Reclaim(d.Port, chunk).Await(p); err != nil && werr == nil {
				return fmt.Errorf("reclaim toward %d: %w", d.Port, err)
			}
		}
		if werr != nil {
			return fmt.Errorf("write %d@%#x: %w", d.Port, d.Addr+dOff, werr)
		}
		sOff += chunk
		dOff += chunk
		if sOff == s.Size {
			si++
			sOff = 0
		}
		if dOff == d.Size {
			di++
			dOff = 0
		}
	}
	return nil
}

// Endpoint exposes the agent's fabric endpoint (e.g. to attach an
// arbiter client).
func (a *Agent) Endpoint() *txn.Endpoint { return a.ep }

// RegisterStats attaches the engine's placement counters to a registry.
func (e *Engine) RegisterStats(s *sim.Stats) {
	s.Register("inline", &e.Inline)
	s.Register("delegated", &e.Delegated)
}

// RegisterStats attaches the agent's execution counters and endpoint.
func (a *Agent) RegisterStats(s *sim.Stats) {
	s.Register("executed", &a.Executed)
	s.Register("bytes_moved", &a.BytesMoved)
	s.Register("failed", &a.Failed)
	a.ep.RegisterStats(s.Child("ep"))
}
