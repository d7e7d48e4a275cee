// Package arbiter implements FCC Design Principle #4: an in-band
// centralized fabric arbiter reached over the dedicated control lane
// (flit.ChCtrl). Initiators reserve bandwidth credits toward a
// destination before launching bulk transfers; the arbiter enforces a
// per-destination outstanding-bytes window, queueing grants when a
// destination is saturated. This is admission control at the fabric
// level: bulk traffic can no longer build deep queues in front of a
// device and destroy the latency of small synchronous loads/stores.
//
// The programmable interface the paper sketches — query, reserve,
// reclaim — is exactly the Client API; the grant future is the
// "distributed futures"-style abstraction applications compose with.
package arbiter

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// Config controls the arbiter.
type Config struct {
	// DefaultWindow is the per-destination outstanding-bytes budget.
	DefaultWindow uint64
	// DecisionLat is the arbiter's processing time per request.
	DecisionLat sim.Time
	// AIMD enables dynamic per-destination windows: each epoch a
	// destination whose grant queue backed up has its window halved
	// (multiplicative decrease, floor MinWindow); an uncongested
	// destination grows by AdditiveStep up to MaxWindow. This is the
	// congestion-control half of Principle #4.
	AIMD         bool
	AIMDEpoch    sim.Time
	MinWindow    uint64
	MaxWindow    uint64
	AdditiveStep uint64
}

// DefaultConfig allows 4KB outstanding per destination — a handful of
// max-size packets, keeping device-port queues shallow.
func DefaultConfig() Config {
	return Config{
		DefaultWindow: 4096,
		DecisionLat:   20 * sim.Nanosecond,
	}
}

type pendingGrant struct {
	bytes uint64
	reply func(*flit.Packet)
	req   *flit.Packet
}

// Arbiter is the central fabric arbiter, attached to the fabric as a
// manager endpoint.
type Arbiter struct {
	eng *sim.Engine
	cfg Config
	ep  *txn.Endpoint

	outstanding map[flit.PortID]uint64
	waiting     map[flit.PortID]*sim.Queue[pendingGrant] // made on first use, kept
	// dynWindow holds AIMD-adjusted per-destination windows.
	dynWindow map[flit.PortID]uint64
	// congested marks destinations whose queue backed up this epoch.
	congested map[flit.PortID]bool

	// Metrics.
	Reserves sim.Counter
	Granted  sim.Counter
	Queued   sim.Counter
	Reclaims sim.Counter
	Queries  sim.Counter
}

// New attaches an arbiter at att (typically a fabric.RoleManager
// attachment).
func New(eng *sim.Engine, att *fabric.Attachment, cfg Config) *Arbiter {
	if cfg.DefaultWindow == 0 {
		cfg.DefaultWindow = 4096
	}
	a := &Arbiter{
		eng:         eng,
		cfg:         cfg,
		outstanding: make(map[flit.PortID]uint64),
		waiting:     make(map[flit.PortID]*sim.Queue[pendingGrant]),
		dynWindow:   make(map[flit.PortID]uint64),
		congested:   make(map[flit.PortID]bool),
	}
	a.ep = txn.NewEndpoint(eng, att.ID, att.Port, 0)
	a.ep.Handler = a.handle
	att.Port.SetSink(a.ep)
	if cfg.AIMD {
		if a.cfg.AIMDEpoch <= 0 {
			a.cfg.AIMDEpoch = 5 * sim.Microsecond
		}
		if a.cfg.MinWindow == 0 {
			a.cfg.MinWindow = 512
		}
		if a.cfg.MaxWindow == 0 {
			a.cfg.MaxWindow = 4 * cfg.DefaultWindow
		}
		if a.cfg.AdditiveStep == 0 {
			a.cfg.AdditiveStep = 512
		}
		var tick func()
		tick = func() {
			a.aimdEpoch()
			if a.eng.Pending() > 0 {
				a.eng.After(a.cfg.AIMDEpoch, tick)
			}
		}
		a.eng.After(a.cfg.AIMDEpoch, tick)
	}
	return a
}

// aimdEpoch adjusts per-destination windows from last epoch's pressure.
func (a *Arbiter) aimdEpoch() {
	// Sweep destinations in sorted order, not map order: drain issues
	// grants (scheduling engine events), so iterating a.congested
	// directly would order same-instant events by Go's randomized map
	// iteration and break same-seed determinism (fcclint: maporder).
	dsts := make([]flit.PortID, 0, len(a.congested))
	for dst := range a.congested {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		congested := a.congested[dst]
		w := a.window(dst)
		// A standing grant queue is congestion even with no new
		// arrivals this epoch.
		if congested || a.WaitingAt(dst) > 0 {
			w /= 2
			if w < a.cfg.MinWindow {
				w = a.cfg.MinWindow
			}
		} else {
			w += a.cfg.AdditiveStep
			if w > a.cfg.MaxWindow {
				w = a.cfg.MaxWindow
			}
		}
		a.dynWindow[dst] = w
		a.congested[dst] = false
		a.drain(dst)
	}
}

// ID reports the arbiter's fabric port.
func (a *Arbiter) ID() flit.PortID { return a.ep.ID() }

// Outstanding reports reserved-but-unreclaimed bytes toward dst.
func (a *Arbiter) Outstanding(dst flit.PortID) uint64 { return a.outstanding[dst] }

// WaitingAt reports queued reservations for dst.
func (a *Arbiter) WaitingAt(dst flit.PortID) int {
	if q := a.waiting[dst]; q != nil {
		return q.Len()
	}
	return 0
}

func (a *Arbiter) window(dst flit.PortID) uint64 {
	if a.cfg.AIMD {
		if w, ok := a.dynWindow[dst]; ok {
			return w
		}
	}
	return a.cfg.DefaultWindow
}

// Window reports the current (possibly AIMD-adjusted) window for dst.
func (a *Arbiter) Window(dst flit.PortID) uint64 { return a.window(dst) }

func (a *Arbiter) handle(req *flit.Packet, reply func(*flit.Packet)) {
	dst := flit.PortID(req.Addr)
	bytes := uint64(req.ReqLen)
	switch req.Op {
	case flit.OpCtrlCreditReserve:
		a.Reserves.Inc()
		maxW := a.window(dst)
		if a.cfg.AIMD {
			maxW = a.cfg.MinWindow // AIMD may shrink to the floor later
		}
		if bytes == 0 || bytes > maxW {
			panic(fmt.Sprintf("arbiter: reservation of %d bytes toward %d exceeds window %d (unsatisfiable)",
				bytes, dst, maxW))
		}
		if a.cfg.AIMD {
			a.congested[dst] = a.congested[dst] || false // register dst for epochs
		}
		a.eng.After(a.cfg.DecisionLat, func() {
			if a.outstanding[dst]+bytes <= a.window(dst) {
				a.grant(dst, bytes, req, reply)
				return
			}
			a.Queued.Inc()
			if a.cfg.AIMD {
				a.congested[dst] = true
			}
			q := a.waiting[dst]
			if q == nil {
				q = new(sim.Queue[pendingGrant])
				a.waiting[dst] = q
			}
			q.Push(pendingGrant{bytes: bytes, reply: reply, req: req})
		})
	case flit.OpCtrlCreditReclaim:
		a.Reclaims.Inc()
		a.eng.After(a.cfg.DecisionLat, func() {
			if a.outstanding[dst] < bytes {
				panic(fmt.Sprintf("arbiter: reclaim of %d bytes toward %d exceeds outstanding %d",
					bytes, dst, a.outstanding[dst]))
			}
			a.outstanding[dst] -= bytes
			reply(req.Response(flit.OpCtrlGrant, 0))
			a.drain(dst)
		})
	case flit.OpCtrlCreditQuery:
		a.Queries.Inc()
		a.eng.After(a.cfg.DecisionLat, func() {
			avail := a.window(dst) - a.outstanding[dst]
			resp := req.Response(flit.OpCtrlGrant, 8)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], avail)
			resp.Data = b[:]
			reply(resp)
		})
	default:
		panic("arbiter: unexpected op " + req.Op.String())
	}
}

func (a *Arbiter) grant(dst flit.PortID, bytes uint64, req *flit.Packet, reply func(*flit.Packet)) {
	a.outstanding[dst] += bytes
	a.Granted.Inc()
	reply(req.Response(flit.OpCtrlGrant, 0))
}

// drain grants queued reservations FIFO while the window allows.
func (a *Arbiter) drain(dst flit.PortID) {
	q := a.waiting[dst]
	if q == nil {
		return
	}
	for q.Len() > 0 && a.outstanding[dst]+q.Front().bytes <= a.window(dst) {
		g := q.Pop()
		a.grant(dst, g.bytes, g.req, g.reply)
	}
}

// Client is an initiator-side handle to the arbiter.
type Client struct {
	ep  *txn.Endpoint
	arb flit.PortID
}

// NewClient builds a client that talks to the arbiter at arb via ep.
func NewClient(ep *txn.Endpoint, arb flit.PortID) *Client {
	return &Client{ep: ep, arb: arb}
}

func (c *Client) ctrl(op flit.Op, dst flit.PortID, bytes uint64) *sim.Future[*flit.Packet] {
	return c.ep.Request(&flit.Packet{
		Chan:   flit.ChCtrl,
		Op:     op,
		Dst:    c.arb,
		Addr:   uint64(dst),
		ReqLen: uint32(bytes),
	})
}

// Reserve asks for bytes of bandwidth credit toward dst; the future
// resolves to the grant when the arbiter grants (possibly after
// queueing).
func (c *Client) Reserve(dst flit.PortID, bytes uint64) *sim.Future[*flit.Packet] {
	return c.ctrl(flit.OpCtrlCreditReserve, dst, bytes)
}

// Reclaim returns bytes of credit toward dst; the future resolves to the
// acknowledgement.
func (c *Client) Reclaim(dst flit.PortID, bytes uint64) *sim.Future[*flit.Packet] {
	return c.ctrl(flit.OpCtrlCreditReclaim, dst, bytes)
}

// QueryP reports available credit bytes toward dst.
func (c *Client) QueryP(p *sim.Proc, dst flit.PortID) uint64 {
	resp := c.ctrl(flit.OpCtrlCreditQuery, dst, 0).MustAwait(p)
	return binary.LittleEndian.Uint64(resp.Data)
}

// ReserveP / ReclaimP are the blocking forms.
func (c *Client) ReserveP(p *sim.Proc, dst flit.PortID, bytes uint64) {
	c.Reserve(dst, bytes).MustAwait(p)
}

// ReclaimP blocks until the reclaim is acknowledged.
func (c *Client) ReclaimP(p *sim.Proc, dst flit.PortID, bytes uint64) {
	c.Reclaim(dst, bytes).MustAwait(p)
}

// RegisterStats attaches the arbiter's decision counters to a registry.
func (a *Arbiter) RegisterStats(s *sim.Stats) {
	s.Register("reserves", &a.Reserves)
	s.Register("granted", &a.Granted)
	s.Register("queued", &a.Queued)
	s.Register("reclaims", &a.Reclaims)
	s.Register("queries", &a.Queries)
	s.Gauge("congested_dsts", func() int64 { return int64(len(a.congested)) })
}
