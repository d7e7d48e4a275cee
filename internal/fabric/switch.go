// Package fabric implements the switching fabric of the composable
// infrastructure (§2.2): fabric switches with upstream/downstream ports,
// bounded output queues with backpressure, PBR (port-based routing)
// tables filled by a central fabric manager, adaptive multi-path
// routing, and a topology builder that assembles hosts, FAM and FAA
// chassis, and switches into a cluster — the architecture of Figure 1b.
package fabric

//fcclint:hotpath route tables and crossbar state must stay dense (PR 5)

import (
	"fmt"

	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// SwitchConfig controls one fabric switch.
type SwitchConfig struct {
	// Latency is the crossbar traversal time per packet. The FabreX
	// datasheet the paper cites claims <100ns non-blocking per port; the
	// Omega testbed is similar.
	Latency sim.Time
	// OutQueueFlits bounds each output port's transmit queue per VC.
	// When an output is full, inbound packets hold their input receive
	// buffers — that is how backpressure (and congestion trees, §3 D#3)
	// propagate upstream.
	OutQueueFlits int
	// Adaptive selects the least-loaded output among equal-cost paths
	// instead of always the first (§2.1 "adaptive routing techniques").
	Adaptive bool
}

// DefaultSwitchConfig matches the <100ns/port class of hardware.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{Latency: 80 * sim.Nanosecond, OutQueueFlits: 64}
}

// Switch is a PBR-capable fabric switch. Ports are created by the
// topology Builder; the routing table is installed by the fabric
// manager after discovery.
type Switch struct {
	eng  *sim.Engine
	name string
	cfg  SwitchConfig
	// idx is the switch's creation index in its Builder — the dense key
	// the route engine uses instead of a map[*Switch]int — and dom its
	// failure domain (always 0 on an unsharded builder).
	idx, dom int

	ports []*swPort

	// routes is a dense table indexed by destination PBR ID (12-bit, so
	// at most 4096 entries): candidate output port indexes, all tied at
	// shortest distance (adaptive routing picks among them). A nil entry
	// means no route. The table is grown to the highest installed ID and
	// zeroed in place on manager re-fills, so the packet-path lookup is
	// one bounds check and one indexed load — no map hashing.
	routes  [][]int
	nroutes int

	// hopFree pools crossbar-traversal event states so a forwarded
	// packet costs no closure allocation per hop.
	hopFree *xbarHop

	// pending gathers every crossbar traversal that completes at the
	// current instant; a single arbitration event (scheduled 0 ps later,
	// so it runs after the whole same-instant cohort has been collected)
	// resolves them in input-port order. Routing and output-space
	// decisions are therefore a function of the cohort, never of the
	// engine's tie-break order among same-picosecond deliveries — the
	// switch-level analogue of the link port's stall-episode deferral
	// (see DESIGN.md, "Tie discipline"). Without this, a cross-shard
	// delivery and a local delivery landing on the same picosecond could
	// contend for the last output slot in either order, and serial vs
	// sharded runs would legally — but observably — diverge.
	pending  []*xbarHop
	arbArmed bool

	// rr rotates tie-breaking among equal-cost adaptive candidates.
	rr int

	// down marks a crashed switch: arriving and held packets are dropped
	// (with their input buffers released, so upstream ports don't wedge
	// past the crash) until Recover. downAt feeds time-to-recover
	// accounting in the fabric manager.
	down   bool
	downAt sim.Time

	// dropUnroutable switches no-route handling from panic (a topology
	// bug in a static fabric) to drop-and-count (normal life in a fabric
	// whose manager removes routes to dead endpoints). The manager turns
	// this on for every switch it supervises.
	dropUnroutable bool

	// Metrics.
	PktsRouted  sim.Counter
	HolStalls   sim.Counter // packets that had to wait for output space
	PktsDropped sim.Counter // packets dropped because this switch was down
	NoRoute     sim.Counter // packets dropped for lack of a route (lossy mode)
	Transit     *sim.Histogram
}

// swPort is one switch port: the switch side of a link.
type swPort struct {
	sw   *Switch
	idx  int
	port *link.Port
	// waiting holds packets routed to this port but blocked on output
	// queue space. Their input-side release closures are held too, so
	// backpressure propagates to the upstream sender.
	waiting []heldPacket
}

type heldPacket struct {
	pkt     *flit.Packet
	release func()
}

// initSwitch fills a (possibly arena-backed) Switch in place, so the
// Builder can allocate switches in one slab instead of one heap object
// per switch.
func initSwitch(s *Switch, eng *sim.Engine, name string, cfg SwitchConfig) {
	if cfg.OutQueueFlits <= 0 {
		cfg.OutQueueFlits = 64
	}
	s.eng = eng
	s.name = name
	s.cfg = cfg
	s.Transit = sim.NewHistogram()
}

// Name reports the switch name.
func (s *Switch) Name() string { return s.name }

// Ports reports the number of attached ports.
func (s *Switch) Ports() int { return len(s.ports) }

// attach registers a link port as switch port index len(ports).
func (s *Switch) attach(p *link.Port) int {
	sp := &swPort{sw: s, idx: len(s.ports), port: p}
	p.SetSink(sp)
	p.DrainHook = sp.tryDrain
	s.ports = append(s.ports, sp)
	return sp.idx
}

// InstallRoute sets the candidate output ports for a destination.
func (s *Switch) InstallRoute(dst flit.PortID, outs []int) {
	for _, o := range outs {
		if o < 0 || o >= len(s.ports) {
			panic(fmt.Sprintf("fabric: switch %s route to %d via invalid port %d", s.name, dst, o))
		}
	}
	if outs == nil {
		outs = []int{} // presence marker: installed, but no candidates
	}
	if int(dst) >= len(s.routes) {
		grown := make([][]int, int(dst)+1)
		copy(grown, s.routes)
		s.routes = grown
	}
	if s.routes[dst] == nil {
		s.nroutes++
	}
	s.routes[dst] = outs
}

// ClearRoute removes a single destination entry (the manager severs
// routes to dead endpoints this way without rebuilding the table).
func (s *Switch) ClearRoute(dst flit.PortID) {
	if int(dst) < len(s.routes) && s.routes[dst] != nil {
		s.routes[dst] = nil
		s.nroutes--
	}
}

// reserveRoutes grows the dense table to cover destination IDs up to
// maxID, so route installs never reallocate it mid-fill.
func (s *Switch) reserveRoutes(maxID flit.PortID) {
	if int(maxID) >= len(s.routes) {
		grown := make([][]int, int(maxID)+1)
		copy(grown, s.routes)
		s.routes = grown
	}
}

// ReservePorts presizes the port slice for a switch whose degree is
// known up front (topology generators know the radix).
func (s *Switch) ReservePorts(n int) {
	if cap(s.ports) < n {
		grown := make([]*swPort, len(s.ports), n)
		copy(grown, s.ports)
		s.ports = grown
	}
}

// routeFor looks up the candidate outputs for a destination (nil when
// no route is installed).
func (s *Switch) routeFor(dst flit.PortID) []int {
	if int(dst) < len(s.routes) {
		return s.routes[dst]
	}
	return nil
}

// Routes reports the number of installed destination entries.
func (s *Switch) Routes() int { return s.nroutes }

// xbarHop carries one packet's crossbar-traversal state between Arrive
// and the traversal event, drawn from the switch's free list so the
// per-hop event schedules closure-free.
type xbarHop struct {
	sw      *Switch
	pkt     *flit.Packet
	release func()
	arrived sim.Time
	in      int // input port index: the canonical same-instant sort key
	next    *xbarHop
}

// Arrive implements link.Sink for a switch port.
func (sp *swPort) Arrive(pkt *flit.Packet, release func()) {
	s := sp.sw
	if s.down {
		s.PktsDropped.Inc()
		release()
		return
	}
	pkt.Hops++
	h := s.hopFree
	if h == nil {
		h = &xbarHop{sw: s}
	} else {
		s.hopFree = h.next
	}
	h.pkt, h.release, h.arrived, h.in = pkt, release, s.eng.Now(), sp.idx
	// Crossbar traversal, then output enqueue (or hold under backpressure).
	// The route lookup happens at arbitration so a table the manager
	// re-filled mid-flight steers even packets already inside the switch.
	s.eng.After2(s.cfg.Latency, xbarTraverse, h)
}

// xbarTraverse completes one packet's crossbar traversal: it joins the
// instant's pending cohort and arms the arbitration pass. All routing
// and output-space decisions are deferred to xbarArbitrate so they
// cannot depend on the engine's ordering of same-picosecond traversals.
func xbarTraverse(a any) {
	h := a.(*xbarHop)
	s := h.sw
	if s.down {
		s.PktsDropped.Inc()
		s.recycle(h)()
		return
	}
	s.pending = append(s.pending, h)
	s.armArb()
}

// armArb schedules the per-instant arbitration event once. A 0 ps delay
// keeps the forwarding timestamp identical to the traversal completion;
// the event merely runs after every same-instant traversal (and every
// same-instant drain trigger) has been collected — those were all
// scheduled at strictly earlier instants, so they carry lower sequence
// numbers in serial and sharded runs alike.
func (s *Switch) armArb() {
	if s.arbArmed {
		return
	}
	s.arbArmed = true
	s.eng.After2(0, xbarArbitrate, s)
}

// recycle detaches a hop's packet state and returns its release
// closure, putting the hop back on the free list.
func (s *Switch) recycle(h *xbarHop) func() {
	release := h.release
	h.pkt, h.release = nil, nil
	h.next = s.hopFree
	s.hopFree = h
	return release
}

// xbarArbitrate resolves the instant's forwarding decisions in
// canonical order: packets already held under backpressure drain first
// (output-port order — they are the oldest), then the newly traversed
// cohort in input-port order. One packet per input port can complete
// traversal per instant (links serialize), so the input index is a
// total order on the cohort.
func xbarArbitrate(a any) {
	s := a.(*Switch)
	s.arbArmed = false
	if s.down {
		for _, h := range s.pending {
			s.PktsDropped.Inc()
			s.recycle(h)()
		}
		s.pending = s.pending[:0]
		return
	}
	for _, sp := range s.ports {
		sp.drainWaiting()
	}
	// Insertion sort by input port: the cohort is tiny (bounded by the
	// port count) and almost always length 1.
	for i := 1; i < len(s.pending); i++ {
		for j := i; j > 0 && s.pending[j].in < s.pending[j-1].in; j-- {
			s.pending[j], s.pending[j-1] = s.pending[j-1], s.pending[j]
		}
	}
	for _, h := range s.pending {
		pkt, arrived := h.pkt, h.arrived
		release := s.recycle(h)
		outs := s.routeFor(pkt.Dst)
		if len(outs) == 0 {
			if s.dropUnroutable {
				s.NoRoute.Inc()
				release()
				continue
			}
			panic(fmt.Sprintf("fabric: switch %s has no route to %d (packet %v)", s.name, pkt.Dst, pkt))
		}
		out := s.pickOutput(outs, pkt)
		op := s.ports[out]
		if s.spaceFor(op, pkt) {
			s.forward(op, pkt, release, arrived)
			continue
		}
		s.HolStalls.Inc()
		op.waiting = append(op.waiting, heldPacket{pkt: pkt, release: release})
	}
	s.pending = s.pending[:0]
}

// pickOutput selects among equal-cost candidates.
func (s *Switch) pickOutput(outs []int, pkt *flit.Packet) int {
	if !s.cfg.Adaptive || len(outs) == 1 {
		return outs[0]
	}
	// Least-loaded wins; ties rotate so equal-cost paths share traffic.
	s.rr++
	best, bestLoad := -1, 1<<30
	for i := range outs {
		o := outs[(s.rr+i)%len(outs)]
		load := s.ports[o].port.TxQueueFlits(pkt.Chan) + len(s.ports[o].waiting)
		if load < bestLoad {
			best, bestLoad = o, load
		}
	}
	return best
}

func (s *Switch) spaceFor(op *swPort, pkt *flit.Packet) bool {
	mode := op.port.Config().Mode
	need := mode.FlitsFor(pkt.Size)
	return op.port.TxQueueFlits(pkt.Chan)+need <= s.cfg.OutQueueFlits
}

func (s *Switch) forward(op *swPort, pkt *flit.Packet, release func(), arrived sim.Time) {
	op.port.Send(pkt)
	release() // input buffer freed only once the packet has output space
	s.PktsRouted.Inc()
	s.Transit.ObserveTime(s.eng.Now() - arrived)
}

// Fail crashes the switch: every packet held under backpressure is
// dropped (releasing its input buffer, so upstream senders see their
// credits again rather than wedging forever), and packets arriving or
// mid-crossbar are dropped until Recover. Routes are retained — a
// recovered switch forwards again immediately, and the manager's next
// reroute refreshes any table that went stale during the outage.
func (s *Switch) Fail() {
	if s.down {
		return
	}
	s.down = true
	s.downAt = s.eng.Now()
	for _, sp := range s.ports {
		for _, h := range sp.waiting {
			s.PktsDropped.Inc()
			h.release()
		}
		sp.waiting = nil
	}
	for _, h := range s.pending {
		s.PktsDropped.Inc()
		s.recycle(h)()
	}
	s.pending = s.pending[:0]
}

// Recover restores a crashed switch.
func (s *Switch) Recover() { s.down = false }

// Down reports whether the switch is crashed — the fabric manager's
// heartbeat sweep polls this.
func (s *Switch) Down() bool { return s.down }

// FailedAt reports when the switch last crashed.
func (s *Switch) FailedAt() sim.Time { return s.downAt }

// SetDropUnroutable selects drop-and-count (true) or panic (false) for
// packets with no installed route.
func (s *Switch) SetDropUnroutable(v bool) { s.dropUnroutable = v }

// FaultID implements fault.Injectable: the switch name.
func (s *Switch) FaultID() string { return s.name }

// Supports reports that a switch can crash.
func (s *Switch) Supports(k fault.Kind) bool { return k == fault.SwitchCrash }

// InjectFault implements fault.Injectable.
func (s *Switch) InjectFault(f fault.Fault) error {
	if f.Kind != fault.SwitchCrash {
		return fmt.Errorf("fabric: switch %s does not support %v", s.name, f.Kind)
	}
	s.Fail()
	return nil
}

// HealFault implements fault.Injectable.
func (s *Switch) HealFault(k fault.Kind) error {
	if k != fault.SwitchCrash {
		return fmt.Errorf("fabric: switch %s does not support %v", s.name, k)
	}
	s.Recover()
	return nil
}

// ClearRoutes empties the PBR table ahead of a manager re-fill, keeping
// the dense table's storage.
func (s *Switch) ClearRoutes() {
	clear(s.routes)
	s.nroutes = 0
}

// tryDrain is the link port's DrainHook: output space freed up. The
// actual drain is deferred to the arbitration pass so that held packets
// and same-instant traversals resolve in one canonical order.
func (sp *swPort) tryDrain() {
	s := sp.sw
	if s.down || len(sp.waiting) == 0 {
		return
	}
	s.armArb()
}

// drainWaiting moves held packets into the output queue as space frees.
func (sp *swPort) drainWaiting() {
	s := sp.sw
	for len(sp.waiting) > 0 {
		h := sp.waiting[0]
		if !s.spaceFor(sp, h.pkt) {
			return
		}
		sp.waiting = sp.waiting[1:]
		s.forward(sp, h.pkt, h.release, s.eng.Now())
	}
}

// QueuedAt reports held (backpressured) packets at an output port.
func (s *Switch) QueuedAt(port int) int { return len(s.ports[port].waiting) }

// Port exposes the link port behind switch port i (credit-allocation
// policies resize its receive buffers; tests inspect its counters).
func (s *Switch) Port(i int) *link.Port { return s.ports[i].port }

// RegisterStats attaches the switch's counters, transit histogram, and
// every switch-side link port (named after its link, so "host0<->fs0.B"
// is addressable fabric-wide) to a stats registry.
func (s *Switch) RegisterStats(st *sim.Stats) {
	st.Register("pkts_routed", &s.PktsRouted)
	st.Register("hol_stalls", &s.HolStalls)
	st.Register("pkts_dropped", &s.PktsDropped)
	st.Register("no_route", &s.NoRoute)
	st.Gauge("down", func() int64 {
		if s.down {
			return 1
		}
		return 0
	})
	st.RegisterHistogram("transit_ns", s.Transit)
	for _, sp := range s.ports {
		sp := sp
		c := st.Child(sp.port.Name())
		sp.port.RegisterStats(c)
		c.Gauge("held_pkts", func() int64 { return int64(len(sp.waiting)) })
	}
}
