package link

import (
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/telemetry"
)

// Link is one bidirectional physical link with a Port at each end.
type Link struct {
	name string
	a, b *Port
}

// New creates a link on one engine. Sinks are attached to the ports
// afterwards with SetSink; packets sent on A arrive at B's sink and vice
// versa. Both ports draw their flits and records from the engine's
// recycling home, which every link on the engine shares (see home).
func New(eng *sim.Engine, name string, cfg Config) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Link{
		name: name,
		a:    newPort(eng, name+".A", cfg),
		b:    newPort(eng, name+".B", cfg),
	}
	l.a.peer, l.b.peer = l.b, l.a
	return l, nil
}

// Name reports the link's constructor-given name.
func (l *Link) Name() string { return l.name }

// A returns the first endpoint.
func (l *Link) A() *Port { return l.a }

// B returns the second endpoint.
func (l *Link) B() *Port { return l.b }

// home is one engine's link-layer recycling home. Every port on the
// engine draws its flits from the home's pool for its flit mode and its
// txPacket, linkMsg and pktRelease records from the home's free lists,
// so a flit or record one port lets go of is the next one any port on
// the engine draws, still warm in cache. The engine fires one event at a
// time, so plain LIFO lists are race-free; a flit never changes engines,
// and Pool.Release panics on one that would.
type home struct {
	pools   [flit.Mode256 + 1]*flit.Pool // by flit.Mode, made on first use
	txpFree *txPacket
	msgFree *linkMsg
	relFree *pktRelease
}

// homeKey is the home's key among the engine's locals.
type homeKey struct{}

// homeOf returns eng's home, making it on first use.
func homeOf(eng *sim.Engine) *home {
	return eng.Local(homeKey{}, func() any { return new(home) }).(*home)
}

// pool returns the home's flit pool for mode m.
func (h *home) pool(m flit.Mode) *flit.Pool {
	if h.pools[m] == nil {
		h.pools[m] = flit.NewPool(m)
	}
	return h.pools[m]
}

// LiveFlits reports the flits the pools of eng's link layer have handed
// out and not had back: zero once every link on the engine is idle with
// nothing held, so anything else at quiescence is a leak.
func LiveFlits(eng *sim.Engine) int {
	n := 0
	for _, pl := range homeOf(eng).pools {
		if pl != nil {
			n += pl.Live()
		}
	}
	return n
}

// txPacket is a packet queued for transmission, flit by flit, with the
// header fields the tracer names it by. Instances are recycled through
// the engine's free list; the flits slice keeps its capacity across
// reuse so a steady-state Send or Forward performs no allocation.
type txPacket struct {
	hdr   flit.Header
	flits []*flit.Flit
	next  int
	enq   sim.Time
	free  *txPacket
}

// linkMsg is the pooled argument block for the port's closure-free
// scheduled events: serialization completion, flit delivery, ack/nak,
// and credit return all travel as (static fn, *linkMsg) pairs instead of
// per-event closures, so the wire hot path allocates nothing in steady
// state. p is the port the event acts on. On a local link the message
// carries the flit itself; on a cross link (xlink.go) it carries a copy
// of the flit's fields and payload, since the flit cannot change
// engines.
type linkMsg struct {
	p    *Port
	vc   flit.Channel
	last bool
	crc  uint16
	seq  uint32
	f    *flit.Flit
	n    int
	data []byte
	next *linkMsg
}

// getMsg draws a message record for an event at p from the engine's
// free list.
func (p *Port) getMsg() *linkMsg {
	h := p.home
	m := h.msgFree
	if m == nil {
		return &linkMsg{p: p}
	}
	h.msgFree = m.next
	m.next, m.p = nil, p
	return m
}

// putMsg recycles a message block, dropping its flit pointer so a parked
// free-list entry never pins a payload buffer.
func (p *Port) putMsg(m *linkMsg) {
	m.f = nil
	m.next = p.home.msgFree
	p.home.msgFree = m
}

// wire sends one ack, nak or credit return to the peer after delay: an
// event on this engine for a local link, a message through the mailbox
// for a cross link.
func (p *Port) wire(delay sim.Time, fn func(any), vc flit.Channel, seq uint32, n int) {
	if p.xmb != nil {
		m := p.xmsg()
		m.vc, m.seq, m.n = vc, seq, n
		p.remote(delay, fn, m)
		return
	}
	m := p.getMsg()
	m.p, m.vc, m.seq, m.n = p.peer, vc, seq, n
	p.eng.After2(delay, fn, m)
}

// consumed recycles a wire message at the port it arrived at: into this
// engine's list on a local link, or, on a cross link, back through the
// mailbox it came by, for the sender's engine to reuse after the next
// barrier.
func (p *Port) consumed(m *linkMsg) {
	if p.xmb != nil {
		p.peer.xmb.Return(m)
		return
	}
	p.putMsg(m)
}

// serDone fires when the last bit of a flit has left the transmitter:
// free the wire, launch the flit toward the peer, refill, and continue.
// The delivery event is scheduled before DrainHook/kick run so the event
// sequence numbers (and therefore same-seed ordering) match the previous
// closure-based implementation exactly.
func serDone(a any) {
	m := a.(*linkMsg)
	p, vc, f := m.p, m.vc, m.f
	p.putMsg(m)
	p.sending = false
	if p.xmb != nil {
		p.sendRemoteFlit(vc, f)
	} else {
		dm := p.getMsg()
		dm.p, dm.vc, dm.f = p.peer, vc, f
		p.eng.After2(p.cfg.Phys.Propagation, deliverFlit, dm)
	}
	if p.DrainHook != nil {
		p.DrainHook()
	}
	p.kick()
}

// deliverFlit lands a flit at the peer after the propagation delay.
func deliverFlit(a any) {
	m := a.(*linkMsg)
	p, vc, f := m.p, m.vc, m.f
	p.consumed(m)
	p.receiveFlit(vc, f)
}

// sendAck delivers a link-layer ack to the peer transmitter.
func sendAck(a any) {
	m := a.(*linkMsg)
	p, vc, seq := m.p, m.vc, m.seq
	p.consumed(m)
	p.handleAck(vc, seq)
}

// sendNak delivers a link-layer nak (retransmit request) to the peer.
func sendNak(a any) {
	m := a.(*linkMsg)
	p, vc, seq := m.p, m.vc, m.seq
	p.consumed(m)
	p.handleNak(vc, seq)
}

// returnCredits hands freed receive-buffer credits back to the peer.
func returnCredits(a any) {
	m := a.(*linkMsg)
	p, vc, n := m.p, m.vc, m.n
	p.consumed(m)
	p.addCredits(vc, n)
}

// Port is one directionful endpoint of a link: it transmits packets
// toward its peer and receives packets for its sink.
type Port struct {
	eng    *sim.Engine
	name   string
	cfg    Config
	peer   *Port
	sink   Sink
	trains TrainSink // set instead of sink on a switch's ports
	rng    *sim.RNG
	home   *home      // the engine's flit pools and record free lists
	pool   *flit.Pool // home's pool for cfg.Mode
	// xmb, when non-nil, marks this port as one side of a cross-shard
	// link: peer-touching wire messages go through the mailbox instead
	// of being scheduled directly on the peer's engine (see xlink.go).
	xmb *sim.Mailbox

	// Transmit state. txqFlits counts the flits of txq not yet on the
	// wire. credits is the transmit credit ledger: VC vc spends and earns
	// credits[credIdx[vc]], its own slot, or slot 0 for every VC when
	// they share one pool. rrNext is the VC the round-robin arbiter
	// tries first.
	txq      [flit.NumChannels]sim.Queue[*txPacket]
	txqFlits [flit.NumChannels]int
	retryq   [flit.NumChannels]sim.Queue[*flit.Flit]
	credits  [flit.NumChannels]int
	credIdx  [flit.NumChannels]uint8
	sending  bool
	lockedVC int
	rrNext   int
	vcSeq    [flit.NumChannels]uint32
	replay   [flit.NumChannels]map[uint32]*flit.Flit

	// Fault state (see the fault.Injectable implementation on Link).
	// down pauses the transmitter; flits already serialized onto the
	// wire still land at the peer, so a flap stalls but never loses
	// data. laneDiv > 1 multiplies serialization time, modelling a link
	// renegotiated to fewer lanes. leaked tracks, by ledger slot, the
	// credits removed by an injected CreditLeak so healing restores
	// exactly that amount.
	down    bool
	downAt  sim.Time
	laneDiv int
	leaked  [flit.NumChannels]int

	// stalled marks an open transmit-stall episode (traffic queued, no
	// usable credit). It is confirmed into StallPicks by a check event
	// one picosecond later, so a stall relieved within the same instant
	// never counts — which keeps the metric independent of the order
	// same-timestamp events fire in (serial and sharded runs interleave
	// such ties differently; see internal/sim.Coordinator).
	stalled bool

	// Receive state.
	rxAsm    [flit.NumChannels][]*flit.Flit
	rxUsed   [flit.NumChannels]int
	rxLimit  [flit.NumChannels]int
	rxDebt   [flit.NumChannels]int
	rxExpect [flit.NumChannels]uint32
	rxStash  [flit.NumChannels]map[uint32]*flit.Flit

	// DrainHook, when set, is invoked after each flit leaves the
	// transmitter — switches use it to refill bounded output queues.
	DrainHook func()

	// Tracer, when set via SetTracer, receives a HopRecord for every
	// link-layer event at this port.
	tracer *telemetry.Tracer

	// Metrics.
	FlitsTx     sim.Counter
	FlitsRx     sim.Counter
	PktsTx      sim.Counter
	PktsRx      sim.Counter
	CRCErrors   sim.Counter
	Retransmits sim.Counter
	StallPicks  sim.Counter // transmit stalls that outlived their onset instant
	DupFlits    sim.Counter // stale duplicate retransmissions dropped
	QueueLat    *sim.Histogram
}

func newPort(eng *sim.Engine, name string, cfg Config) *Port {
	h := homeOf(eng)
	p := &Port{
		eng:      eng,
		name:     name,
		cfg:      cfg,
		home:     h,
		pool:     h.pool(cfg.Mode),
		lockedVC: -1,
		laneDiv:  1,
		rng:      sim.NewRNG(cfg.Seed ^ 0xfabc),
		QueueLat: sim.NewHistogram(),
	}
	for i := range p.credits {
		if !cfg.SharedCreditPool {
			p.credIdx[i] = uint8(i)
		}
		p.credits[p.credIdx[i]] += cfg.RxBufFlits[i]
		p.rxLimit[i] = cfg.RxBufFlits[i]
		if cfg.RetryEnabled {
			p.replay[i] = make(map[uint32]*flit.Flit)
			p.rxStash[i] = make(map[uint32]*flit.Flit)
		}
	}
	return p
}

// Name reports the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Config returns the link configuration.
func (p *Port) Config() Config { return p.cfg }

// SetSink attaches the packet consumer. Must be set before traffic flows.
func (p *Port) SetSink(s Sink) { p.sink, p.trains = s, nil }

// SetTrainSink attaches a consumer of whole flit trains in place of a
// packet sink: a switch port, which forwards trains without decoding
// them. Must be set before traffic flows.
func (p *Port) SetTrainSink(s TrainSink) { p.sink, p.trains = nil, s }

// SetTracer attaches an opt-in flit tracer. Nil disables tracing.
func (p *Port) SetTracer(t *telemetry.Tracer) { p.tracer = t }

// trace records a flit-level event (no packet identity).
func (p *Port) trace(ev telemetry.Event, vc flit.Channel, seq uint32) {
	if p.tracer == nil {
		return
	}
	p.tracer.Record(telemetry.HopRecord{
		At: p.eng.Now(), Port: p.name, Event: ev, VC: vc, Seq: seq,
		Credits: p.Credits(vc),
	})
}

// tracePkt records an event that can name its packet.
func (p *Port) tracePkt(ev telemetry.Event, vc flit.Channel, seq uint32, h flit.Header) {
	if p.tracer == nil {
		return
	}
	p.tracer.Record(telemetry.HopRecord{
		At: p.eng.Now(), Port: p.name, Event: ev, VC: vc, Seq: seq,
		Credits: p.Credits(vc),
		HasPkt:  true, Src: h.Src, Dst: h.Dst, Tag: h.Tag,
		Op: h.Op, Hops: h.Hops,
	})
}

// RegisterStats attaches the port's counters, queue-latency histogram,
// and per-VC occupancy gauges to a stats registry, giving the port a
// stable address in the fabric-wide metrics tree.
func (p *Port) RegisterStats(s *sim.Stats) {
	s.Register("flits_tx", &p.FlitsTx)
	s.Register("flits_rx", &p.FlitsRx)
	s.Register("pkts_tx", &p.PktsTx)
	s.Register("pkts_rx", &p.PktsRx)
	s.Register("crc_errors", &p.CRCErrors)
	s.Register("retransmits", &p.Retransmits)
	s.Register("stall_picks", &p.StallPicks)
	s.Register("dup_flits", &p.DupFlits)
	s.RegisterHistogram("queue_lat_ns", p.QueueLat)
	s.Gauge("down", func() int64 {
		if p.down {
			return 1
		}
		return 0
	})
	s.Gauge("lane_div", func() int64 { return int64(p.laneDiv) })
	for i := 0; i < flit.NumChannels; i++ {
		vc := flit.Channel(i)
		c := s.Child(vc.String())
		c.Gauge("credits", func() int64 { return int64(p.Credits(vc)) })
		c.Gauge("tx_queue_flits", func() int64 { return int64(p.TxQueueFlits(vc)) })
		c.Gauge("rx_buf_used", func() int64 { return int64(p.RxBufUsed(vc)) })
		c.Gauge("replay_len", func() int64 { return int64(p.ReplayBufferLen(vc)) })
	}
}

// Send enqueues a packet for transmission to the peer. The queue is
// unbounded; callers that need backpressure bound it via TxQueueFlits.
func (p *Port) Send(pkt *flit.Packet) {
	if pkt.Size > MaxPacketPayload {
		panic(fmt.Sprintf("link: packet payload %d exceeds MaxPacketPayload %d (segment it at the transaction layer)",
			pkt.Size, MaxPacketPayload))
	}
	tp := p.getTxPacket()
	fl, err := p.pool.Encode(pkt, p.vcSeq[pkt.Chan], tp.flits[:0])
	if err != nil {
		panic("link: encode: " + err.Error())
	}
	p.enqueue(tp, pkt.Header(), fl)
}

// Forward enqueues a flit train a switch received on another port, as
// a copy drawn from this port's pool: this link's sequence numbers, the
// same payload bytes and Last flags, and hdr.Hops written into the
// header flit (whose CRC is recomputed; the others' are copied). The
// train stays with its receiver, which releases it. Both links must use
// one flit mode.
func (p *Port) Forward(hdr flit.Header, train []*flit.Flit) {
	tp := p.getTxPacket()
	p.enqueue(tp, hdr, p.pool.Forward(train, hdr.Hops, p.vcSeq[hdr.Chan], tp.flits[:0]))
}

// enqueue queues an encoded packet on its VC and starts the transmitter.
func (p *Port) enqueue(tp *txPacket, hdr flit.Header, fl []*flit.Flit) {
	vc := hdr.Chan
	tp.hdr, tp.flits, tp.next, tp.enq = hdr, fl, 0, p.eng.Now()
	p.vcSeq[vc] += uint32(len(fl))
	p.txqFlits[vc] += len(fl)
	p.txq[vc].Push(tp)
	p.tracePkt(telemetry.EvPktSend, vc, fl[0].Seq, hdr)
	p.kick()
}

func (p *Port) getTxPacket() *txPacket {
	h := p.home
	tp := h.txpFree
	if tp == nil {
		return &txPacket{}
	}
	h.txpFree = tp.free
	tp.free = nil
	return tp
}

// putTxPacket recycles a fully transmitted packet descriptor, clearing
// its flit pointers so the free list pins no flit.
func (p *Port) putTxPacket(tp *txPacket) {
	clear(tp.flits)
	tp.flits = tp.flits[:0]
	tp.next = 0
	tp.free = p.home.txpFree
	p.home.txpFree = tp
}

// TxQueueFlits reports the flits queued (not yet on the wire) for a VC.
func (p *Port) TxQueueFlits(vc flit.Channel) int {
	return p.retryq[vc].Len() + p.txqFlits[vc]
}

// TxQueuePackets reports the packets queued on a VC.
func (p *Port) TxQueuePackets(vc flit.Channel) int {
	return p.txq[vc].Len()
}

// Credits reports the transmit credits currently available on a VC (or
// the shared pool when so configured).
func (p *Port) Credits(vc flit.Channel) int { return p.credits[p.credIdx[vc]] }

func (p *Port) consumeCredit(vc flit.Channel) {
	i := p.credIdx[vc]
	p.credits[i]--
	if p.credits[i] < 0 {
		panic("link: credit underflow on " + vc.String())
	}
}

// addCredits is invoked (after wire delay) when the peer frees buffer.
func (p *Port) addCredits(vc flit.Channel, n int) {
	p.credits[p.credIdx[vc]] += n
	p.kick()
}

// pickVC chooses the VC for the next flit: the locked VC while packet
// arbitration holds one mid-packet, else the first eligible VC in
// round-robin order from rrNext. The rotation ignores credit balances
// and waiting times — the credit-agnostic scheduling the paper
// criticises (Difference #3) — and a pick that finds nothing eligible
// leaves it where it was.
func (p *Port) pickVC() int {
	if p.lockedVC >= 0 {
		vc := flit.Channel(p.lockedVC)
		if p.eligible(vc) {
			return p.lockedVC
		}
		// Locked but stalled: packet-level head-of-line blocking. This
		// is precisely the stall StallPicks exists to expose — count it
		// the same as an unlocked pick that found traffic but no credit.
		p.noteStall()
		return -1
	}
	queued := false
	for i := 0; i < flit.NumChannels; i++ {
		idx := (p.rrNext + i) % flit.NumChannels
		vc := flit.Channel(idx)
		if p.eligible(vc) {
			p.rrNext = (idx + 1) % flit.NumChannels
			return idx
		}
		queued = queued || p.TxQueueFlits(vc) > 0
	}
	if queued {
		p.noteStall()
	}
	return -1
}

// noteStall opens a stall episode and schedules its confirmation one
// picosecond out. A successful pick before the check fires closes the
// episode uncounted: credits that arrive within the onset instant mean
// the transmitter never actually waited.
func (p *Port) noteStall() {
	if p.stalled {
		return
	}
	p.stalled = true
	p.eng.After2(1, confirmStall, p)
}

// confirmStall counts a stall episode still open one picosecond after
// onset and closes it, so the next failed pick opens (and counts) a
// fresh episode.
func confirmStall(a any) {
	p := a.(*Port)
	if p.stalled {
		p.StallPicks.Inc()
		p.stalled = false
	}
}

func (p *Port) eligible(vc flit.Channel) bool {
	if p.retryq[vc].Len() > 0 {
		return true // retransmissions own their credit already
	}
	return p.txq[vc].Len() > 0 && p.Credits(vc) > 0
}

// kick advances the transmitter if the wire is idle and a flit is ready.
func (p *Port) kick() {
	if p.sending || p.down {
		return
	}
	idx := p.pickVC()
	if idx < 0 {
		return
	}
	p.stalled = false // relieved before (or at) the confirm check: no stall
	vc := flit.Channel(idx)
	var f *flit.Flit
	if p.retryq[vc].Len() > 0 {
		f = p.retryq[vc].Pop()
		p.Retransmits.Inc()
		p.trace(telemetry.EvRetransmit, vc, f.Seq)
	} else {
		tp := p.txq[vc].Front()
		f = tp.flits[tp.next]
		p.consumeCredit(vc)
		p.tracePkt(telemetry.EvFlitTx, vc, f.Seq, tp.hdr)
		tp.next++
		p.txqFlits[vc]--
		if tp.next == len(tp.flits) {
			p.txq[vc].Pop()
			p.PktsTx.Inc()
			p.QueueLat.ObserveTime(p.eng.Now() - tp.enq)
			p.putTxPacket(tp)
			if p.lockedVC == idx {
				p.lockedVC = -1
			}
		} else if p.cfg.PacketArbitration {
			p.lockedVC = idx
		}
	}
	if p.cfg.RetryEnabled {
		// The replay buffer is its own holder. A fresh send files the
		// flit for the first time (retain); a retransmit normally finds
		// its entry still present — unless the ack arrived while the
		// flit sat in the retry queue, in which case the entry was
		// released and must be re-retained.
		if _, ok := p.replay[vc][f.Seq]; !ok {
			f.Retain()
		}
		p.replay[vc][f.Seq] = f
	}
	p.sending = true
	p.FlitsTx.Inc()
	ser := p.cfg.Phys.SerTime(p.cfg.Mode.WireBytes()) * sim.Time(p.laneDiv)
	m := p.getMsg()
	m.vc, m.f = vc, f
	p.eng.After2(ser, serDone, m)
}

// receiveFlit handles one arriving flit: error injection, selective
// repeat reordering, reassembly, and delivery.
func (p *Port) receiveFlit(vc flit.Channel, f *flit.Flit) {
	p.FlitsRx.Inc()
	p.trace(telemetry.EvFlitRx, vc, f.Seq)
	if p.cfg.RetryEnabled {
		corrupted := p.cfg.Phys.BER > 0 && p.rng.Float64() < p.cfg.Phys.BER
		if corrupted {
			p.CRCErrors.Inc()
			p.trace(telemetry.EvCRCError, vc, f.Seq)
			p.wire(p.cfg.Phys.Propagation, sendNak, vc, f.Seq, 0)
			p.pool.Release(f) // wire copy discarded; sender's replay holds it
			return
		}
		p.wire(p.cfg.Phys.Propagation, sendAck, vc, f.Seq, 0)
		if f.Seq != p.rxExpect[vc] {
			if f.Seq-p.rxExpect[vc] >= 1<<31 {
				// Stale retransmission of a flit already delivered (its
				// ack was lost or raced a NAK). Re-acking above is all
				// it needs; stashing it would leak the slot and deliver
				// the flit a second time when the sequence space wraps.
				p.DupFlits.Inc()
				p.trace(telemetry.EvDupDrop, vc, f.Seq)
				p.pool.Release(f)
				return
			}
			if _, dup := p.rxStash[vc][f.Seq]; dup {
				// Original and retransmit both in flight: the stash
				// already holds this flit; drop the extra wire reference.
				p.pool.Release(f)
			} else {
				p.rxStash[vc][f.Seq] = f // stash inherits the wire reference
			}
			return
		}
		p.acceptFlit(vc, f)
		for {
			nf, ok := p.rxStash[vc][p.rxExpect[vc]]
			if !ok {
				break
			}
			delete(p.rxStash[vc], p.rxExpect[vc])
			p.acceptFlit(vc, nf)
		}
		return
	}
	p.acceptFlit(vc, f)
}

// acceptFlit buffers an in-order flit and delivers completed packets:
// decoded to a packet sink, or as the flit train itself to a train
// sink, which holds it in the receive buffer until its release.
func (p *Port) acceptFlit(vc flit.Channel, f *flit.Flit) {
	p.rxExpect[vc] = f.Seq + 1
	p.rxUsed[vc]++
	p.rxAsm[vc] = append(p.rxAsm[vc], f)
	if !f.Last {
		return
	}
	flits := p.rxAsm[vc]
	if p.trains != nil {
		hdr, err := p.pool.PeekHeader(flits)
		if err != nil {
			panic(fmt.Sprintf("link %s: reassembly on %v: %v", p.name, vc, err))
		}
		p.PktsRx.Inc()
		p.tracePkt(telemetry.EvPktDeliver, vc, flits[0].Seq, hdr)
		r := p.getRelease()
		r.vc, r.n = vc, len(flits)
		// The release record keeps the train; its spare array becomes
		// the next packet's assembly buffer.
		r.train, p.rxAsm[vc] = flits, r.train[:0]
		p.trains.ArriveTrain(hdr, r.train, r.fn)
		return
	}
	p.rxAsm[vc] = flits[:0] // backing array reused for the next packet
	pkt, err := p.pool.Decode(flits)
	if err != nil {
		panic(fmt.Sprintf("link %s: reassembly on %v: %v", p.name, vc, err))
	}
	p.PktsRx.Inc()
	if p.tracer != nil {
		p.tracePkt(telemetry.EvPktDeliver, vc, flits[0].Seq, pkt.Header())
	}
	n := len(flits)
	for _, fl := range flits {
		p.pool.Release(fl) // decode copied the payload out
	}
	if p.sink == nil {
		panic("link " + p.name + ": packet arrived with no sink attached")
	}
	r := p.getRelease()
	r.vc, r.n = vc, n
	p.sink.Arrive(pkt, r.fn)
}

// pktRelease is the pooled credit-release record handed to the sink with
// each delivered packet or train, drawn from the engine's free list with
// p set to the receiving port. The fn field is bound once at
// construction so steady-state delivery allocates no closure.
type pktRelease struct {
	p        *Port
	vc       flit.Channel
	n        int
	train    []*flit.Flit // a train sink's flits, held until release
	released bool
	fn       func()
	next     *pktRelease
}

func (p *Port) getRelease() *pktRelease {
	h := p.home
	r := h.relFree
	if r == nil {
		r = &pktRelease{}
		r.fn = r.release
	} else {
		h.relFree = r.next
		r.next = nil
	}
	r.p, r.released = p, false
	return r
}

// release returns the packet's receive-buffer slots as credits, and a
// held train's flits to the port's pool. The record recycles
// immediately; released stays true while parked so a stale
// double-release still panics until some port reuses the record.
func (r *pktRelease) release() {
	if r.released {
		panic("link: packet released twice")
	}
	r.released = true
	p, vc := r.p, r.vc
	for i, f := range r.train {
		p.pool.Release(f)
		r.train[i] = nil
	}
	r.train = r.train[:0]
	p.rxUsed[vc] -= r.n
	ret := r.n
	if p.rxDebt[vc] > 0 {
		swallow := min(p.rxDebt[vc], ret)
		p.rxDebt[vc] -= swallow
		ret -= swallow
	}
	if ret > 0 {
		p.wire(p.cfg.CreditReturnDelay+p.cfg.Phys.Propagation, returnCredits, vc, 0, ret)
	}
	r.next = p.home.relFree
	p.home.relFree = r
}

// handleNak retransmits the flit with the given sequence number. The
// retransmission reuses the credit consumed by the original send.
func (p *Port) handleNak(vc flit.Channel, seq uint32) {
	f, ok := p.replay[vc][seq]
	if !ok {
		return // already retransmitted and acked
	}
	f.Retain() // the retry queue holds its own reference until resend
	p.retryq[vc].Push(f)
	p.kick()
}

// handleAck drops a delivered flit from the replay buffer.
func (p *Port) handleAck(vc flit.Channel, seq uint32) {
	if f, ok := p.replay[vc][seq]; ok {
		delete(p.replay[vc], seq)
		p.pool.Release(f)
	}
}

// ReplayBufferLen reports unacknowledged flits on a VC (retry mode only).
func (p *Port) ReplayBufferLen(vc flit.Channel) int { return len(p.replay[vc]) }

// RxStashLen reports out-of-order flits held for reordering on a VC.
func (p *Port) RxStashLen(vc flit.Channel) int { return len(p.rxStash[vc]) }

// RxBufUsed reports occupied receive-buffer flits on a VC.
func (p *Port) RxBufUsed(vc flit.Channel) int { return p.rxUsed[vc] }

// SetRxBuf dynamically resizes this port's receive buffer for a VC —
// the mechanism credit-allocation policies (cfcpolicy) use to shift
// buffer between contending ports. Growth grants the peer extra credits
// after one propagation delay; shrinkage is absorbed as freed slots
// drain (a debt swallowed from future credit returns). Unsupported in
// shared-pool mode.
func (p *Port) SetRxBuf(vc flit.Channel, n int) {
	if p.cfg.SharedCreditPool {
		panic("link: SetRxBuf unsupported with a shared credit pool")
	}
	minFlits := p.cfg.Mode.FlitsFor(MaxPacketPayload)
	if n < minFlits {
		panic(fmt.Sprintf("link: SetRxBuf(%v, %d) below max packet size %d flits", vc, n, minFlits))
	}
	delta := n - p.rxLimit[vc]
	p.rxLimit[vc] = n
	switch {
	case delta > 0:
		grant := delta
		if p.rxDebt[vc] > 0 { // growth first cancels outstanding debt
			cancel := min(p.rxDebt[vc], grant)
			p.rxDebt[vc] -= cancel
			grant -= cancel
		}
		if grant > 0 {
			p.wire(p.cfg.Phys.Propagation, returnCredits, vc, 0, grant)
		}
	case delta < 0:
		p.rxDebt[vc] += -delta
	}
}

// RxLimit reports the advertised buffer size for a VC.
func (p *Port) RxLimit(vc flit.Channel) int { return p.rxLimit[vc] }
