package link

import (
	"fcc/internal/flit"
	"fcc/internal/sim"
)

// Cross-shard links. A link whose two ports live in different failure
// domains cannot touch its peer directly: the peer's Port, pool, and
// engine belong to another shard's goroutine. Instead, the four
// peer-touching wire messages — flit delivery, ack, nak, and credit
// return — are marshalled through a sim.Mailbox and re-executed on the
// destination engine at exactly the timestamp the intra-shard code
// would have used, so a cross-shard link is timing-identical to a local
// one. Every such message carries at least one propagation delay, which
// is what lets the coordinator use the minimum cut-link propagation as
// its conservative lookahead window.
//
// Flit objects themselves never cross the boundary: each side draws
// from its own engine's pool, so the payload is copied into the message
// and the receiver re-materializes the flit from its pool. The messages
// do cross, and come back: the destination hands each one it has
// consumed, with its payload buffer, back through the mailbox it arrived
// on, the coordinator's barrier moves it to the sender's side, and the
// sender's next message reuses it — so a warm cut allocates nothing.

// NewCross creates a link spanning two shards: port A schedules on
// engA, port B on engB, and peer interactions travel through the ab
// (A-to-B) and ba (B-to-A) mailboxes. Sinks, sinks' engines, and all
// per-port state must stay within the owning shard.
func NewCross(name string, cfg Config, engA, engB *sim.Engine, ab, ba *sim.Mailbox) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Link{
		name: name,
		a:    newPort(engA, name+".A", cfg),
		b:    newPort(engB, name+".B", cfg),
	}
	l.a.peer, l.b.peer = l.b, l.a
	l.a.xmb, l.b.xmb = ab, ba
	return l, nil
}

// xmsg draws the record of a wire message to the peer's shard,
// addressed to the peer: one the peer's engine handed back through the
// mailbox, else one from this engine's list.
func (p *Port) xmsg() *linkMsg {
	m, _ := p.xmb.Reuse().(*linkMsg)
	if m == nil {
		m = p.getMsg()
	}
	m.p = p.peer
	return m
}

// remote queues a marshalled message to the peer's shard, delivering
// after the given wire delay.
func (p *Port) remote(delay sim.Time, fn func(any), m *linkMsg) {
	p.xmb.Send(sim.SaturatingAdd(p.eng.Now(), delay), fn, m)
}

// sendRemoteFlit marshals a flit across the shard boundary. The local
// wire reference ends here (the replay buffer keeps its own when retry
// is enabled); the peer re-materializes the flit from its pool.
func (p *Port) sendRemoteFlit(vc flit.Channel, f *flit.Flit) {
	m := p.xmsg()
	m.vc, m.seq, m.last, m.crc = vc, f.Seq, f.Last, f.CRC
	m.data = append(m.data[:0], f.Payload...)
	p.remote(p.cfg.Phys.Propagation, xDeliver, m)
	p.pool.Release(f)
}

// xDeliver lands a marshalled flit at the destination port, running on
// the destination engine.
func xDeliver(a any) {
	m := a.(*linkMsg)
	p, vc := m.p, m.vc
	f := p.pool.Get()
	f.Seq, f.Last, f.CRC = m.seq, m.last, m.crc
	copy(f.Payload, m.data)
	p.consumed(m)
	p.receiveFlit(vc, f)
}
