package link

import (
	"fmt"

	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/sim"
)

// Link implements fault.Injectable: a link can flap (LinkDown), lose
// lanes (LaneDegrade), and leak flow-control credits (CreditLeak). All
// three apply symmetrically to both directions.
//
// Loss semantics: a down link pauses both transmitters, but flits
// already serialized onto the wire still land — the link layer stays
// lossless, so a flap stalls traffic without corrupting credit
// accounting. A link that never heals simply wedges its queued packets;
// initiators surface that as typed timeout errors at the transaction
// layer, which is exactly how a fabric host experiences a severed cable.

// FaultID returns the link's constructor-given name.
func (l *Link) FaultID() string { return l.name }

// Supports reports the fault kinds a link can host.
func (l *Link) Supports(k fault.Kind) bool {
	switch k {
	case fault.LinkDown, fault.LaneDegrade, fault.CreditLeak:
		return true
	}
	return false
}

// InjectFault applies a link fault to both sides.
func (l *Link) InjectFault(f fault.Fault) error {
	if err := l.InjectFaultSide(0, f); err != nil {
		return err
	}
	return l.InjectFaultSide(1, f)
}

// InjectFaultSide applies one side's share of a link fault (0 = A,
// 1 = B). On a cross-shard link the two ports belong to different
// engines, so a fault must be applied by each shard independently —
// scheduled at the same virtual instant on both, which models exactly
// how the two ends of a severed cable notice the cut on their own.
func (l *Link) InjectFaultSide(side int, f fault.Fault) error {
	p := l.side(side)
	switch f.Kind {
	case fault.LinkDown:
		p.setDown(true)
	case fault.LaneDegrade:
		if f.Factor < 2 {
			return fmt.Errorf("link %s: lane degrade needs Factor >= 2, got %d", l.name, f.Factor)
		}
		p.laneDiv = f.Factor
	case fault.CreditLeak:
		if f.Credits <= 0 {
			return fmt.Errorf("link %s: credit leak needs Credits > 0, got %d", l.name, f.Credits)
		}
		if f.VC < 0 || f.VC >= flit.NumChannels {
			return fmt.Errorf("link %s: credit leak VC %d out of range", l.name, f.VC)
		}
		p.leakCredits(flit.Channel(f.VC), f.Credits)
	default:
		return fmt.Errorf("link %s: unsupported fault %v", l.name, f.Kind)
	}
	return nil
}

// HealFault clears a link fault on both sides.
func (l *Link) HealFault(k fault.Kind) error {
	if err := l.HealFaultSide(0, k); err != nil {
		return err
	}
	return l.HealFaultSide(1, k)
}

// HealFaultSide clears one side's share of a link fault (0 = A, 1 = B);
// see InjectFaultSide.
func (l *Link) HealFaultSide(side int, k fault.Kind) error {
	p := l.side(side)
	switch k {
	case fault.LinkDown:
		p.setDown(false)
	case fault.LaneDegrade:
		p.laneDiv = 1
		p.kick()
	case fault.CreditLeak:
		p.restoreLeaked()
	default:
		return fmt.Errorf("link %s: unsupported fault %v", l.name, k)
	}
	return nil
}

func (l *Link) side(side int) *Port {
	if side == 0 {
		return l.a
	}
	return l.b
}

// Down reports whether the link is currently down — the signal the
// fabric manager's heartbeat sweep polls.
func (l *Link) Down() bool { return l.a.down }

// FailedAt reports when the link last went down.
func (l *Link) FailedAt() sim.Time { return l.a.downAt }

func (p *Port) setDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if down {
		p.downAt = p.eng.Now()
		return
	}
	p.kick()
}

// leakCredits removes n transmit credits, possibly driving the balance
// negative — which models lost credit-update messages: future returns
// are absorbed until the balance recovers. The leak is tracked so
// healing restores exactly what was taken.
func (p *Port) leakCredits(vc flit.Channel, n int) {
	i := p.credIdx[vc]
	p.credits[i] -= n
	p.leaked[i] += n
}

func (p *Port) restoreLeaked() {
	for i := range p.leaked {
		p.credits[i] += p.leaked[i]
		p.leaked[i] = 0
	}
	p.kick()
}
