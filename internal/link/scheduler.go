package link

import "fcc/internal/flit"

// VCView is the per-virtual-channel state a Scheduler sees when choosing
// which VC transmits the next flit.
type VCView struct {
	Channel       flit.Channel
	QueuedFlits   int   // flits waiting to be sent
	QueuedPackets int   // whole packets waiting
	Credits       int   // transmit credits currently available
	Eligible      bool  // has a flit to send AND a credit to send it with
	HeadAge       int64 // picoseconds the head packet has waited
}

// Scheduler picks which VC sends the next flit. It is consulted once per
// flit (or once per packet under PacketArbitration), and only when at
// least one VC is eligible: with none, the port stalls without calling
// Pick, which is what every scheduler here would answer (-1, state
// unchanged). Returning -1 means "nothing eligible".
//
// The paper (Difference #3) observes that deployed CFC switches schedule
// credit-agnostically, causing head-of-line blocking and credit waste;
// implementations of this interface are the locus of that study.
type Scheduler interface {
	Pick(vcs []VCView) int
	Name() string
}

// RoundRobin is the default credit-agnostic scheduler: VCs take turns,
// with no regard to credit balance or waiting time.
type RoundRobin struct{ next int }

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() Scheduler { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Scheduler.
func (r *RoundRobin) Pick(vcs []VCView) int {
	n := len(vcs)
	for i := 0; i < n; i++ {
		idx := (r.next + i) % n
		if vcs[idx].Eligible {
			r.next = (idx + 1) % n
			return idx
		}
	}
	return -1
}

// StrictPriority always serves the highest-priority eligible VC. The
// order ranks the control lane first (Principle #4: a dedicated control
// channel must never queue behind data), then CXL.cache (coherence
// stalls are poisonous), then CXL.mem, then CXL.io bulk.
type StrictPriority struct{}

// NewStrictPriority returns a strict-priority scheduler.
func NewStrictPriority() Scheduler { return StrictPriority{} }

// Name implements Scheduler.
func (StrictPriority) Name() string { return "strict-priority" }

var priorityOrder = [flit.NumChannels]flit.Channel{
	flit.ChCtrl, flit.ChCache, flit.ChMem, flit.ChIO,
}

// Pick implements Scheduler.
func (StrictPriority) Pick(vcs []VCView) int {
	for _, want := range priorityOrder {
		for i, vc := range vcs {
			if vc.Channel == want && vc.Eligible {
				return i
			}
		}
	}
	return -1
}

// CreditWeighted prefers the eligible VC holding the most transmit
// credits — the "credit-aware" discipline the paper suggests is missing:
// transactions that have been granted more credits drain first, so
// granted credits are not wasted sitting behind a blocked VC.
type CreditWeighted struct{ tie int }

// NewCreditWeighted returns a credit-aware scheduler.
func NewCreditWeighted() Scheduler { return &CreditWeighted{} }

// Name implements Scheduler.
func (c *CreditWeighted) Name() string { return "credit-weighted" }

// Pick implements Scheduler.
func (c *CreditWeighted) Pick(vcs []VCView) int {
	best, bestCredits := -1, -1
	n := len(vcs)
	for i := 0; i < n; i++ {
		idx := (c.tie + i) % n
		vc := vcs[idx]
		if vc.Eligible && vc.Credits > bestCredits {
			best, bestCredits = idx, vc.Credits
		}
	}
	if best >= 0 {
		c.tie = (best + 1) % n
	}
	return best
}

// OldestFirst serves the VC whose head packet has waited longest,
// bounding head-of-line blocking across channels.
type OldestFirst struct{}

// NewOldestFirst returns an age-based scheduler.
func NewOldestFirst() Scheduler { return OldestFirst{} }

// Name implements Scheduler.
func (OldestFirst) Name() string { return "oldest-first" }

// Pick implements Scheduler.
func (OldestFirst) Pick(vcs []VCView) int {
	best := -1
	var bestAge int64 = -1
	for i, vc := range vcs {
		if vc.Eligible && vc.HeadAge > bestAge {
			best, bestAge = i, vc.HeadAge
		}
	}
	return best
}
