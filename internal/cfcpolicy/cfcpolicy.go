// Package cfcpolicy is the credit-based-flow-control study the paper's
// Difference #3 calls for: credit *allocation* policies that divide a
// switch's finite buffering among contending upstream ports, metrics
// for the interference and starvation pathologies, and the fairness
// measures used to compare schemes.
//
//   - Static: equal fixed allocation (the baseline).
//   - RampUp: the de-facto exponential ramp-up on port utilization
//     ("a consistently heavily-used port would take more credits,
//     leaving little room for other contending ports").
//   - Adaptive: receiver-oriented allocation (Kung et al.) — max-min
//     over active ports with a guaranteed per-port floor, so a hot
//     port cannot starve its neighbours.
//
// Scheduling is not varied here: every link port arbitrates its VCs
// round-robin, credit-agnostically (package link). This package
// supplies the allocation side and the measurement harness glue.
package cfcpolicy

import (
	"fmt"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// Scheme selects a credit-allocation policy.
type Scheme uint8

// The allocation schemes under study.
const (
	Static Scheme = iota
	RampUp
	Adaptive
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Static:
		return "static"
	case RampUp:
		return "ramp-up"
	case Adaptive:
		return "receiver-adaptive"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// AllocatorConfig controls a per-switch, per-VC credit allocator.
type AllocatorConfig struct {
	Scheme Scheme
	// VC is the virtual channel whose buffers are managed.
	VC flit.Channel
	// TotalFlits is the buffer budget shared by all managed ports.
	TotalFlits int
	// Epoch is the reallocation period.
	Epoch sim.Time
	// MinFlits is the per-port floor; it must hold one max-size packet.
	// 0 selects exactly that packet bound.
	MinFlits int
}

// Allocator periodically re-divides TotalFlits of VC receive buffering
// among a set of switch ports according to the configured scheme.
type Allocator struct {
	eng   *sim.Engine
	cfg   AllocatorConfig
	ports []*link.Port
	alloc []int
	last  []int64 // FlitsRx at previous epoch
	ewma  []float64
	stop  bool

	// Reallocations counts epochs that changed at least one allocation.
	Reallocations sim.Counter
}

// NewAllocator manages the given ports of sw (upstream-facing receive
// buffers). Initial allocation is equal shares.
func NewAllocator(eng *sim.Engine, sw *fabric.Switch, portIdx []int, cfg AllocatorConfig) (*Allocator, error) {
	if len(portIdx) == 0 {
		return nil, fmt.Errorf("cfcpolicy: no ports to manage")
	}
	minPkt := flit.Mode68.FlitsFor(link.MaxPacketPayload)
	if cfg.MinFlits == 0 {
		cfg.MinFlits = minPkt
	}
	if cfg.MinFlits < minPkt {
		return nil, fmt.Errorf("cfcpolicy: MinFlits %d below one max packet (%d flits)", cfg.MinFlits, minPkt)
	}
	if cfg.TotalFlits < cfg.MinFlits*len(portIdx) {
		return nil, fmt.Errorf("cfcpolicy: budget %d cannot give %d ports the %d-flit floor",
			cfg.TotalFlits, len(portIdx), cfg.MinFlits)
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 2 * sim.Microsecond
	}
	a := &Allocator{eng: eng, cfg: cfg}
	for _, i := range portIdx {
		a.ports = append(a.ports, sw.Port(i))
	}
	a.alloc = make([]int, len(a.ports))
	a.last = make([]int64, len(a.ports))
	a.ewma = make([]float64, len(a.ports))
	equal := cfg.TotalFlits / len(a.ports)
	for i, p := range a.ports {
		a.alloc[i] = equal
		p.SetRxBuf(cfg.VC, equal)
		a.last[i] = p.FlitsRx.Value()
	}
	return a, nil
}

// Start begins epoch-based reallocation (no-op for Static).
func (a *Allocator) Start() {
	if a.cfg.Scheme == Static {
		return
	}
	var tick func()
	tick = func() {
		if a.stop {
			return
		}
		a.reallocate()
		a.eng.After(a.cfg.Epoch, tick)
	}
	a.eng.After(a.cfg.Epoch, tick)
}

// Stop halts reallocation after the current epoch.
func (a *Allocator) Stop() { a.stop = true }

// Allocation reports the current per-port credit allocation.
func (a *Allocator) Allocation() []int { return append([]int(nil), a.alloc...) }

func (a *Allocator) reallocate() {
	n := len(a.ports)
	demand := make([]float64, n)
	var totalDemand float64
	// Demand is an EWMA of per-epoch received flits: bursty light flows
	// whose epoch deltas intermittently read zero must not be mistaken
	// for idle.
	const alpha = 0.3
	for i, p := range a.ports {
		cur := p.FlitsRx.Value()
		a.ewma[i] = (1-alpha)*a.ewma[i] + alpha*float64(cur-a.last[i])
		a.last[i] = cur
		demand[i] = a.ewma[i]
		totalDemand += demand[i]
	}
	if totalDemand < 0.1 {
		return
	}
	want := make([]int, n)
	switch a.cfg.Scheme {
	case RampUp:
		// Exponential ramp-up on utilization: busy ports double, idle
		// ports halve — no floor beyond the packet bound, which is the
		// pathology: a hog absorbs nearly the whole budget.
		for i := range want {
			util := demand[i] / totalDemand
			switch {
			case util > 0.5:
				want[i] = a.alloc[i] * 2
			case demand[i] < 0.1:
				want[i] = a.alloc[i] / 2
			default:
				want[i] = a.alloc[i]
			}
		}
	case Adaptive:
		// Receiver-oriented max-min (Kung-style): idle ports fall to the
		// floor; every active port gets an equal share of the rest. A
		// hog can never push an active neighbour below its fair share.
		active := 0
		for i := range want {
			if demand[i] >= 0.1 {
				active++
			}
		}
		if active == 0 {
			return
		}
		idle := len(want) - active
		share := (a.cfg.TotalFlits - idle*a.cfg.MinFlits) / active
		for i := range want {
			if demand[i] >= 0.1 {
				want[i] = share
			} else {
				want[i] = a.cfg.MinFlits
			}
		}
	}
	a.apply(want)
}

// apply clamps to the floor, scales into the budget, and pushes changes.
func (a *Allocator) apply(want []int) {
	n := len(a.ports)
	minF := a.cfg.MinFlits
	for i := range want {
		if want[i] < minF {
			want[i] = minF
		}
	}
	// Scale the above-floor surplus to fit the budget.
	surplusBudget := a.cfg.TotalFlits - minF*n
	surplus := 0
	for _, w := range want {
		surplus += w - minF
	}
	if surplus > surplusBudget && surplus > 0 {
		scale := float64(surplusBudget) / float64(surplus)
		for i := range want {
			want[i] = minF + int(float64(want[i]-minF)*scale)
		}
	}
	changed := false
	for i, p := range a.ports {
		if want[i] != a.alloc[i] {
			a.alloc[i] = want[i]
			p.SetRxBuf(a.cfg.VC, want[i])
			changed = true
		}
	}
	if changed {
		a.Reallocations.Inc()
	}
}

// JainFairness computes Jain's fairness index over per-flow goodputs:
// 1.0 is perfectly fair, 1/n is maximally unfair.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
