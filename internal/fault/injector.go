package fault

import (
	"fmt"

	"fcc/internal/sim"
)

// Injector schedules fault plans against registered components. It owns
// a seeded RNG (for RandomPlan) and the blast-radius bookkeeping shared
// by every experiment: counts of injections and heals per kind, the
// number of currently active faults, and a histogram of how long each
// fault was live before it healed.
type Injector struct {
	eng     *sim.Engine
	rng     *sim.RNG
	targets map[string]Injectable
	// names carries registration order: every sweep over the target set
	// (RandomPlan's kind/target scans) iterates names, never the targets
	// map, so plans are seed-deterministic (fcclint: maporder).
	names  []string
	active int

	Injected     sim.Counter // faults successfully applied
	Healed       sim.Counter // faults successfully cleared
	InjectErrors sim.Counter // InjectFault/HealFault calls that errored
	perKind      [numKinds]sim.Counter
	ActiveNs     *sim.Histogram // lifetime of each healed fault
}

// NewInjector returns an injector bound to eng, seeded for reproducible
// random plans.
func NewInjector(eng *sim.Engine, seed uint64) *Injector {
	return &Injector{
		eng:      eng,
		rng:      sim.NewRNG(seed).Fork(0xfa017),
		targets:  make(map[string]Injectable),
		ActiveNs: sim.NewHistogram(),
	}
}

// Register makes targets addressable by their FaultID. Duplicate IDs
// panic: a plan that silently hit the wrong component would be a
// miserable debugging session.
func (in *Injector) Register(targets ...Injectable) {
	for _, t := range targets {
		id := t.FaultID()
		if _, dup := in.targets[id]; dup {
			panic("fault: duplicate target registration: " + id)
		}
		in.targets[id] = t
		in.names = append(in.names, id)
	}
}

// Schedule validates the plan (every target registered and supporting
// its fault kind, no event in the past) and arms every event on the
// engine. Validation is up-front so a typo'd target fails at schedule
// time, not halfway through a long run.
func (in *Injector) Schedule(p *Plan) error {
	now := in.eng.Now()
	for _, ev := range p.Events {
		t, ok := in.targets[ev.Target]
		if !ok {
			return fmt.Errorf("fault: plan %q: unknown target %q", p.Name, ev.Target)
		}
		if !t.Supports(ev.Fault.Kind) {
			return fmt.Errorf("fault: plan %q: target %q does not support %v",
				p.Name, ev.Target, ev.Fault.Kind)
		}
		if ev.At < now {
			return fmt.Errorf("fault: plan %q: event at %v is in the past (now %v)",
				p.Name, ev.At, now)
		}
	}
	for _, ev := range p.Events {
		ev := ev
		in.eng.At(ev.At, func() { in.apply(in.targets[ev.Target], ev) })
	}
	return nil
}

// Inject applies f to target immediately. Most callers should schedule a
// Plan instead; this is the escape hatch for tests and custom drivers.
func (in *Injector) Inject(target string, f Fault) error {
	t, ok := in.targets[target]
	if !ok {
		return fmt.Errorf("fault: unknown target %q", target)
	}
	if err := t.InjectFault(f); err != nil {
		in.InjectErrors.Inc()
		return err
	}
	in.noteInjected(f.Kind)
	return nil
}

// Heal clears the fault of kind k on target immediately.
func (in *Injector) Heal(target string, k Kind) error {
	t, ok := in.targets[target]
	if !ok {
		return fmt.Errorf("fault: unknown target %q", target)
	}
	return in.heal(t, k, in.eng.Now())
}

func (in *Injector) apply(t Injectable, ev Event) {
	if err := t.InjectFault(ev.Fault); err != nil {
		in.InjectErrors.Inc()
		return
	}
	in.noteInjected(ev.Fault.Kind)
	if ev.Duration > 0 {
		since := in.eng.Now()
		in.eng.After(ev.Duration, func() { _ = in.heal(t, ev.Fault.Kind, since) })
	}
}

func (in *Injector) noteInjected(k Kind) {
	in.Injected.Inc()
	in.perKind[k].Inc()
	in.active++
}

func (in *Injector) heal(t Injectable, k Kind, since sim.Time) error {
	if err := t.HealFault(k); err != nil {
		in.InjectErrors.Inc()
		return err
	}
	in.Healed.Inc()
	if in.active > 0 {
		in.active--
	}
	in.ActiveNs.ObserveTime(in.eng.Now() - since)
	return nil
}

// RandomPlan builds a seed-deterministic chaos plan of n events spread
// over [0, horizon), each healing after between horizon/16 and horizon/6.
// Targets are drawn (in registration order) from the components that
// support the chosen kind; kinds defaults to every kind some registered
// target supports. Two injectors with the same seed, registrations, and
// arguments produce identical plans.
func (in *Injector) RandomPlan(name string, n int, horizon sim.Time, kinds ...Kind) *Plan {
	if len(kinds) == 0 {
		for k := Kind(0); k < numKinds; k++ {
			for _, id := range in.names {
				if in.targets[id].Supports(k) {
					kinds = append(kinds, k)
					break
				}
			}
		}
	}
	// Precompute, per kind, the targets that can host it.
	byKind := make([][]string, len(kinds))
	for i, k := range kinds {
		for _, id := range in.names {
			if in.targets[id].Supports(k) {
				byKind[i] = append(byKind[i], id)
			}
		}
	}
	p := NewPlan(name)
	for i := 0; i < n; i++ {
		ki := in.rng.Intn(len(kinds))
		if len(byKind[ki]) == 0 {
			continue
		}
		k := kinds[ki]
		f := Fault{Kind: k}
		switch k {
		case LaneDegrade:
			f.Factor = 2 << in.rng.Intn(3) // 2, 4, or 8
		case CreditLeak:
			f.Credits = 1 + in.rng.Intn(4)
		}
		minDur := horizon / 16
		p.Add(Event{
			At:       sim.Time(in.rng.Intn(int(horizon))),
			Target:   byKind[ki][in.rng.Intn(len(byKind[ki]))],
			Fault:    f,
			Duration: minDur + sim.Time(in.rng.Intn(int(horizon/6-minDur)+1)),
		})
	}
	return p.Sort()
}

// Active reports the number of currently injected, un-healed faults.
func (in *Injector) Active() int { return in.active }

// RegisterStats attaches the injector's blast-radius metrics.
func (in *Injector) RegisterStats(s *sim.Stats) {
	s.Register("injected", &in.Injected)
	s.Register("healed", &in.Healed)
	s.Register("inject_errors", &in.InjectErrors)
	for k := Kind(0); k < numKinds; k++ {
		s.Register("injected_"+k.String(), &in.perKind[k])
	}
	s.Gauge("active", func() int64 { return int64(in.active) })
	s.RegisterHistogram("fault_active_ns", in.ActiveNs)
}
