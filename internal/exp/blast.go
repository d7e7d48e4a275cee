package exp

import (
	"bytes"
	"fmt"
	"strings"

	"fcc"
	"fcc/internal/etrans"
	"fcc/internal/faa"
	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/sim"
)

// BlastVariant is the full transaction accounting of one blast-radius
// run: every issued operation must either commit (possibly after
// retries and a route-around) or fail with a typed error — Unaccounted
// is the difference and must be zero, or the fabric silently lost work.
type BlastVariant struct {
	Issued      int `json:"issued"`
	Committed   int `json:"committed"`
	TypedErrors int `json:"typed_errors"`
	Unaccounted int `json:"unaccounted"`

	// Retries/Timeouts aggregate the endpoint counters across hosts.
	Retries  int64 `json:"retries"`
	Timeouts int64 `json:"timeouts"`

	// Host blast radius: severed hosts saw at least one typed failure,
	// degraded hosts needed retries but committed everything, clean hosts
	// never noticed the fault.
	Hosts         int `json:"hosts"`
	SeveredHosts  int `json:"severed_hosts"`
	DegradedHosts int `json:"degraded_hosts"`
	CleanHosts    int `json:"clean_hosts"`

	// PktsDropped counts packets the fabric discarded (crashed switch
	// arrivals plus unroutable drops after a route-around).
	PktsDropped int64 `json:"pkts_dropped"`
	// Reroutes is the manager's PBR re-fill count (0 without a manager).
	Reroutes int64 `json:"reroutes"`
}

// BlastRadiusResult is the blast-radius experiment output (§3,
// Difference #5: failures in a composable infrastructure are partial,
// with a quantifiable blast radius).
type BlastRadiusResult struct {
	Seed         uint64 `json:"seed"`
	VictimSwitch string `json:"victim_switch"`

	// RouteAround and NoManager run the identical switch-kill against the
	// identical workload, with and without the fabric manager.
	RouteAround BlastVariant `json:"route_around"`
	NoManager   BlastVariant `json:"no_manager"`

	// FullPlan is the accounting run: one switch, one ISL, one FAM, one
	// FAA killed (plus a lane degrade and a credit leak) under a mixed
	// memory + elastic-transaction + FAA workload.
	FullPlan  BlastVariant `json:"full_plan"`
	PlanKills []string     `json:"plan_kills"`

	// Storm is the correlated-failure accounting: a whole fat-tree pod
	// dying in staggered waves (fabric.StormPlan) while the manager
	// repairs incrementally around each loss. StormRepairs counts the
	// incremental route-arounds the storm forced.
	Storm        BlastVariant `json:"storm"`
	StormKills   []string     `json:"storm_kills"`
	StormRepairs int          `json:"storm_repairs"`

	// Time from fault onset to routes re-filled, from the manager's
	// histogram of the route-around run.
	TimeToRerouteP50Us float64 `json:"time_to_reroute_p50_us"`
	TimeToRerouteMaxUs float64 `json:"time_to_reroute_max_us"`

	// Deterministic reports that two same-seed FullPlan runs produced
	// identical accounting and byte-identical stats snapshots.
	Deterministic bool `json:"deterministic"`

	// Stats is the fabric-wide tree of the FullPlan run, including the
	// manager and fault subtrees.
	Stats *sim.StatsSnapshot `json:"stats"`
}

// adaptiveSwitch is E9's switch config: each switch sends a packet out
// the least-loaded of its equal-cost ports, here the ring's two
// directions.
func adaptiveSwitch() fabric.SwitchConfig {
	sc := fabric.DefaultSwitchConfig()
	sc.Adaptive = true
	return sc
}

// blastSwitchKill measures the blast radius of one crashed switch on
// E10's ring: its 8 hosts each stream reads/writes to the FAM two hops
// across the ring while a seeded victim switch dies for 300us. With the manager, only
// endpoints inside the dead failure domain are affected; without it,
// transit flows through the victim stall until the hardware heals.
func blastSwitchKill(seed uint64, withMgr bool) (BlastVariant, string, float64, float64) {
	cfg := ScaleRingConfig().Cluster
	cfg.SwitchConfig, cfg.Manager = adaptiveSwitch, withMgr
	c := newCluster(cfg)
	inj := c.NewInjector(seed)
	rng := sim.NewRNG(seed).Fork(0xb1a)
	victim := c.Builder.Switches()[rng.Intn(4)].Name()
	plan := fault.NewPlan("switch-kill")
	plan.KillSwitch(100*sim.Microsecond, victim, 300*sim.Microsecond)
	if err := inj.Schedule(plan); err != nil {
		panic(err)
	}

	t := hostStreams(c, seed, 150, blastStream(c), stopManager(c, len(c.Hosts)))
	c.Run()

	v := t.account(c)
	var p50, max float64
	if c.Manager != nil && c.Manager.TimeToReroute.Count() > 0 {
		p50 = c.Manager.TimeToReroute.Quantile(0.50) / 1e3
		max = c.Manager.TimeToReroute.Max() / 1e3
	}
	return v, victim, p50, max
}

// blastFullPlan is the accounting run: a seeded plan kills one switch,
// one inter-switch link, one FAM, and one FAA chassis (and degrades a
// second ISL's lanes and leaks credits on a host link, so every fault
// kind fires) under a mixed workload — per-host memory streams, inline
// elastic transactions from host0, and FAA invocations from host1. The
// returned snapshot bytes are the determinism witness; the drained
// cluster comes last, for audits of its books.
func blastFullPlan(seed uint64) (BlastVariant, []string, *sim.StatsSnapshot, []byte, *fcc.Cluster) {
	cfg := ScaleRingConfig().Cluster
	cfg.Hosts, cfg.FAAs = 6, 2
	cfg.SwitchConfig, cfg.Manager = adaptiveSwitch, true
	c := newCluster(cfg)
	inj := c.NewInjector(seed)
	rng := sim.NewRNG(seed).Fork(0xb1a57)
	isls := c.Builder.ISLLinks()
	svName := c.Builder.Switches()[rng.Intn(4)].Name()
	islIdx := rng.Intn(len(isls))
	famIdx := rng.Intn(4)
	var hostLink string
	for _, att := range c.Builder.Attachments() {
		if att.Name == "host0" {
			hostLink = att.Link.Name()
		}
	}

	plan := fault.NewPlan("full-blast")
	plan.DegradeLanes(100*sim.Microsecond, isls[(islIdx+2)%len(isls)].Name(), 4, 250*sim.Microsecond)
	plan.FlapLink(120*sim.Microsecond, isls[islIdx].Name(), 80*sim.Microsecond)
	plan.LeakCredits(130*sim.Microsecond, hostLink, int(flit.ChMem), 4, 150*sim.Microsecond)
	plan.KillSwitch(150*sim.Microsecond, svName, 250*sim.Microsecond)
	plan.FailDevice(180*sim.Microsecond, c.FAMs[famIdx].Name(), 200*sim.Microsecond)
	plan.KillChassis(210*sim.Microsecond, c.FAAs[0].Name(), 120*sim.Microsecond)
	if err := inj.Schedule(plan); err != nil {
		panic(err)
	}
	kills := []string{
		fmt.Sprintf("switch-crash %s", svName),
		fmt.Sprintf("link-flap %s", isls[islIdx].Name()),
		fmt.Sprintf("device-fail %s", c.FAMs[famIdx].Name()),
		fmt.Sprintf("chassis-kill %s", c.FAAs[0].Name()),
		fmt.Sprintf("lane-degrade %s", isls[(islIdx+2)%len(isls)].Name()),
		fmt.Sprintf("credit-leak %s", hostLink),
	}

	// Echo function on both FAAs for host1's invocation stream.
	for _, d := range c.FAAs {
		d.NewFunction(1, "echo").On(0, func(hc *faa.HandlerCtx, payload []byte) ([]byte, error) {
			hc.Compute(200 * sim.Nanosecond)
			return payload, nil
		})
	}

	finish := stopManager(c, len(c.Hosts)+2) // memory streams + etrans stream + FAA stream
	t := hostStreams(c, seed, 120, blastStream(c), finish)

	// host0: inline elastic transactions against the doomed FAM.
	et := c.NewETrans(c.Hosts[0])
	c.Go("blast-etrans", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		for i := 0; i < 6; i++ {
			t.issued[0]++
			_, err := et.Submit(&etrans.Request{
				Src:       []etrans.Segment{{Port: c.FAMs[famIdx].ID(), Addr: 1 << 12, Size: 256}},
				Dst:       []etrans.Segment{{Port: c.FAMs[(famIdx+1)%4].ID(), Addr: 1 << 12, Size: 256}},
				Immediate: true,
			}).Await(p)
			t.count(0, err)
			p.Sleep(50 * sim.Microsecond)
		}
		finish()
	})

	// host1: FAA invocations against the doomed chassis.
	c.Go("blast-faa", func(p *sim.Proc) {
		ep := c.Hosts[1].Endpoint()
		p.Sleep(80 * sim.Microsecond)
		for i := 0; i < 8; i++ {
			t.issued[1]++
			_, err := faa.InvokeP(p, ep, c.FAAs[0].ID(), 1, 0, []byte{byte(i)})
			t.count(1, err)
			p.Sleep(40 * sim.Microsecond)
		}
		finish()
	})

	c.Run()

	v := t.account(c)
	snap := c.Stats().Snapshot()
	raw, err := snap.MarshalJSONIndent()
	if err != nil {
		panic(err)
	}
	return v, kills, snap, raw, c
}

// BlastRadius runs the blast-radius experiment at the given seed: the
// switch-kill comparison (with vs without the fabric manager), then the
// full fault plan twice to prove seed-determinism, with zero-loss
// transaction accounting throughout.
func BlastRadius(seed uint64) *BlastRadiusResult {
	withMgr, victim, p50, max := blastSwitchKill(seed, true)
	noMgr, _, _, _ := blastSwitchKill(seed, false)
	full, kills, snap, raw, _ := blastFullPlan(seed)
	full2, _, _, raw2, _ := blastFullPlan(seed)
	storm := ScaleStorm(seed, ScaleStormConfig(), false)
	return &BlastRadiusResult{
		Seed:               seed,
		VictimSwitch:       victim,
		RouteAround:        withMgr,
		NoManager:          noMgr,
		FullPlan:           full,
		PlanKills:          kills,
		Storm:              storm.Variant,
		StormKills:         storm.Kills,
		StormRepairs:       storm.Repairs,
		TimeToRerouteP50Us: p50,
		TimeToRerouteMaxUs: max,
		Deterministic:      full == full2 && bytes.Equal(raw, raw2),
		Stats:              snap,
	}
}

// RenderBlastRadius formats the result for the terminal.
func RenderBlastRadius(r *BlastRadiusResult) string {
	var b strings.Builder
	line := func(label string, v BlastVariant) {
		fmt.Fprintf(&b, "  %-14s %5d issued, %5d committed, %3d typed errors, %d unaccounted\n"+
			"  %-14s %5d retries, %d reroutes; hosts: %d severed / %d degraded / %d clean of %d\n",
			label+":", v.Issued, v.Committed, v.TypedErrors, v.Unaccounted,
			"", v.Retries, v.Reroutes, v.SeveredHosts, v.DegradedHosts, v.CleanHosts, v.Hosts)
	}
	fmt.Fprintf(&b, "switch-kill blast radius (victim %s, seed %d):\n", r.VictimSwitch, r.Seed)
	line("route-around", r.RouteAround)
	line("no manager", r.NoManager)
	fmt.Fprintf(&b, "  time-to-reroute: p50 %.1fus, max %.1fus\n", r.TimeToRerouteP50Us, r.TimeToRerouteMaxUs)
	fmt.Fprintf(&b, "full plan (%s):\n", strings.Join(r.PlanKills, ", "))
	line("accounting", r.FullPlan)
	fmt.Fprintf(&b, "pod storm on the 16-switch fat-tree (%s; %d incremental repairs):\n",
		strings.Join(r.StormKills, ", "), r.StormRepairs)
	line("storm", r.Storm)
	fmt.Fprintf(&b, "  deterministic across two same-seed runs: %v\n", r.Deterministic)
	return b.String()
}
