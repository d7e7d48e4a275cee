package exp

import (
	"fmt"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/sim"
)

// E13: datacenter-scale boot and routing. The topology generator
// (fabric.Generate) builds fat-trees and dragonflies of hundreds of
// endpoints; this file defines the workloads the scale sweep runs on
// them — steady-state traffic (serial vs sharded, byte-equivalent), and
// a correlated failure storm driven by fabric.StormPlan with the
// manager routing around each wave (incremental vs full recompute,
// byte-equivalent). Wall-clock timing of boot, route repair, and
// events/sec lives in cmd/fccbench — this package stays deterministic.

// ScaleConfig shapes one datacenter-scale workload.
type ScaleConfig struct {
	Name string
	Spec fabric.TopoSpec
	// Hosts and FAMs attach round-robin across the generated edge tier.
	Hosts int
	FAMs  int
	// OpsPerHost memory operations stream from every host; all but
	// every LocalEvery-th target the host's near FAM, the rest the FAM
	// halfway across the ID space (cross-fabric traffic). LocalEvery ≤ 1
	// sends every operation far.
	OpsPerHost int
	LocalEvery int
	// Shards is the shard count the fccbench sweep times against serial.
	Shards int
}

// ScaleScenarios is the E13 sweep: three generated fabrics from rack
// scale to the 512-endpoint acceptance fat-tree.
func ScaleScenarios() []ScaleConfig {
	return []ScaleConfig{
		{
			Name:  "fat-tree-16sw",
			Spec:  fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 4, Pods: 3},
			Hosts: 24, FAMs: 12, OpsPerHost: 40, LocalEvery: 4, Shards: 4,
		},
		{
			Name:  "dragonfly-72sw",
			Spec:  fabric.TopoSpec{Kind: fabric.TopoDragonfly, Radix: 16, Pods: 8, Groups: 9},
			Hosts: 144, FAMs: 72, OpsPerHost: 15, LocalEvery: 4, Shards: 8,
		},
		{
			Name:  "fat-tree-64sw",
			Spec:  fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6},
			Hosts: 448, FAMs: 64, OpsPerHost: 10, LocalEvery: 4, Shards: 8,
		},
	}
}

// ScaleStormConfig is the storm-equivalence workload: the 16-switch
// fat-tree with pod 0 dying in staggered waves while the manager
// repairs around each loss.
func ScaleStormConfig() ScaleConfig {
	return ScaleConfig{
		Name:  "fat-tree-16sw",
		Spec:  fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 4, Pods: 3},
		Hosts: 24, FAMs: 12, OpsPerHost: 200, LocalEvery: 4,
	}
}

// ScaleBuild constructs (and discovers) the cluster for cfg — the unit
// fccbench's boot-time measurement wraps a wall clock around.
func ScaleBuild(cfg ScaleConfig, shards int) *fcc.Cluster {
	return scaleCluster(cfg, shards, false, false)
}

func scaleCluster(cfg ScaleConfig, shards int, manager, fullRecompute bool) *fcc.Cluster {
	spec := cfg.Spec
	fcfg := fcc.Config{
		Hosts: cfg.Hosts, FAMs: cfg.FAMs, FAMCapacity: 1 << 22,
		Topology: &spec,
		Shards:   shards,
		Manager:  manager,
	}
	if manager {
		fcfg.ManagerConfig = func() fabric.ManagerConfig {
			mc := fabric.DefaultManagerConfig()
			mc.FullRecompute = fullRecompute
			return mc
		}
	}
	c, err := fcc.New(fcfg)
	if err != nil {
		panic(err)
	}
	for _, h := range c.Hosts {
		h.Endpoint().Timeout = 25 * sim.Microsecond
	}
	return c
}

// scaleWorkload starts the steady-state streams: every host issues ops
// requests (see streamOp), prime-staggered so no two hosts tick in
// lockstep, on its own engine. committed[hi] counts host hi's successes.
func scaleWorkload(c *fcc.Cluster, seed uint64, ops, localEvery int) (committed []int) {
	committed = make([]int, len(c.Hosts))
	for hi, h := range c.Hosts {
		hi, h := hi, h
		ep := h.Endpoint()
		rng := sim.NewRNG(seed).Fork(uint64(hi))
		h.Engine().Go(h.Name(), func(p *sim.Proc) {
			p.Sleep(sim.Time(1 + hi*7919)) // prime-staggered start, in ps
			for op := 0; op < ops; op++ {
				pkt := streamOp(c, hi, op, localEvery, rng)
				if _, err := ep.RequestRetry(pkt, 3, 20*sim.Microsecond).Await(p); err == nil {
					committed[hi]++
				}
				p.Sleep(sim.Time(200+rng.Intn(800)) * sim.Nanosecond)
			}
		})
	}
	return committed
}

// streamOp is host hi's op-th streamed request: a 64 B read, every third
// one a write, of a random line in the host's near FAM (the one on its
// own switch when FAMs are spread like hosts) or, for every
// localEvery-th op and for all of them when localEvery ≤ 1, in the FAM
// halfway across the ID space.
func streamOp(c *fcc.Cluster, hi, op, localEvery int, rng *sim.RNG) *flit.Packet {
	n := len(c.FAMs)
	fam := (hi + n/2) % n
	if localEvery > 1 && op%localEvery != localEvery-1 {
		fam = hi % n
	}
	pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: c.FAMs[fam].ID(),
		Addr: uint64(rng.Intn(1<<16)) * 64, ReqLen: 64}
	if op%3 == 2 {
		pkt.Op, pkt.ReqLen, pkt.Size = flit.OpMemWr, 0, 64
	}
	return pkt
}

// clusterEvents totals the simulator events fired across every engine —
// the numerator of fccbench's events/sec throughput metric.
func clusterEvents(c *fcc.Cluster) uint64 {
	if c.Coord == nil {
		return c.Eng.Events()
	}
	var n uint64
	for i := 0; i < c.Coord.Shards(); i++ {
		n += c.Coord.Engine(i).Events()
	}
	return n
}

// ScaleRun executes the steady-state workload on cfg's generated
// topology at the given shard count and returns the marshalled stats
// snapshot (the serial-vs-sharded equivalence witness), the committed
// operation count, and the total simulator events fired.
func ScaleRun(seed uint64, shards int, cfg ScaleConfig) (raw []byte, committed int, events uint64) {
	c := scaleCluster(cfg, shards, false, false)
	done := scaleWorkload(c, seed, cfg.OpsPerHost, cfg.LocalEvery)
	c.Run()
	for _, d := range done {
		committed += d
	}
	raw, err := c.Stats().Snapshot().MarshalJSONIndent()
	if err != nil {
		panic(err)
	}
	return raw, committed, clusterEvents(c)
}

// ScaleStormResult is one storm run: full blast-radius accounting, the
// manager's repair-path split, and the snapshot bytes the
// incremental-vs-full equivalence check compares.
type ScaleStormResult struct {
	Variant     BlastVariant `json:"variant"`
	Kills       []string     `json:"kills"`
	Repairs     int          `json:"repairs"`
	Fulls       int          `json:"fulls"`
	Unreachable int          `json:"unreachable"`
	Events      uint64       `json:"-"`

	// Raw is the snapshot; excluded from JSON (it is the whole stats
	// tree again) but compared byte-for-byte across repair modes.
	Raw []byte `json:"-"`
}

// ScaleStorm runs cfg's workload while fabric.StormPlan kills pod 0 —
// every switch in the pod crashing 5us apart, each taking its optics
// down with it — and the manager routes around the waves, either
// incrementally or (full=true) with full recomputes. The two modes
// must produce byte-identical snapshots; only RepairCounts differs.
func ScaleStorm(seed uint64, cfg ScaleConfig, full bool) ScaleStormResult {
	c := scaleCluster(cfg, 1, true, full)
	inj := c.NewInjector(seed)
	victims := c.Topo.PodSwitches(0)
	plan := fabric.StormPlan(c.Builder, "pod0-storm", victims,
		50*sim.Microsecond, 5*sim.Microsecond, 150*sim.Microsecond)
	if err := inj.Schedule(plan); err != nil {
		panic(err)
	}

	n := len(c.Hosts)
	issued := make([]int, n)
	committed := make([]int, n)
	typed := make([]int, n)
	done := 0
	for hi, h := range c.Hosts {
		hi, h := hi, h
		ep := h.Endpoint()
		rng := sim.NewRNG(seed).Fork(uint64(hi))
		c.Go(h.Name(), func(p *sim.Proc) {
			p.Sleep(sim.Time(1 + hi*7919))
			for op := 0; op < cfg.OpsPerHost; op++ {
				pkt := streamOp(c, hi, op, cfg.LocalEvery, rng)
				issued[hi]++
				_, err := ep.RequestRetry(pkt, 3, 20*sim.Microsecond).Await(p)
				switch {
				case err == nil:
					committed[hi]++
				case blastTyped(err):
					typed[hi]++
				default:
					panic(fmt.Sprintf("scale storm: untyped failure: %v", err))
				}
				p.Sleep(sim.Time(200+rng.Intn(800)) * sim.Nanosecond)
			}
			done++
			if done == n {
				c.Manager.Stop()
			}
		})
	}
	c.Run()

	r := ScaleStormResult{
		Variant:     blastAccount(c, issued, committed, typed),
		Unreachable: c.Manager.Unreachable(),
		Events:      clusterEvents(c),
	}
	r.Repairs, r.Fulls = c.Manager.RepairCounts()
	for _, sw := range victims {
		r.Kills = append(r.Kills, sw.Name())
	}
	raw, err := c.Stats().Snapshot().MarshalJSONIndent()
	if err != nil {
		panic(err)
	}
	r.Raw = raw
	return r
}

// ScaleTraffic runs the steady-state workload serially with the
// cluster-wide traffic matrix attached and renders it as a heatmap —
// the "unexplored rack/cluster-scale traffic matrix" of Principle #1,
// at datacenter scale.
func ScaleTraffic(seed uint64, cfg ScaleConfig) string {
	c := scaleCluster(cfg, 1, false, false)
	tm := c.CollectTraffic()
	scaleWorkload(c, seed, cfg.OpsPerHost, cfg.LocalEvery)
	c.Run()
	return tm.RenderHeatmap()
}
