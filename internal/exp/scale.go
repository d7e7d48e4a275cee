package exp

import (
	"fmt"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// E10, E12 and E13 scale the fabric out. The same cluster, seed and
// workload must produce a byte-identical stats snapshot whether the
// simulation runs on one engine or partitioned across failure-domain
// shards (conservative PDES, see internal/sim.Coordinator and DESIGN.md
// "Parallel execution"). This file defines the scenarios (E10's rings,
// E12's pods, E13's generated fat-trees and dragonfly) and what they
// run: steady-state traffic (serial vs sharded, byte-equivalent), and
// a correlated failure storm driven by fabric.StormPlan with the
// manager routing around each wave (incremental vs full recompute,
// byte-equivalent). Wall-clock timing of boot, route repair, and
// events/sec lives in cmd/fccbench — this package stays deterministic.

// ScaleConfig shapes one scale-out scenario.
type ScaleConfig struct {
	Name string
	// Cluster is the topology, the host and FAM counts, and any link or
	// service settings. Hosts and FAMs attach round-robin across the
	// edge tier. The runs here set FAMCapacity, Shards and the manager
	// themselves (see newCluster). A LinkConfig propagation is also the
	// coordinator's lookahead window, so longer wires mean fewer
	// barriers per simulated second.
	Cluster fcc.Config
	// OpsPerHost memory operations stream from every host (see
	// scaleStream); all but every LocalEvery-th target the host's near
	// FAM, the rest the FAM halfway across the ID space (cross-fabric
	// traffic). LocalEvery ≤ 1 sends every operation far.
	OpsPerHost int
	LocalEvery int
	// Shards is the shard count the fccbench sweep times against serial.
	Shards int
	// Faults schedules chainPlan, which needs a chain of 4 or more
	// switches closed into a ring.
	Faults bool
}

// ScaleRingConfig is E10's equivalence scenario on the 4-switch ring
// that E9 and E11 run on too: one switch per failure domain, closed so
// that every cross-ring flow has two equal-cost directions to route
// around a loss, with hosts and one FAM per switch spread across it.
// Every operation crosses at least one shard cut.
func ScaleRingConfig() ScaleConfig {
	return ScaleConfig{
		Name: "ring-4sw",
		Cluster: fcc.Config{Hosts: 8, FAMs: 4,
			Topology: &fabric.TopoSpec{Kind: fabric.TopoChain, Groups: 4, Pods: 1}},
		OpsPerHost: 100,
	}
}

// ScalePodsConfig is E12's rack-scale scenario: 8 pods of 2 switches
// joined into a pod ring by 1 µs long-haul optics, 64 hosts, one FAM
// per switch. Shard cuts land on pod boundaries, so the discovered
// lookahead between adjacent shards is the long-haul propagation. 7 of
// 8 operations stay pod-local and the rest cross the pod ring, so
// shards have real work per window and the cut traffic that keeps the
// equivalence check honest.
func ScalePodsConfig() ScaleConfig {
	return ScaleConfig{
		Name: "pods-8x2",
		Cluster: fcc.Config{Hosts: 64, FAMs: 16,
			Topology: &fabric.TopoSpec{Kind: fabric.TopoChain, Groups: 8, Pods: 2,
				LongHaulConfig: wire(sim.Microsecond)}},
		OpsPerHost: 200, LocalEvery: 8,
	}
}

// ScaleScenarios is the E13 sweep: three generated fabrics from rack
// scale to the 512-endpoint acceptance fat-tree.
func ScaleScenarios() []ScaleConfig {
	return []ScaleConfig{
		{
			Name: "fat-tree-16sw",
			Cluster: fcc.Config{Hosts: 24, FAMs: 12,
				Topology: &fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 4, Pods: 3}},
			OpsPerHost: 40, LocalEvery: 4, Shards: 4,
		},
		{
			Name: "dragonfly-72sw",
			Cluster: fcc.Config{Hosts: 144, FAMs: 72,
				Topology: &fabric.TopoSpec{Kind: fabric.TopoDragonfly, Radix: 16, Pods: 8, Groups: 9}},
			OpsPerHost: 15, LocalEvery: 4, Shards: 8,
		},
		{
			Name: "fat-tree-64sw",
			Cluster: fcc.Config{Hosts: 448, FAMs: 64,
				Topology: &fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}},
			OpsPerHost: 10, LocalEvery: 4, Shards: 8,
		},
	}
}

// ScaleStormConfig is the storm-equivalence workload: the 16-switch
// fat-tree with pod 0 dying in staggered waves while the manager
// repairs around each loss.
func ScaleStormConfig() ScaleConfig {
	cfg := ScaleScenarios()[0]
	cfg.OpsPerHost = 200
	return cfg
}

// wire is link.DefaultConfig with the given propagation.
func wire(prop sim.Time) func() link.Config {
	return func() link.Config {
		lc := link.DefaultConfig()
		lc.Phys.Propagation = prop
		return lc
	}
}

// ScaleBuild constructs (and discovers) cfg's cluster on the given
// number of shards — the unit fccbench's boot-time measurement wraps a
// wall clock around. shards <= 1 builds the serial, one-shard cluster;
// the topology, seeds, and every device config are identical either
// way — only the engine partitioning differs.
func ScaleBuild(cfg ScaleConfig, shards int) *fcc.Cluster {
	cc := cfg.Cluster
	cc.Shards = shards
	return newCluster(cc)
}

// newCluster builds cfg with 4 MiB FAMs and a 25 µs timeout on every
// host endpoint: the cluster of every scale-out and blast-radius run
// and of E11's tables and equivalence runs.
func newCluster(cfg fcc.Config) *fcc.Cluster {
	cfg.FAMCapacity = 1 << 22
	c, err := fcc.New(cfg)
	if err != nil {
		panic(err)
	}
	for _, h := range c.Hosts {
		h.Endpoint().Timeout = 25 * sim.Microsecond
	}
	return c
}

// chainPlan is the deterministic fault plan on a ring of n switches:
// flap the ISL between the first two failure domains (for any shard
// count >= 2 of a ring of 4 or more, fs(n/2-1)<->fs(n/2) is a cut link)
// and degrade the ring-closure ISL. Every event is pinned to a virtual
// timestamp, so serial and sharded runs see identical fault timing.
func chainPlan(n int) []fcc.FaultEvent {
	cut := fmt.Sprintf("fs%d<->fs%d", n/2-1, n/2)
	closure := fmt.Sprintf("fs%d<->fs0", n-1)
	return []fcc.FaultEvent{
		{At: 40 * sim.Microsecond, Link: cut, Fault: fault.Fault{Kind: fault.LinkDown}},
		{At: 100 * sim.Microsecond, Link: cut, Fault: fault.Fault{Kind: fault.LinkDown}, Heal: true},
		{At: 60 * sim.Microsecond, Link: closure, Fault: fault.Fault{Kind: fault.LaneDegrade, Factor: 4}},
		{At: 160 * sim.Microsecond, Link: closure, Fault: fault.Fault{Kind: fault.LaneDegrade}, Heal: true},
	}
}

// clusterEvents totals the simulator events fired across every engine —
// the numerator of fccbench's events/sec throughput metric.
func clusterEvents(c *fcc.Cluster) uint64 {
	var n uint64
	for i := 0; i < c.Coord.Shards(); i++ {
		n += c.Coord.Engine(i).Events()
	}
	return n
}

// ScaleRun executes cfg's steady-state streams at the given shard count
// and returns the marshalled stats snapshot (the serial-vs-sharded
// equivalence witness), the streams' accounting, and the total
// simulator events fired.
func ScaleRun(seed uint64, shards int, cfg ScaleConfig) (raw []byte, v BlastVariant, events uint64) {
	c := ScaleBuild(cfg, shards)
	if cfg.Faults {
		if err := c.SchedulePlan(chainPlan(len(c.Builder.Switches()))); err != nil {
			panic(err)
		}
	}
	t := hostStreams(c, seed, cfg.OpsPerHost, scaleStream(c, cfg.LocalEvery), nil)
	c.Run()
	raw, err := c.Stats().Snapshot().MarshalJSONIndent()
	if err != nil {
		panic(err)
	}
	return raw, t.account(c), clusterEvents(c)
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
	cc := cfg.Cluster
	cc.Manager = true
	cc.ManagerConfig = func() fabric.ManagerConfig {
		mc := fabric.DefaultManagerConfig()
		mc.FullRecompute = full
		return mc
	}
	c := newCluster(cc)
	inj := c.NewInjector(seed)
	victims := c.Topo.PodSwitches(0)
	plan := fabric.StormPlan(c.Builder, "pod0-storm", victims,
		50*sim.Microsecond, 5*sim.Microsecond, 150*sim.Microsecond)
	if err := inj.Schedule(plan); err != nil {
		panic(err)
	}

	t := hostStreams(c, seed, cfg.OpsPerHost, scaleStream(c, cfg.LocalEvery), stopManager(c, len(c.Hosts)))
	c.Run()

	r := ScaleStormResult{
		Variant:     t.account(c),
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
	c := ScaleBuild(cfg, 1)
	tm := c.CollectTraffic()
	hostStreams(c, seed, cfg.OpsPerHost, scaleStream(c, cfg.LocalEvery), nil)
	c.Run()
	return tm.RenderHeatmap()
}
