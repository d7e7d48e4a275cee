package exp

import (
	"fmt"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// Sharded-execution equivalence: the same cluster, same seed, and same
// workload must produce a byte-identical stats snapshot whether the
// simulation runs on one engine or partitioned across failure-domain
// shards (conservative PDES, see internal/sim.Coordinator and
// DESIGN.md "Parallel execution"). This file defines the workload both
// the equivalence test and the fccbench speedup experiment run.

// ShardConfig shapes one shard-equivalence workload.
type ShardConfig struct {
	Hosts      int
	Switches   int
	FAMs       int
	OpsPerHost int
	// ISLPropagation is the wire propagation of every link; it is also
	// the coordinator's lookahead window, so longer wires mean fewer
	// barriers per simulated second.
	ISLPropagation sim.Time
	// Pods, when > 1, builds the multi-pod topology instead of the flat
	// ring: a fabric.TopoChain of Switches/Pods-switch pods with short
	// ISLPropagation wires inside, joined into a pod-level ring by
	// long-haul PodPropagation links. Shard cuts land on pod boundaries,
	// so the discovered lookahead between adjacent shards is
	// PodPropagation — the wide windows the scaling benchmark measures.
	Pods           int
	PodPropagation sim.Time
	// LocalEvery: in a pod topology, all but every LocalEvery-th
	// operation targets the FAM on the host's own switch (pod-local
	// traffic); the rest go to the FAM halfway across the pod ring.
	// LocalEvery ≤ 1 is the flat-ring behavior: every op crosses the
	// fabric.
	LocalEvery int
	// Faults, when set, schedules the deterministic two-fault plan (a
	// cut-ISL flap plus a lane degrade on the ring-closure ISL) that
	// exercises per-side fault application across the shard boundary.
	Faults bool
}

// ShardRingConfig is the equivalence workload on the same 4-switch ring
// the blast-radius experiments use: one switch per failure domain.
func ShardRingConfig() ShardConfig {
	return ShardConfig{
		Hosts: 8, Switches: 4, FAMs: 4, OpsPerHost: 100,
		ISLPropagation: 10 * sim.Nanosecond,
	}
}

// ShardWideConfig is the speedup workload: a wider ring with
// cross-row-class optics (1us propagation, ~200m of fiber), so each
// lookahead window holds enough per-domain work to amortize the
// barrier.
func ShardWideConfig() ShardConfig {
	return ShardConfig{
		Hosts: 64, Switches: 8, FAMs: 8, OpsPerHost: 400,
		ISLPropagation: sim.Microsecond,
	}
}

// ShardScaleConfig is the rack-scale scaling workload (E12, minimal
// slice of ROADMAP item 1): 8 pods of 2 switches joined by 1 µs
// long-haul optics, 64 hosts, one FAM per switch. 7 of 8 operations
// stay pod-local, the rest cross the pod ring — so shards have real
// work per window and the cut traffic that keeps the equivalence
// check honest.
func ShardScaleConfig() ShardConfig {
	return ShardConfig{
		Hosts: 64, Switches: 16, FAMs: 16, OpsPerHost: 200,
		ISLPropagation: 10 * sim.Nanosecond,
		Pods:           8,
		PodPropagation: sim.Microsecond,
		LocalEvery:     8,
	}
}

// shardCluster builds the cluster for one run. shards <= 1 builds the
// serial, one-shard cluster; the topology, seeds, and every device
// config are identical either way — only the engine partitioning
// differs.
func shardCluster(cfg ShardConfig, shards int) *fcc.Cluster {
	wire := func(prop sim.Time) func() link.Config {
		return func() link.Config {
			lc := link.DefaultConfig()
			lc.Phys.Propagation = prop
			return lc
		}
	}
	spec := fabric.TopoSpec{Kind: fabric.TopoChain, Groups: cfg.Switches, Pods: 1}
	if cfg.Pods > 1 {
		spec.Groups, spec.Pods = cfg.Pods, cfg.Switches/cfg.Pods
		spec.LongHaulConfig = wire(cfg.PodPropagation)
	}
	c, err := fcc.New(fcc.Config{
		Hosts: cfg.Hosts, FAMs: cfg.FAMs, FAMCapacity: 1 << 22,
		Topology: &spec, Shards: shards,
		LinkConfig: wire(cfg.ISLPropagation),
	})
	if err != nil {
		panic(err)
	}
	for _, h := range c.Hosts {
		h.Endpoint().Timeout = 25 * sim.Microsecond
	}
	return c
}

// shardPlan is the deterministic fault plan: flap the ISL between the
// first two failure domains (for any shard count >= 2 of a 4+-switch
// ring, fs1<->fs2 is a cut link) and degrade the ring-closure ISL.
// Every event is pinned to a virtual timestamp, so serial and sharded
// runs see identical fault timing.
func shardPlan(cfg ShardConfig) []fcc.FaultEvent {
	cut := fmt.Sprintf("fs%d<->fs%d", cfg.Switches/2-1, cfg.Switches/2)
	closure := fmt.Sprintf("fs%d<->fs0", cfg.Switches-1)
	return []fcc.FaultEvent{
		{At: 40 * sim.Microsecond, Link: cut, Fault: fault.Fault{Kind: fault.LinkDown}},
		{At: 100 * sim.Microsecond, Link: cut, Fault: fault.Fault{Kind: fault.LinkDown}, Heal: true},
		{At: 60 * sim.Microsecond, Link: closure, Fault: fault.Fault{Kind: fault.LaneDegrade, Factor: 4}},
		{At: 160 * sim.Microsecond, Link: closure, Fault: fault.Fault{Kind: fault.LaneDegrade}, Heal: true},
	}
}

// ShardRun executes the workload at the given shard count and returns
// the marshalled fabric-wide stats snapshot (the equivalence witness)
// plus the number of committed operations. Hosts run scaleWorkload's
// streams: on the rings (LocalEvery 0) every operation goes to the FAM
// halfway across the ring and crosses at least one shard cut; on the
// pods all but every LocalEvery-th stays on the host's own switch.
func ShardRun(seed uint64, shards int, cfg ShardConfig) (raw []byte, committed int) {
	c := shardCluster(cfg, shards)
	if cfg.Faults {
		if err := c.SchedulePlan(shardPlan(cfg)); err != nil {
			panic(err)
		}
	}
	done := scaleWorkload(c, seed, cfg.OpsPerHost, cfg.LocalEvery)
	c.Run()

	for _, d := range done {
		committed += d
	}
	raw, err := c.Stats().Snapshot().MarshalJSONIndent()
	if err != nil {
		panic(err)
	}
	return raw, committed
}
