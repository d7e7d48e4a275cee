// Package fcc is the public face of the Fabric-Centric Computing
// reproduction: a builder that assembles a complete composable
// infrastructure — hosts with calibrated cache hierarchies and FHAs,
// fabric switches with credit-based flow control, fabric-attached
// memory (FAM) and accelerator (FAA) chassis, migration agents, an
// optional coherence directory, and the central fabric arbiter — plus
// accessors for the UniFabric runtime layers (elastic transactions,
// unified heap, idempotent tasks, scalable functions) built on top.
//
// The package wires defaults calibrated against the paper's Omega
// Fabric testbed (Table 2); every knob remains overridable through the
// Config hooks. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the calibration evidence.
package fcc

import (
	"fmt"

	"fcc/internal/arbiter"
	"fcc/internal/coherence"
	"fcc/internal/etrans"
	"fcc/internal/faa"
	"fcc/internal/fabric"
	"fcc/internal/fabstore"
	"fcc/internal/fault"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/telemetry"
	"fcc/internal/uheap"
)

// RemoteBase is the host physical address where the first FAM region is
// mapped; FAM i maps at RemoteBase + i*FAMCapacity on every host.
const RemoteBase uint64 = 1 << 36

// Config describes a cluster to build.
type Config struct {
	// Hosts is the number of host servers (≥1).
	Hosts int
	// FAMs is the number of fabric-attached memory chassis.
	FAMs int
	// FAMCapacity is each FAM's size in bytes.
	FAMCapacity uint64
	// FAAs is the number of fabric-attached accelerator chassis.
	FAAs int
	// Agents places one migration agent per FAM chassis (etrans).
	Agents bool
	// Arbiter attaches the central fabric arbiter (Principle #4).
	Arbiter bool
	// Coherent fronts every FAM with a CC-NUMA directory.
	Coherent bool
	// Switches is the number of fabric switches in a line topology
	// (hosts attach to the first, devices spread round-robin). 0 = 1.
	// New builds the line as a fabric.TopoChain of one group.
	Switches int
	// Ring closes the switch line into a ring (needs ≥ 3 switches),
	// giving every flow two equal-cost directions — the redundancy the
	// fabric manager routes around failures with. New builds the ring
	// as a fabric.TopoChain of Switches one-switch groups.
	Ring bool
	// SpreadHosts attaches hosts round-robin across switches like
	// devices, instead of all on the first switch. With Ring this makes
	// blast-radius experiments meaningful: each switch is one failure
	// domain holding a known slice of hosts and devices.
	SpreadHosts bool
	// Topology, when set, replaces the Switches/Ring line or ring with
	// a generated topology (chain, fat-tree or dragonfly, see
	// fabric.TopoSpec); setting it with Switches > 1 or Ring is an
	// error. Hosts and devices attach round-robin across the edge tier
	// (generated fabrics always spread — a 512-host cluster on one edge
	// switch is not a topology, it is a bottleneck). The spec's nil
	// link-config hooks default to LinkConfig. With Shards > 1 the
	// switch sequence is cut into contiguous blocks (pods/groups are
	// created contiguously, core tier last, so cuts land between
	// structural units when Shards divides the unit count). A chain of
	// pods — Groups pods of Pods > 1 switches joined by LongHaulConfig
	// links — must have Groups % Shards == 0, so every cut link is a
	// long-haul link and the coordinator's discovered per-pair
	// lookahead is its propagation: orders of magnitude wider than the
	// intra-pod window, which is what makes sharded execution scale
	// (DESIGN.md, "Parallel execution").
	Topology *fabric.TopoSpec
	// Manager attaches the active fabric manager: heartbeat failure
	// detection plus automatic PBR route-around (see fabric.Manager).
	// Its health sweep is perpetual — call Cluster.Manager.Stop() when
	// the workload completes, or use RunFor, since Run() alone would
	// never drain the event queue.
	Manager bool

	// TraceFlits, when positive, attaches a fabric-wide flit tracer
	// retaining the last TraceFlits hop records across every port
	// (endpoint and switch sides). See Cluster.Tracer.
	TraceFlits int

	// Shards partitions the cluster into that many failure domains
	// (contiguous groups of switches plus their attached endpoints),
	// each running on a private engine, synchronized conservatively by a
	// sim.Coordinator with the inter-switch propagation delay as the
	// lookahead window. Values below 1 mean 1: a serial cluster is the
	// one-shard case, whose coordinator runs exactly like a bare engine.
	// Same-seed runs produce byte-identical stats snapshots at every
	// shard count. The centralized services — Manager, Arbiter,
	// Coherent, Agents, TraceFlits — are single-engine designs and need
	// one shard; use SchedulePlan for deterministic fault injection
	// instead of NewInjector.
	Shards int

	// Hooks to override component defaults (nil = defaults).
	HostConfig    func(i int) host.Config
	LinkConfig    func() link.Config
	SwitchConfig  func() fabric.SwitchConfig
	FAMConfig     func(i int, capacity uint64) mem.FAMConfig
	ArbiterConfig func() arbiter.Config
	ManagerConfig func() fabric.ManagerConfig
}

// DefaultConfig is one host, one FAM, calibrated defaults.
func DefaultConfig() Config {
	return Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 30}
}

// Cluster is an assembled composable infrastructure.
type Cluster struct {
	// Eng is domain 0's engine, Coord.Engine(0), where the centralized
	// services live. With more than one shard, workloads must schedule
	// on their host's own engine (see host.Engine).
	Eng *sim.Engine
	// Coord synchronizes the failure-domain engines, one per shard.
	Coord   *sim.Coordinator
	Builder *fabric.Builder
	Hosts   []*host.Host
	FAMs    []*mem.FAM
	FAAs    []*faa.Device
	Agents  []*etrans.Agent
	Arbiter *arbiter.Arbiter
	Dirs    []*coherence.Directory

	// Manager is the active fabric manager (nil unless Config.Manager).
	Manager *fabric.Manager

	// Topo describes the built topology — Config.Topology's, or the
	// chain a Switches/Ring line or ring becomes: tier slices and
	// pod/group structure, e.g. for aiming a fabric.StormPlan at one pod.
	Topo *fabric.Topology

	// Faults is the fault injector (nil until NewInjector is called).
	Faults *fault.Injector

	// Tracer is the fabric-wide flit tracer (nil unless Config.TraceFlits
	// was set). Every port in the cluster records into this one ring, so
	// a packet's whole path is reconstructable from a single buffer.
	Tracer *telemetry.Tracer

	cfg Config
}

// New assembles a cluster per cfg, runs fabric discovery, and maps all
// FAM regions into every host's address space.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts < 1 {
		return nil, fmt.Errorf("fcc: need at least one host")
	}
	if cfg.FAMCapacity == 0 {
		cfg.FAMCapacity = 1 << 30
	}

	lcfg := link.DefaultConfig
	if cfg.LinkConfig != nil {
		lcfg = cfg.LinkConfig
	}
	scfg := fabric.DefaultSwitchConfig
	if cfg.SwitchConfig != nil {
		scfg = cfg.SwitchConfig
	}

	// A line is one group of Switches switches, a ring Switches groups
	// of one switch.
	spec := fabric.TopoSpec{Kind: fabric.TopoChain, Groups: 1, Pods: max(cfg.Switches, 1)}
	if cfg.Ring {
		spec.Groups, spec.Pods = spec.Pods, 1
	}
	if cfg.Topology != nil {
		if cfg.Switches > 1 || cfg.Ring {
			return nil, fmt.Errorf("fcc: Topology is mutually exclusive with Switches/Ring")
		}
		spec = *cfg.Topology
	}
	if spec.ISLConfig == nil {
		spec.ISLConfig = lcfg
	}
	nsw, nisl, err := spec.Counts()
	if err != nil {
		return nil, err
	}
	endpoints := cfg.Hosts + cfg.FAMs + cfg.FAAs
	if cfg.Agents {
		endpoints += cfg.FAMs
	}
	if cfg.Arbiter {
		endpoints++
	}

	shards := max(cfg.Shards, 1)
	switch {
	case shards > 1 && (cfg.Manager || cfg.Arbiter || cfg.Coherent || cfg.Agents || cfg.TraceFlits > 0):
		return nil, fmt.Errorf("fcc: Shards > 1 cannot host the centralized services (Manager/Arbiter/Coherent/Agents/TraceFlits)")
	case shards > nsw:
		return nil, fmt.Errorf("fcc: %d shards need at least that many switches, have %d", shards, nsw)
	case spec.Kind == fabric.TopoChain && spec.Pods > 1 && spec.Groups > 1 && spec.Groups%shards != 0:
		return nil, fmt.Errorf("fcc: %d pods do not divide into %d shards (cuts must land on pod boundaries)", spec.Groups, shards)
	}
	// Default lookahead = the inter-switch propagation delay: every
	// cross-domain interaction crosses a cut ISL, so no shard can affect
	// another sooner than one propagation in the future. This is only
	// the floor — fabric discovery then raises each shard pair to the
	// minimum propagation over its actual cut links (the long-haul pod
	// links, in a chain of pods) and releases pairs with no cut link
	// entirely. The 1 ps floor keeps the window legal for zero-delay
	// wires, which only one shard (no cut link) can take.
	coord := sim.NewCoordinator(shards, max(lcfg().Phys.Propagation, 1))
	b := fabric.NewShardedBuilder(coord, nsw)
	eng := coord.Engine(0)
	b.Reserve(nsw, nisl, endpoints)
	topo, err := fabric.Generate(b, spec, scfg())
	if err != nil {
		return nil, err
	}
	c := &Cluster{Eng: eng, Coord: coord, Builder: b, Topo: topo, cfg: cfg}

	// Endpoints attach round-robin over the edge tier; a Switches/Ring
	// cluster keeps its hosts on the first switch unless SpreadHosts.
	hostSw, devSw := topo.Edge, topo.Edge
	if cfg.Topology == nil && !cfg.SpreadHosts {
		hostSw = hostSw[:1]
	}

	for i := 0; i < cfg.Hosts; i++ {
		att, err := b.AttachEndpoint(hostSw[i%len(hostSw)], fmt.Sprintf("host%d", i), fabric.RoleHost, lcfg())
		if err != nil {
			return nil, err
		}
		hc := host.DefaultConfig()
		if cfg.HostConfig != nil {
			hc = cfg.HostConfig(i)
		}
		c.Hosts = append(c.Hosts, host.New(att.Eng, att.Name, hc, att))
	}
	for i := 0; i < cfg.FAMs; i++ {
		att, err := b.AttachEndpoint(devSw[i%len(devSw)], fmt.Sprintf("fam%d", i), fabric.RoleFAM, lcfg())
		if err != nil {
			return nil, err
		}
		fc := mem.DefaultFAMConfig(cfg.FAMCapacity)
		if cfg.FAMConfig != nil {
			fc = cfg.FAMConfig(i, cfg.FAMCapacity)
		}
		fam := mem.NewFAM(att.Eng, att, fc)
		c.FAMs = append(c.FAMs, fam)
		if cfg.Coherent {
			c.Dirs = append(c.Dirs, coherence.NewDirectory(att.Eng, fam))
		}
	}
	for i := 0; i < cfg.FAAs; i++ {
		att, err := b.AttachEndpoint(devSw[i%len(devSw)], fmt.Sprintf("faa%d", i), fabric.RoleFAA, lcfg())
		if err != nil {
			return nil, err
		}
		c.FAAs = append(c.FAAs, faa.New(att.Eng, att, faa.DefaultConfig()))
	}
	if cfg.Agents {
		for i := range c.FAMs {
			att, err := b.AttachEndpoint(devSw[i%len(devSw)], fmt.Sprintf("agent%d", i), fabric.RoleFAA, lcfg())
			if err != nil {
				return nil, err
			}
			c.Agents = append(c.Agents, etrans.NewAgent(att.Eng, att))
		}
	}
	if cfg.Arbiter {
		att, err := b.AttachEndpoint(devSw[0], "arbiter", fabric.RoleManager, lcfg())
		if err != nil {
			return nil, err
		}
		ac := arbiter.DefaultConfig()
		if cfg.ArbiterConfig != nil {
			ac = cfg.ArbiterConfig()
		}
		c.Arbiter = arbiter.New(att.Eng, att, ac)
	}
	if err := b.Discover(); err != nil {
		return nil, err
	}
	if cfg.Manager {
		mc := fabric.DefaultManagerConfig()
		if cfg.ManagerConfig != nil {
			mc = cfg.ManagerConfig()
		}
		c.Manager = fabric.NewManager(eng, b, mc)
	}
	if cfg.TraceFlits > 0 {
		c.Tracer = telemetry.NewTracer(cfg.TraceFlits)
		for _, att := range b.Attachments() {
			att.Port.SetTracer(c.Tracer)
		}
		for _, sw := range b.Switches() {
			for i := 0; i < sw.Ports(); i++ {
				sw.Port(i).SetTracer(c.Tracer)
			}
		}
	}
	// Map every FAM into every host's physical address space.
	for _, h := range c.Hosts {
		for i, f := range c.FAMs {
			base := RemoteBase + uint64(i)*cfg.FAMCapacity
			if err := h.MapRemote(f.Name(), base, cfg.FAMCapacity, f.ID(), 0); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// FAMBase reports where FAM i is mapped in host address space.
func (c *Cluster) FAMBase(i int) uint64 {
	return RemoteBase + uint64(i)*c.cfg.FAMCapacity
}

// NewHeap builds a unified heap on host h with a local pool of
// localBytes and one far pool per FAM.
func (c *Cluster) NewHeap(h *host.Host, hcfg uheap.Config, localBytes uint64) (*uheap.Heap, error) {
	specs := []uheap.PoolSpec{{
		Name: "dimm", Base: 1 << 20, Size: localBytes, Class: uheap.ClassLocal,
	}}
	for i, f := range c.FAMs {
		specs = append(specs, uheap.PoolSpec{
			Name: f.Name(), Base: c.FAMBase(i), Size: c.cfg.FAMCapacity,
			Class: uheap.ClassFar,
		})
	}
	return uheap.New(h, hcfg, specs...)
}

// requireUnsharded guards the runtime-layer helpers that assume one
// shared engine; calling them on a sharded cluster would silently mix
// engines across shard goroutines.
func (c *Cluster) requireUnsharded(what string) {
	if c.Coord.Shards() > 1 {
		panic(fmt.Sprintf("fcc: %s requires an unsharded cluster (Shards <= 1)", what))
	}
}

// NewETrans builds an elastic transaction engine for host h, registered
// with every migration agent (and the arbiter when present).
func (c *Cluster) NewETrans(h *host.Host) *etrans.Engine {
	c.requireUnsharded("NewETrans")
	e := etrans.NewEngine(h.Engine(), h.Endpoint())
	for i, a := range c.Agents {
		e.AddAgent(a.ID(), c.FAMs[i].ID())
		if c.Arbiter != nil {
			a.SetArbiter(arbiter.NewClient(a.Endpoint(), c.Arbiter.ID()))
		}
	}
	if c.Arbiter != nil {
		e.SetArbiter(arbiter.NewClient(h.Endpoint(), c.Arbiter.ID()))
	}
	return e
}

// NewCoherenceClient registers host h as a CC-NUMA participant of the
// directory fronting FAM i (the cluster must be built Coherent).
func (c *Cluster) NewCoherenceClient(h *host.Host, fam int, ccfg coherence.ClientConfig) *coherence.Client {
	return coherence.NewClient(h.Engine(), h, c.Dirs[fam].ID(), ccfg)
}

// ArbiterClient returns an arbiter client for host h.
func (c *Cluster) ArbiterClient(h *host.Host) *arbiter.Client {
	return arbiter.NewClient(h.Endpoint(), c.Arbiter.ID())
}

// NewFabStore lays a FabStore (multi-tenant transactional KV, see
// internal/fabstore) across every FAM in the cluster with one client
// per host. When the cluster is Coherent and the store declares hot
// keys, each client's hot-row path goes through the directories; with
// the Arbiter attached, clients reserve bandwidth credit toward the
// destination expander around writes and scan chunks. Both services are
// optional — on sharded clusters (where they are refused) clients use
// the raw retried-transaction path, which is exactly what the
// serial-vs-sharded equivalence experiment runs.
func (c *Cluster) NewFabStore(fcfg fabstore.Config) (*fabstore.Store, error) {
	devs := make([]fabstore.Device, len(c.FAMs))
	for i, f := range c.FAMs {
		devs[i] = fabstore.Device{Port: f.ID(), Capacity: c.cfg.FAMCapacity}
	}
	st, err := fabstore.New(fcfg, devs, c.Hosts)
	if err != nil {
		return nil, err
	}
	for hi, h := range c.Hosts {
		cl := st.Client(hi)
		if len(c.Dirs) > 0 && fcfg.HotKeys > 0 {
			for fi := range c.FAMs {
				cl.UseCoherence(fi, c.NewCoherenceClient(h, fi, coherence.DefaultClientConfig()))
			}
		}
		if c.Arbiter != nil {
			cl.UseArbiter(c.ArbiterClient(h))
		}
	}
	return st, nil
}

// Stats assembles the fabric-wide metrics tree: every switch (with all
// its link ports), host, FAM, FAA, migration agent, coherence directory,
// and the arbiter, each under its stable component name. The tree reads
// live metrics — call Snapshot() on the result after (or during) a run.
func (c *Cluster) Stats() *sim.Stats {
	root := sim.NewStats("cluster")
	for _, sw := range c.Builder.Switches() {
		sw.RegisterStats(root.Child(sw.Name()))
	}
	for _, h := range c.Hosts {
		h.RegisterStats(root.Child(h.Name()))
	}
	for _, f := range c.FAMs {
		f.RegisterStats(root.Child(f.Name()))
	}
	for i, d := range c.FAAs {
		d.RegisterStats(root.Child(fmt.Sprintf("faa%d", i)))
	}
	for i, a := range c.Agents {
		a.RegisterStats(root.Child(fmt.Sprintf("agent%d", i)))
	}
	for i, d := range c.Dirs {
		d.RegisterStats(root.Child(fmt.Sprintf("dir%d", i)))
	}
	if c.Arbiter != nil {
		c.Arbiter.RegisterStats(root.Child("arbiter"))
	}
	if c.Manager != nil {
		c.Manager.RegisterStats(root.Child("manager"))
	}
	if c.Faults != nil {
		c.Faults.RegisterStats(root.Child("fault"))
	}
	return root
}

// NewInjector builds a seeded fault injector with every failable
// component of the cluster registered: all switches, all links
// (inter-switch and endpoint), all FAMs, and all FAAs. The returned
// injector is also stored as c.Faults so Stats() exports its
// blast-radius metrics under the "fault" subtree.
func (c *Cluster) NewInjector(seed uint64) *fault.Injector {
	c.requireUnsharded("NewInjector (use SchedulePlan for sharded runs)")
	in := fault.NewInjector(c.Eng, seed)
	for _, sw := range c.Builder.Switches() {
		in.Register(sw)
	}
	for _, l := range c.Builder.ISLLinks() {
		in.Register(l)
	}
	for _, att := range c.Builder.Attachments() {
		in.Register(att.Link)
	}
	for _, f := range c.FAMs {
		in.Register(f)
	}
	for _, d := range c.FAAs {
		in.Register(d)
	}
	c.Faults = in
	return in
}

// FaultEvent is one entry in a deterministic fault plan: at virtual
// time At, inject Fault into (or, with Heal set, heal Fault.Kind on)
// the named link. Plans are link-scoped because links are the only
// components that can straddle a shard cut; the plan applies each
// side's share on that side's own engine at the same virtual instant,
// which keeps serial and sharded runs byte-identical.
type FaultEvent struct {
	At    sim.Time
	Link  string
	Fault fault.Fault
	Heal  bool
}

// SchedulePlan pre-schedules a fault plan against the cluster's links.
// Unlike NewInjector it works on sharded clusters, adds no stats
// subtree (snapshots stay comparable across serial and sharded runs),
// and is fully deterministic: every event is pinned to a virtual
// timestamp at build time.
func (c *Cluster) SchedulePlan(plan []FaultEvent) error {
	for _, ev := range plan {
		l := c.findLink(ev.Link)
		if l == nil {
			return fmt.Errorf("fcc: fault plan names unknown link %q", ev.Link)
		}
		da, db, _ := c.Builder.LinkSideDomains(l)
		c.scheduleSide(ev, l, da, 0)
		c.scheduleSide(ev, l, db, 1)
	}
	return nil
}

func (c *Cluster) scheduleSide(ev FaultEvent, l *link.Link, domain, side int) {
	c.Coord.Engine(domain).At(ev.At, func() {
		var err error
		if ev.Heal {
			err = l.HealFaultSide(side, ev.Fault.Kind)
		} else {
			err = l.InjectFaultSide(side, ev.Fault)
		}
		if err != nil {
			panic(fmt.Sprintf("fcc: fault plan on link %s: %v", ev.Link, err))
		}
	})
}

func (c *Cluster) findLink(name string) *link.Link {
	for _, l := range c.Builder.ISLLinks() {
		if l.FaultID() == name {
			return l
		}
	}
	for _, att := range c.Builder.Attachments() {
		if att.Link.FaultID() == name {
			return att.Link
		}
	}
	return nil
}

// Render draws the topology (the Figure 1b regeneration).
func (c *Cluster) Render() string { return c.Builder.Render() }

// Run drains the simulation on every shard, or stops at the barrier
// after a Stop on any shard's engine (see sim.Coordinator.Run). At one
// shard it fires the same events and leaves the same clock as Eng.Run.
func (c *Cluster) Run() { c.Coord.Run() }

// RunFor advances every shard by d (see sim.Coordinator.RunFor). At one
// shard it fires the same events and leaves the same clock as
// Eng.RunFor.
func (c *Cluster) RunFor(d sim.Time) { c.Coord.RunFor(d) }

// Go starts a workload process on Eng, the one engine of an unsharded
// cluster. With more than one shard it panics: spawn processes on the
// owning host's engine instead, c.Hosts[i].Engine().Go(...) — a
// workload touching a host from another shard's engine is a race.
func (c *Cluster) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	c.requireUnsharded("Go (use Hosts[i].Engine().Go)")
	return c.Eng.Go(name, fn)
}
