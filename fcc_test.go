package fcc

import (
	"strings"
	"testing"

	"fcc/internal/coherence"
	"fcc/internal/etrans"
	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/task"
	"fcc/internal/uheap"
)

func TestClusterDefaults(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts) != 1 || len(c.FAMs) != 1 {
		t.Fatalf("hosts=%d fams=%d", len(c.Hosts), len(c.FAMs))
	}
	// Host can load/store FAM memory through the map.
	var got uint64
	c.Go("driver", func(p *sim.Proc) {
		c.Hosts[0].Store64P(p, c.FAMBase(0)+64, 42)
		got = c.Hosts[0].Load64P(p, c.FAMBase(0)+64)
	})
	c.Run()
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestClusterFullStack(t *testing.T) {
	cfg := Config{
		Hosts: 2, FAMs: 2, FAMCapacity: 1 << 26, FAAs: 1,
		Agents: true, Arbiter: true, Switches: 2,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Arbiter == nil || len(c.Agents) != 2 || len(c.FAAs) != 1 {
		t.Fatal("components missing")
	}
	r := c.Render()
	for _, want := range []string{"host0", "host1", "fam0", "fam1", "faa0", "agent0", "arbiter", "fs1"} {
		if !strings.Contains(r, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestClusterETransAcrossFAMs(t *testing.T) {
	c, err := New(Config{Hosts: 1, FAMs: 2, FAMCapacity: 1 << 24, Agents: true})
	if err != nil {
		t.Fatal(err)
	}
	c.FAMs[0].DRAM().Store().Write64(0x100, 77)
	e := c.NewETrans(c.Hosts[0])
	c.Go("driver", func(p *sim.Proc) {
		e.SubmitP(p, &etrans.Request{
			Src: []etrans.Segment{{Port: c.FAMs[0].ID(), Addr: 0x100, Size: 64}},
			Dst: []etrans.Segment{{Port: c.FAMs[1].ID(), Addr: 0x200, Size: 64}},
		})
	})
	c.Run()
	if got := c.FAMs[1].DRAM().Store().Read64(0x200); got != 77 {
		t.Fatalf("transfer result = %d", got)
	}
}

func TestClusterHeap(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hp, err := c.NewHeap(c.Hosts[0], uheap.Config{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	o, err := hp.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	c.Go("driver", func(p *sim.Proc) {
		o.Write64P(p, 0, 5)
		if v := o.Read64P(p, 0); v != 5 {
			t.Errorf("heap read %d", v)
		}
	})
	c.Run()
}

func TestClusterTasksOnFAA(t *testing.T) {
	c, err := New(Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 24, FAAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := c.NewTaskRunner(c.Hosts[0], 1)
	c.FAMs[0].DRAM().Store().Write64(0, 10)
	tk := &task.Task{
		Name:    "triple",
		Inputs:  []task.Region{{Port: c.FAMs[0].ID(), Addr: 0, Size: 8}},
		Outputs: []task.Region{{Port: c.FAMs[0].ID(), Addr: 64, Size: 8}},
		Body: func(ctx *task.Ctx) error {
			task.PutU64(ctx.Output(0), 0, task.GetU64(ctx.Input(0), 0)*3)
			return nil
		},
	}
	c.Go("driver", func(p *sim.Proc) { r.SubmitP(p, tk) })
	c.Run()
	if got := c.FAMs[0].DRAM().Store().Read64(64); got != 30 {
		t.Fatalf("task output = %d", got)
	}
}

func TestClusterCoherent(t *testing.T) {
	c, err := New(Config{Hosts: 2, FAMs: 1, FAMCapacity: 1 << 24, Coherent: true})
	if err != nil {
		t.Fatal(err)
	}
	a := c.NewCoherenceClient(c.Hosts[0], 0, coherence.DefaultClientConfig())
	b := c.NewCoherenceClient(c.Hosts[1], 0, coherence.DefaultClientConfig())
	c.Go("driver", func(p *sim.Proc) {
		a.Write64P(p, 0x500, 9)
		if got := b.Read64P(p, 0x500); got != 9 {
			t.Errorf("coherent read %d", got)
		}
	})
	c.Run()
}

func TestClusterRejectsZeroHosts(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero hosts accepted")
	}
}

// TestNewRejects covers every configuration New refuses, each by the
// error it must report, and the shard cuts it must still accept.
func TestNewRejects(t *testing.T) {
	chain := func(groups, pods int) *fabric.TopoSpec {
		return &fabric.TopoSpec{Kind: fabric.TopoChain, Groups: groups, Pods: pods}
	}
	leafSpine := &fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 2, Radix: 4}
	sharded := func(set func(*Config)) Config {
		cfg := Config{Hosts: 4, FAMs: 2, Switches: 4, Ring: true, SpreadHosts: true, Shards: 2}
		set(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero hosts", Config{FAMs: 1}, "at least one host"},
		{"topology and switches", Config{Hosts: 1, Topology: leafSpine, Switches: 2}, "mutually exclusive"},
		{"topology and ring", Config{Hosts: 1, Topology: leafSpine, Ring: true}, "mutually exclusive"},
		{"sharded manager", sharded(func(c *Config) { c.Manager = true }), "centralized services"},
		{"sharded arbiter", sharded(func(c *Config) { c.Arbiter = true }), "centralized services"},
		{"sharded coherence", sharded(func(c *Config) { c.Coherent = true }), "centralized services"},
		{"sharded agents", sharded(func(c *Config) { c.Agents = true }), "centralized services"},
		{"sharded tracer", sharded(func(c *Config) { c.TraceFlits = 64 }), "centralized services"},
		{"more shards than switches", Config{Hosts: 2, Switches: 2, Shards: 3}, "3 shards need at least that many switches, have 2"},
		{"more shards than chain switches", Config{Hosts: 2, Topology: chain(1, 2), Shards: 3}, "have 2"},
		{"negative pods", Config{Hosts: 1, Topology: chain(2, -1)}, "non-negative"},
		{"negative groups", Config{Hosts: 1, Topology: chain(-2, 1)}, "non-negative"},
		{"pods across shards", Config{Hosts: 6, Topology: chain(3, 2), Shards: 2}, "3 pods do not divide into 2 shards"},
		{"pods across more shards", Config{Hosts: 8, Topology: chain(4, 2), Shards: 8}, "4 pods do not divide into 8 shards"},
	} {
		_, err := New(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// The pod check holds only for chains of multi-switch pods: a line,
	// or a chain of one-switch groups (a ring), may be cut anywhere.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"line at 3 shards", Config{Hosts: 4, Switches: 4, Shards: 3}},
		{"ring at 3 shards", Config{Hosts: 4, Switches: 4, Ring: true, Shards: 3}},
		{"one pod at 2 shards", Config{Hosts: 4, Topology: chain(1, 4), Shards: 2}},
		{"one-switch groups at 3 shards", Config{Hosts: 4, Topology: chain(4, 1), Shards: 3}},
		{"pods at a dividing shard count", Config{Hosts: 8, Topology: chain(4, 2), Shards: 2}},
	} {
		if _, err := New(tc.cfg); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestClusterArbiterClient(t *testing.T) {
	c, err := New(Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 24, Arbiter: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.ArbiterClient(c.Hosts[0])
	c.Go("driver", func(p *sim.Proc) {
		cl.ReserveP(p, c.FAMs[0].ID(), 1024)
		if avail := cl.QueryP(p, c.FAMs[0].ID()); avail != 4096-1024 {
			t.Errorf("avail = %d", avail)
		}
		cl.ReclaimP(p, c.FAMs[0].ID(), 1024)
	})
	c.Run()
}

func TestClusterProbeDevices(t *testing.T) {
	c, err := New(Config{Hosts: 1, FAMs: 3, FAMCapacity: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	var inv map[string]uint64
	c.Go("fm", func(p *sim.Proc) { inv = c.ProbeDevicesP(p, c.Hosts[0]) })
	c.Run()
	if len(inv) != 3 {
		t.Fatalf("probed %d devices", len(inv))
	}
	for name, capacity := range inv {
		if capacity != 1<<24 {
			t.Fatalf("%s reported %d", name, capacity)
		}
	}
}

func TestCluster256BFlitMode(t *testing.T) {
	// CXL 3.0 class: 256B flits end to end. A 64B access fits one flit
	// instead of two, and the whole stack still round-trips data.
	c, err := New(Config{
		Hosts: 1, FAMs: 1, FAMCapacity: 1 << 24,
		LinkConfig: func() link.Config {
			lc := link.DefaultConfig()
			lc.Mode = flit.Mode256
			return lc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	c.Go("driver", func(p *sim.Proc) {
		c.Hosts[0].Store64P(p, c.FAMBase(0)+0x40, 777)
		c.Hosts[0].FlushRangeP(p, c.FAMBase(0)+0x40, 8)
		c.Hosts[0].InvalidateLine(c.FAMBase(0) + 0x40)
		v = c.Hosts[0].Load64P(p, c.FAMBase(0)+0x40)
	})
	c.Run()
	if v != 777 {
		t.Fatalf("256B-flit round trip read %d", v)
	}
	if got := c.FAMs[0].DRAM().Store().Read64(0x40); got != 777 {
		t.Fatalf("device store has %d", got)
	}
}

func TestClusterSurvivesLinkBitErrors(t *testing.T) {
	// End-to-end failure injection at the physical layer: every link
	// corrupts ~2% of flits; link-level replay must make the whole
	// stack (caches, fabric, device) still deliver correct data.
	c, err := New(Config{
		Hosts: 1, FAMs: 1, FAMCapacity: 1 << 24,
		LinkConfig: func() link.Config {
			lc := link.DefaultConfig()
			lc.RetryEnabled = true
			lc.Phys.BER = 0.02
			lc.Seed = 99
			return lc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := c.Hosts[0]
	base := c.FAMBase(0)
	c.Go("driver", func(p *sim.Proc) {
		for i := uint64(0); i < 200; i++ {
			h.Store64P(p, base+i*64, i*7+1)
		}
		h.FlushRangeP(p, base, 200*64)
		h.InvalidateRange(base, 200*64)
		for i := uint64(0); i < 200; i++ {
			if got := h.Load64P(p, base+i*64); got != i*7+1 {
				t.Errorf("line %d corrupted: %d", i, got)
				return
			}
		}
	})
	c.Run()
	// The test is vacuous if no corruption was actually injected.
	var crcErrs int64
	for _, sw := range c.Builder.Switches() {
		for i := 0; i < sw.Ports(); i++ {
			crcErrs += sw.Port(i).CRCErrors.Value()
		}
	}
	if crcErrs == 0 {
		t.Fatal("BER 0.02 injected no CRC errors at the switch ports")
	}
}

func TestTrafficMatrix(t *testing.T) {
	c, err := New(Config{Hosts: 2, FAMs: 2, FAMCapacity: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	tm := c.CollectTraffic()
	c.Go("driver", func(p *sim.Proc) {
		// host0 writes 4 lines to fam0; host1 reads 2 lines from fam1.
		for i := uint64(0); i < 4; i++ {
			c.Hosts[0].Store64P(p, c.FAMBase(0)+i*64, i)
		}
		c.Hosts[0].FlushRangeP(p, c.FAMBase(0), 4*64)
		for i := uint64(0); i < 2; i++ {
			c.Hosts[1].Load64P(p, c.FAMBase(1)+i*64)
		}
	})
	c.Run()
	h0, h1 := c.Hosts[0].ID(), c.Hosts[1].ID()
	f0, f1 := c.FAMs[0].ID(), c.FAMs[1].ID()
	// host0's stores: 4 RFO reads (4x64) + 4 writebacks (4x64) = 512B.
	if got := tm.Bytes(h0, f0); got != 512 {
		t.Fatalf("host0->fam0 bytes = %d, want 512", got)
	}
	if got := tm.Bytes(h1, f1); got != 128 {
		t.Fatalf("host1->fam1 bytes = %d, want 128", got)
	}
	if got := tm.Bytes(h0, f1); got != 0 {
		t.Fatalf("host0->fam1 bytes = %d, want 0", got)
	}
	out := tm.Render()
	if !strings.Contains(out, "host0") || !strings.Contains(out, "fam1") {
		t.Fatalf("render missing labels:\n%s", out)
	}
}

func TestTrafficMatrixRendersZeroByteDevice(t *testing.T) {
	// A device that served nothing must still appear as an all-zero
	// column: an idle expander is part of the traffic picture.
	c, err := New(Config{Hosts: 1, FAMs: 2, FAMCapacity: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	tm := c.CollectTraffic()
	c.Go("driver", func(p *sim.Proc) {
		c.Hosts[0].Store64P(p, c.FAMBase(0), 7)
		c.Hosts[0].FlushRangeP(p, c.FAMBase(0), 64)
	})
	c.Run()
	if got := tm.Bytes(c.Hosts[0].ID(), c.FAMs[1].ID()); got != 0 {
		t.Fatalf("fam1 served %d bytes, want 0", got)
	}
	out := tm.Render()
	if !strings.Contains(out, "fam1") {
		t.Fatalf("idle device missing from render:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "host0") {
			continue
		}
		cols := strings.Fields(line)
		if len(cols) != 3 || cols[2] != "0" {
			t.Fatalf("host0 row = %q, want a trailing zero column for fam1", line)
		}
	}
}

func TestClusterStatsTree(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, FAMs: 1, FAAs: 1, FAMCapacity: 1 << 26,
		Agents: true, Arbiter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Go("driver", func(p *sim.Proc) {
		c.Hosts[0].Store64P(p, c.FAMBase(0), 1)
		c.Hosts[0].Load64P(p, c.FAMBase(0)+4096)
	})
	c.Run()
	snap := c.Stats().Snapshot()
	if snap.Schema != sim.SnapshotSchemaVersion {
		t.Fatalf("schema = %d", snap.Schema)
	}
	byName := map[string]*sim.StatsSnapshot{}
	for _, ch := range snap.Children {
		byName[ch.Name] = ch
	}
	for _, want := range []string{"fs0", "host0", "host1", "fam0", "faa0", "agent0", "arbiter"} {
		if byName[want] == nil {
			t.Fatalf("stats tree missing component %q (have %v)", want, snap.Children)
		}
	}
	if byName["host0"].Counters["remote_reads"] == 0 {
		t.Fatal("host0 remote_reads = 0; component counters not wired")
	}
	// Switch-side link ports are addressable by their link names.
	var portTraffic int64
	for _, p := range byName["fs0"].Children {
		if strings.Contains(p.Name, "<->") {
			portTraffic += p.Counters["flits_rx"]
		}
	}
	if portTraffic == 0 {
		t.Fatal("no flits recorded on any switch port")
	}
}

func TestClusterFlitTracer(t *testing.T) {
	c, err := New(Config{
		Hosts: 1, FAMs: 1, FAMCapacity: 1 << 26, TraceFlits: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Go("driver", func(p *sim.Proc) { c.Hosts[0].Load64P(p, c.FAMBase(0)) })
	c.Run()
	if c.Tracer == nil || c.Tracer.Total() == 0 {
		t.Fatal("tracer attached but recorded nothing")
	}
	src, tag, ok := c.Tracer.FirstPacket()
	if !ok {
		t.Fatal("no packet identity in trace")
	}
	path := c.Tracer.PacketPath(src, tag)
	// A remote read request crosses host->switch and switch->FAM: at
	// minimum a send and a deliver on each of the two links.
	if len(path) < 4 {
		t.Fatalf("path has %d records, want >= 4:\n%v", len(path), path)
	}
	seenPorts := map[string]bool{}
	for _, r := range path {
		seenPorts[r.Port] = true
	}
	if len(seenPorts) < 3 {
		t.Fatalf("path crossed only ports %v; expected multiple hops", seenPorts)
	}
}
