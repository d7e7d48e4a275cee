package coherence

import (
	"bytes"
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
)

// ccRig builds n hosts sharing one directory-fronted FAM.
func ccRig(t *testing.T, n int, ccfg ClientConfig) (*sim.Engine, []*Client, *Directory) {
	t.Helper()
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	var hosts []*host.Host
	for i := 0; i < n; i++ {
		att, err := b.AttachEndpoint(sw, "host"+string(rune('0'+i)), fabric.RoleHost, link.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, host.New(eng, att.Name, host.DefaultConfig(), att))
	}
	fa, err := b.AttachEndpoint(sw, "fam0", fabric.RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<28))
	dir := NewDirectory(eng, fam)
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for _, h := range hosts {
		clients = append(clients, NewClient(eng, h, dir.ID(), ccfg))
	}
	return eng, clients, dir
}

// TestDirectoryOverlappingReadsKeepTheirLines reads distinct lines back
// to back, so the directory's home reads overlap inside the FEA's
// 310 ns return delay: first node 0 takes each line exclusive from
// home, then node 1's reads downgrade node 0, whose clean copies send
// the directory back to home once more. Each protocol action reads
// into its own buffer and keeps it until its grant is sent, so every
// read returns its own line.
func TestDirectoryOverlappingReadsKeepTheirLines(t *testing.T) {
	eng, cs, dir := ccRig(t, 2, DefaultClientConfig())
	const lines = 8
	home := dir.fam.DRAM().Store()
	want := make([][]byte, lines)
	for i := range want {
		want[i] = make([]byte, 64)
		for j := range want[i] {
			want[i][j] = byte(i*64 + j + 1)
		}
		home.Write(uint64(i)*64, want[i])
	}
	for _, c := range cs {
		got := make([][]byte, lines)
		eng.After(0, func() {
			for i := range got {
				c.Read(uint64(i) * 64).OnComplete(func(b []byte, err error) {
					if err != nil {
						t.Errorf("read %d: %v", i, err)
					}
					got[i] = b
				})
			}
		})
		eng.Run()
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("node %d read line %d as % x, want % x", c.Host().ID(), i, got[i], want[i])
			}
		}
	}
	if s := dir.StateOf(0); s != "shared(2)" {
		t.Fatalf("line 0 is %s after both nodes read it, want shared(2)", s)
	}
}

func TestCCReadWriteSingleNode(t *testing.T) {
	eng, cs, _ := ccRig(t, 1, DefaultClientConfig())
	eng.Go("driver", func(p *sim.Proc) {
		cs[0].Write64P(p, 0x100, 42)
		if got := cs[0].Read64P(p, 0x100); got != 42 {
			t.Errorf("read back %d", got)
		}
	})
	eng.Run()
}

func TestCCWritePropagatesAcrossNodes(t *testing.T) {
	eng, cs, _ := ccRig(t, 2, DefaultClientConfig())
	eng.Go("driver", func(p *sim.Proc) {
		cs[0].Write64P(p, 0x200, 7)
		// Node 1 reads: the directory must fetch the dirty line from
		// node 0 (a forward), not stale home memory.
		if got := cs[1].Read64P(p, 0x200); got != 7 {
			t.Errorf("node1 read %d, want 7", got)
		}
		// And node 0's subsequent write must invalidate node 1's copy.
		cs[0].Write64P(p, 0x200, 8)
		if got := cs[1].Read64P(p, 0x200); got != 8 {
			t.Errorf("node1 read %d after second write, want 8", got)
		}
	})
	eng.Run()
}

func TestCCDirtyForwardCounted(t *testing.T) {
	eng, cs, dir := ccRig(t, 2, DefaultClientConfig())
	eng.Go("driver", func(p *sim.Proc) {
		cs[0].Write64P(p, 0x300, 1)
		cs[1].Read64P(p, 0x300)
	})
	eng.Run()
	if dir.Forwards.Value() == 0 {
		t.Fatal("dirty forward not counted")
	}
	if dir.Snoops.Value() == 0 {
		t.Fatal("no snoops issued")
	}
}

func TestCCReadSharingNoSnoops(t *testing.T) {
	// Read-only sharing: after the first read, other readers get shared
	// grants; no invalidations should occur.
	eng, cs, dir := ccRig(t, 3, DefaultClientConfig())
	eng.Go("driver", func(p *sim.Proc) {
		for _, c := range cs {
			c.Read64P(p, 0x400)
		}
		// Second round: all hits, purely local.
		for _, c := range cs {
			if got := c.Read64P(p, 0x400); got != 0 {
				t.Errorf("got %d", got)
			}
		}
	})
	eng.Run()
	// One downgrade snoop when reader 2 hits reader 1's exclusive line;
	// after that the line is Shared and reader 3 needs no snoop.
	if dir.Snoops.Value() > 1 {
		t.Fatalf("snoops = %d, want ≤1 for read sharing", dir.Snoops.Value())
	}
	total := int64(0)
	for _, c := range cs {
		total += c.Hits.Value()
	}
	if total != 3 {
		t.Fatalf("second-round hits = %d, want 3", total)
	}
}

func TestCCExclusiveGrantSilentUpgrade(t *testing.T) {
	// A sole reader gets E and can upgrade to M without a directory
	// round trip.
	eng, cs, dir := ccRig(t, 1, DefaultClientConfig())
	eng.Go("driver", func(p *sim.Proc) {
		cs[0].Read64P(p, 0x500)
		before := dir.WriteMisses.Value()
		cs[0].Write64P(p, 0x500, 9)
		if dir.WriteMisses.Value() != before {
			t.Error("E->M upgrade went to the directory")
		}
	})
	eng.Run()
}

func TestCCPingPongWriteSharing(t *testing.T) {
	// Migratory/write-shared data ping-pongs: every write by the other
	// node must invalidate, so hits stay near zero.
	eng, cs, dir := ccRig(t, 2, DefaultClientConfig())
	eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			cs[i%2].Write64P(p, 0x600, uint64(i))
		}
		if got := cs[0].Read64P(p, 0x600); got != 19 {
			t.Errorf("final value %d, want 19", got)
		}
	})
	eng.Run()
	if dir.Snoops.Value() < 18 {
		t.Fatalf("snoops = %d, want ≈19 for ping-pong", dir.Snoops.Value())
	}
}

func TestCCEvictionWritesBackDirtyData(t *testing.T) {
	cfg := DefaultClientConfig()
	cfg.CapacityLines = 4
	eng, cs, _ := ccRig(t, 1, cfg)
	eng.Go("driver", func(p *sim.Proc) {
		cs[0].Write64P(p, 0, 111)
		// Evict line 0 by filling the 4-line cache.
		for i := uint64(1); i <= 4; i++ {
			cs[0].Write64P(p, i*64, i)
		}
		// Re-read: must come back from home with the written value.
		if got := cs[0].Read64P(p, 0); got != 111 {
			t.Errorf("after eviction, read %d, want 111", got)
		}
	})
	eng.Run()
	if cs[0].Evictions.Value() == 0 {
		t.Fatal("no evictions with a 4-line cache")
	}
}

func TestCCHitLatencyVsMissLatency(t *testing.T) {
	eng, cs, _ := ccRig(t, 1, DefaultClientConfig())
	var miss, hit sim.Time
	eng.Go("driver", func(p *sim.Proc) {
		t0 := p.Now()
		cs[0].Read64P(p, 0x700)
		miss = p.Now() - t0
		t0 = p.Now()
		cs[0].Read64P(p, 0x700)
		hit = p.Now() - t0
	})
	eng.Run()
	if hit != 25*sim.Nanosecond {
		t.Fatalf("hit latency %v, want 25ns", hit)
	}
	if miss < 400*sim.Nanosecond {
		t.Fatalf("miss latency %v, implausibly fast for a fabric round trip", miss)
	}
}

func TestCCConcurrentWritersSerialize(t *testing.T) {
	// Two processes increment a shared counter via read+write under
	// ownership. Directory serialization must make increments atomic at
	// line granularity (each RdOwn sees the latest value).
	eng, cs, _ := ccRig(t, 2, DefaultClientConfig())
	done := 0
	for i := 0; i < 2; i++ {
		c := cs[i]
		eng.Go("writer", func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
				v := c.Read64P(p, 0x800)
				c.Write64P(p, 0x800, v+1)
			}
			done++
		})
	}
	eng.Run()
	if done != 2 {
		t.Fatal("writers did not finish")
	}
	// Read-modify-write without a lock can lose updates (that is
	// expected of plain coherence); but the final value must be between
	// 10 and 20 and the protocol must not have wedged or corrupted.
	var final uint64
	eng.Go("reader", func(p *sim.Proc) { final = cs[0].Read64P(p, 0x800) })
	eng.Run()
	if final < 10 || final > 20 {
		t.Fatalf("final counter %d out of [10,20]", final)
	}
}

func TestCOMAAttractionMemoryHitsLocally(t *testing.T) {
	// After first touch, a COMA node's working set lives in its
	// attraction memory: second pass is all local hits even for a
	// working set far beyond a CXL.cache-style coherent cache.
	eng, cs, _ := ccRig(t, 1, COMAClientConfig())
	const lines = 4096 // 256KB, 8x the 512-line coherent cache
	var pass1, pass2 sim.Time
	eng.Go("driver", func(p *sim.Proc) {
		t0 := p.Now()
		for i := uint64(0); i < lines; i++ {
			cs[0].Read64P(p, i*64)
		}
		pass1 = p.Now() - t0
		t0 = p.Now()
		for i := uint64(0); i < lines; i++ {
			cs[0].Read64P(p, i*64)
		}
		pass2 = p.Now() - t0
	})
	eng.Run()
	if cs[0].Kind() != "COMA" {
		t.Fatalf("kind = %s", cs[0].Kind())
	}
	if float64(pass1)/float64(pass2) < 5 {
		t.Fatalf("COMA second pass only %.1fx faster (pass1=%v pass2=%v)",
			float64(pass1)/float64(pass2), pass1, pass2)
	}
}

func TestCCSmallCacheThrashesWhereCOMADoesNot(t *testing.T) {
	run := func(cfg ClientConfig) int64 {
		eng, cs, _ := ccRig(t, 1, cfg)
		eng.Go("driver", func(p *sim.Proc) {
			for pass := 0; pass < 2; pass++ {
				for i := uint64(0); i < 2048; i++ {
					cs[0].Read64P(p, i*64)
				}
			}
		})
		eng.Run()
		return cs[0].Misses.Value()
	}
	ccMisses := run(DefaultClientConfig()) // 512-line cache, 2048-line set
	comaMisses := run(COMAClientConfig())  // everything fits
	if comaMisses != 2048 {
		t.Fatalf("COMA misses = %d, want 2048 (cold only)", comaMisses)
	}
	if ccMisses < 3000 {
		t.Fatalf("CC misses = %d, want ≈4096 (thrash)", ccMisses)
	}
}

// nccRig builds 2 hosts + raw FAM (no directory).
func nccRig(t *testing.T) (*sim.Engine, []*host.Host, *mem.FAM) {
	t.Helper()
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	var hosts []*host.Host
	for i := 0; i < 2; i++ {
		att, err := b.AttachEndpoint(sw, "host"+string(rune('0'+i)), fabric.RoleHost, link.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, host.New(eng, att.Name, host.DefaultConfig(), att))
	}
	fa, err := b.AttachEndpoint(sw, "fam0", fabric.RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<28))
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	const base = 1 << 30
	for _, h := range hosts {
		if err := h.MapRemote("fam0", base, 1<<28, fam.ID(), 0); err != nil {
			t.Fatal(err)
		}
	}
	return eng, hosts, fam
}

func TestNCCUncachedAlwaysCoherent(t *testing.T) {
	eng, hosts, _ := nccRig(t)
	a := &NCCClient{H: hosts[0], Base: 1 << 30}
	b := &NCCClient{H: hosts[1], Base: 1 << 30}
	eng.Go("driver", func(p *sim.Proc) {
		a.Write64P(p, 0x100, 5)
		if got := b.Read64P(p, 0x100); got != 5 {
			t.Errorf("uncached NCC read %d, want 5", got)
		}
	})
	eng.Run()
}

// TestNCCCachedRequiresBarriers has two hosts cache the same device
// region with no coherence protocol: a write becomes visible to the
// other host only after software barriers, a flush by the writer and
// an invalidate by the reader.
func TestNCCCachedRequiresBarriers(t *testing.T) {
	eng, hosts, _ := nccRig(t)
	a := &CPULessClient{H: hosts[0], Base: 1 << 30}
	b := &CPULessClient{H: hosts[1], Base: 1 << 30}
	eng.Go("driver", func(p *sim.Proc) {
		// B warms a stale copy.
		if got := b.Read64P(p, 0x200); got != 0 {
			t.Errorf("initial read %d", got)
		}
		// A writes into its own cache.
		a.Write64P(p, 0x200, 9)
		// WITHOUT barriers, B still sees the stale cached 0 — that is
		// the NCC hazard the paper warns about.
		if got := b.Read64P(p, 0x200); got != 0 {
			t.Errorf("without barriers B saw %d — caches leaked coherence", got)
		}
		// A's flush publishes the write and B's invalidate drops its
		// stale copy, so B reads the new value.
		if err := hosts[0].FlushRangeP(p, (1<<30)+0x200, 8); err != nil {
			t.Error(err)
			return
		}
		hosts[1].InvalidateRange((1<<30)+0x200, 8)
		if got := b.Read64P(p, 0x200); got != 9 {
			t.Errorf("after barriers B saw %d, want 9", got)
		}
	})
	eng.Run()
}

func TestCPULessClientThroughHostCaches(t *testing.T) {
	eng, hosts, fam := nccRig(t)
	c := &CPULessClient{H: hosts[0], Base: 1 << 30}
	eng.Go("driver", func(p *sim.Proc) {
		c.Write64P(p, 0x300, 77)
		if got := c.Read64P(p, 0x300); got != 77 {
			t.Errorf("read back %d", got)
		}
		// Flush and verify it reached the device.
		if err := hosts[0].FlushRangeP(p, (1<<30)+0x300, 8); err != nil {
			t.Error(err)
			return
		}
		if got := fam.DRAM().Store().Read64(0x300); got != 77 {
			t.Errorf("device sees %d", got)
		}
	})
	eng.Run()
	if c.Kind() != "CPU-less NUMA" {
		t.Fatalf("kind = %s", c.Kind())
	}
}

func TestDirectoryStateTransitions(t *testing.T) {
	eng, cs, dir := ccRig(t, 2, DefaultClientConfig())
	eng.Go("driver", func(p *sim.Proc) {
		if got := dir.StateOf(0x900); got != "uncached" {
			t.Errorf("initial state %s", got)
		}
		cs[0].Read64P(p, 0x900)
		if got := dir.StateOf(0x900); got != "exclusive" {
			t.Errorf("after sole read: %s", got)
		}
		cs[1].Read64P(p, 0x900)
		if got := dir.StateOf(0x900); got != "shared(2)" {
			t.Errorf("after second read: %s", got)
		}
		cs[0].Write64P(p, 0x900, 1)
		if got := dir.StateOf(0x900); got != "exclusive" {
			t.Errorf("after write: %s", got)
		}
	})
	eng.Run()
}

// Property: with operations issued one at a time (a total order in
// virtual time) across three CC-NUMA clients, every read returns the
// value of the most recent write — per-line sequential consistency of
// the directory protocol, under capacity evictions.
func TestCCRandomOpsSequentialConsistency(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		cfg := DefaultClientConfig()
		cfg.CapacityLines = 16 // force evictions/writebacks mid-stream
		eng, cs, _ := ccRig(t, 3, cfg)
		rng := sim.NewRNG(seed)
		ref := map[uint64]uint64{}
		eng.Go("fuzz", func(p *sim.Proc) {
			for op := 0; op < 1500; op++ {
				c := cs[rng.Intn(len(cs))]
				addr := uint64(rng.Intn(64)) * 64
				if rng.Intn(3) == 0 {
					v := rng.Uint64()
					c.Write64P(p, addr, v)
					ref[addr] = v
				} else {
					got := c.Read64P(p, addr)
					if got != ref[addr] {
						t.Errorf("seed %d op %d: node read(%#x) = %#x, want %#x",
							seed, op, addr, got, ref[addr])
						return
					}
				}
			}
		})
		eng.Run()
	}
}
