package uheap

import (
	"testing"
	"testing/quick"

	"fcc/internal/fabric"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
)

const famBase = 1 << 30

// rig: host + FAM; heap pools: small local pool + large far pool.
func rig(t *testing.T, cfg Config, localPool uint64) (*sim.Engine, *host.Host, *Heap) {
	return rigWithHost(t, cfg, localPool, nil)
}

func rigWithHost(t *testing.T, cfg Config, localPool uint64, mut func(*host.Config)) (*sim.Engine, *host.Host, *Heap) {
	t.Helper()
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	ha, err := b.AttachEndpoint(sw, "host0", fabric.RoleHost, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fa, err := b.AttachEndpoint(sw, "fam0", fabric.RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hcfg := host.DefaultConfig()
	if mut != nil {
		mut(&hcfg)
	}
	h := host.New(eng, "host0", hcfg, ha)
	f := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<28))
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := h.MapRemote("fam0", famBase, 1<<28, f.ID(), 0); err != nil {
		t.Fatal(err)
	}
	hp, err := New(h, cfg,
		PoolSpec{Name: "dimm", Base: 0x100000, Size: localPool, Class: ClassLocal},
		PoolSpec{Name: "fam0", Base: famBase, Size: 1 << 26, Class: ClassFar},
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng, h, hp
}

func noMigration() Config { return Config{Epoch: 0} }

func TestAllocPrefersFastPool(t *testing.T) {
	_, _, hp := rig(t, noMigration(), 1<<20)
	o, err := hp.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if o.Class() != ClassLocal {
		t.Fatalf("first alloc went to %v", o.Class())
	}
}

func TestAllocSpillsToFarPool(t *testing.T) {
	_, _, hp := rig(t, noMigration(), 1<<20) // 1MB local
	var last *Obj
	for i := 0; i < 20; i++ { // 20 x 64KB = 1.25MB
		o, err := hp.Alloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		last = o
	}
	if last.Class() != ClassFar {
		t.Fatalf("overflow alloc in %v, want far", last.Class())
	}
}

func TestAllocHint(t *testing.T) {
	_, _, hp := rig(t, noMigration(), 1<<20)
	o, err := hp.Alloc(128, ClassFar)
	if err != nil {
		t.Fatal(err)
	}
	if o.Class() != ClassFar {
		t.Fatalf("hinted alloc in %v", o.Class())
	}
}

func TestFreeAndReuse(t *testing.T) {
	_, _, hp := rig(t, noMigration(), 1<<20)
	o1, _ := hp.Alloc(1024)
	addr := o1.addr
	hp.Free(o1)
	o2, _ := hp.Alloc(900) // same bin (1024)
	if o2.addr != addr {
		t.Fatalf("freed bin not reused: %#x vs %#x", o2.addr, addr)
	}
	if hp.Objects() != 1 {
		t.Fatalf("objects = %d", hp.Objects())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	_, _, hp := rig(t, noMigration(), 1<<20)
	o, _ := hp.Alloc(64)
	hp.Free(o)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	hp.Free(o)
}

func TestUseAfterFreePanics(t *testing.T) {
	_, _, hp := rig(t, noMigration(), 1<<20)
	o, _ := hp.Alloc(64)
	hp.Free(o)
	defer func() {
		if recover() == nil {
			t.Error("use after free did not panic")
		}
	}()
	// The guard fires before the access needs a running process.
	o.Read64P(nil, 0)
}

func TestOutOfBoundsPanics(t *testing.T) {
	_, _, hp := rig(t, noMigration(), 1<<20)
	o, _ := hp.Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds access did not panic")
		}
	}()
	o.Read64P(nil, 60)
}

func TestObjectDataRoundTrip(t *testing.T) {
	eng, _, hp := rig(t, noMigration(), 1<<20)
	o, _ := hp.Alloc(300, ClassFar)
	eng.Go("driver", func(p *sim.Proc) {
		for off := uint64(0); off+8 <= o.Size(); off += 8 {
			o.Write64P(p, off, 0xC3C3C3C3_00000000|off)
		}
		for off := uint64(0); off+8 <= o.Size(); off += 8 {
			if got := o.Read64P(p, off); got != 0xC3C3C3C3_00000000|off {
				t.Errorf("word at %d reads %#x, want %#x", off, got, 0xC3C3C3C3_00000000|off)
			}
		}
	})
	eng.Run()
}

func TestBinShiftClasses(t *testing.T) {
	cases := map[uint64]uint{1: 6, 64: 6, 65: 7, 128: 7, 1024: 10, 1 << 20: 20}
	for size, want := range cases {
		got, err := binShift(size)
		if err != nil || got != want {
			t.Errorf("binShift(%d) = %d,%v want %d", size, got, err, want)
		}
	}
	if _, err := binShift(0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := binShift(1<<20 + 1); err == nil {
		t.Error("oversize accepted")
	}
}

func TestAllocFreeProperty(t *testing.T) {
	// Allocator invariant: live objects never overlap, stay in-pool.
	_, _, hp := rig(t, noMigration(), 1<<22)
	type iv struct{ lo, hi uint64 }
	live := map[*Obj]iv{}
	prop := func(sizes []uint16, freeEvery uint8) bool {
		for i, s := range sizes {
			size := uint64(s)%4096 + 1
			o, err := hp.Alloc(size)
			if err != nil {
				return true // pool exhaustion is legal
			}
			in := iv{o.addr, o.addr + 1<<o.shift}
			for _, other := range live {
				if in.lo < other.hi && other.lo < in.hi {
					return false // overlap!
				}
			}
			live[o] = in
			if freeEvery > 0 && i%(int(freeEvery)+1) == 0 {
				hp.Free(o)
				delete(live, o)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationPromotesHotObject(t *testing.T) {
	cfg := Config{Epoch: 20 * sim.Microsecond, Decay: 0.5, MaxMovesPerEpoch: 4}
	eng, _, hp := rig(t, cfg, 1<<20)
	o, err := hp.Alloc(4096, ClassFar)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("driver", func(p *sim.Proc) {
		for off := uint64(0); off < 40; off += 8 {
			o.Write64P(p, off, 0x5EED_0000|off)
		}
		for i := 0; i < 200; i++ {
			o.Read64P(p, 0)
			p.Sleep(500 * sim.Nanosecond)
		}
	})
	eng.Run()
	if o.Class() != ClassLocal {
		t.Fatalf("hot object still in %v after sustained access", o.Class())
	}
	if hp.Promotions.Value() == 0 {
		t.Fatal("no promotions counted")
	}
	// Data must survive the move.
	var got [5]uint64
	eng.Go("check", func(p *sim.Proc) {
		for i := range got {
			got[i] = o.Read64P(p, uint64(i)*8)
		}
	})
	eng.Run()
	for i, v := range got {
		if want := 0x5EED_0000 | uint64(i)*8; v != want {
			t.Errorf("word %d reads %#x after migration, want %#x", i, v, want)
		}
	}
}

func TestMigrationSwapsColdOut(t *testing.T) {
	// Local pool fits exactly one 4KB bin; the hot far object must swap
	// with the cold local one.
	cfg := Config{Epoch: 20 * sim.Microsecond, Decay: 0.5, MaxMovesPerEpoch: 4}
	eng, _, hp := rig(t, cfg, 4096)
	cold, _ := hp.Alloc(4096) // takes the only local bin
	hot, _ := hp.Alloc(4096)  // spills to far
	if cold.Class() != ClassLocal || hot.Class() != ClassFar {
		t.Fatalf("setup wrong: cold=%v hot=%v", cold.Class(), hot.Class())
	}
	eng.Go("driver", func(p *sim.Proc) {
		cold.Write64P(p, 0, 111)
		hot.Write64P(p, 0, 222)
		for i := 0; i < 300; i++ {
			hot.Read64P(p, 8)
			p.Sleep(300 * sim.Nanosecond)
		}
	})
	eng.Run()
	if hot.Class() != ClassLocal || cold.Class() != ClassFar {
		t.Fatalf("swap did not happen: hot=%v cold=%v", hot.Class(), cold.Class())
	}
	var hv, cv uint64
	eng.Go("check", func(p *sim.Proc) {
		hv = hot.Read64P(p, 0)
		cv = cold.Read64P(p, 0)
	})
	eng.Run()
	if hv != 222 || cv != 111 {
		t.Fatalf("swap corrupted data: hot=%d cold=%d", hv, cv)
	}
}

// TestFreeDuringMigration frees an object while the runtime is moving
// it: mid-promotion, and as the cold side of a swap. The bin the object
// ends in must go back to its pool once, and no bin a live object holds
// may be handed out again. An accessor parked on the move must panic
// when it wakes, not read the released bin.
func TestFreeDuringMigration(t *testing.T) {
	t.Run("promotion", func(t *testing.T) {
		eng, _, hp := rig(t, noMigration(), 1<<20)
		o, _ := hp.Alloc(4096, ClassFar)
		if !hp.promote(o) {
			t.Fatal("promotion not scheduled")
		}
		hp.Free(o)
		eng.Run()
		checkBins(t, hp)
	})
	t.Run("swap", func(t *testing.T) {
		// The local pool holds one 4 KiB bin, so the hot far object
		// swaps with the cold local one.
		eng, _, hp := rig(t, noMigration(), 4096)
		cold, _ := hp.Alloc(4096)
		hot, _ := hp.Alloc(4096)
		hot.heat = 1
		if !hp.promote(hot) || !cold.migrating {
			t.Fatal("swap not scheduled")
		}
		hp.Free(cold)
		eng.Run()
		if hot.Class() != ClassLocal {
			t.Fatalf("hot object in %v after the swap", hot.Class())
		}
		checkBins(t, hp)
	})
	t.Run("parked accessor", func(t *testing.T) {
		eng, _, hp := rig(t, noMigration(), 1<<20)
		o, _ := hp.Alloc(4096, ClassFar)
		if !hp.promote(o) {
			t.Fatal("promotion not scheduled")
		}
		got := uint64(1)
		eng.Go("reader", func(p *sim.Proc) { got = o.Read64P(p, 0) })
		eng.After(10*sim.Nanosecond, func() { hp.Free(o) })
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			eng.Run()
			return nil
		}()
		if rec != "uheap: use after free" {
			t.Fatalf("the parked reader read %d and Run recovered %v, want the use-after-free panic", got, rec)
		}
	})
}

// checkBins requires each pool's used bytes to equal the bins its live
// objects hold, then allocates a fresh local object and two fresh far
// ones and requires that no two live objects share a byte.
func checkBins(t *testing.T, hp *Heap) {
	t.Helper()
	held := map[*pool]uint64{}
	for _, o := range hp.objs {
		held[o.pool] += 1 << o.shift
	}
	for _, pl := range hp.pools {
		if pl.used != held[pl] {
			t.Errorf("pool %s: used %d, live objects hold %d", pl.spec.Name, pl.used, held[pl])
		}
	}
	for _, c := range []Class{ClassLocal, ClassFar, ClassFar} {
		if _, err := hp.Alloc(4096, c); err != nil {
			t.Fatal(err)
		}
	}
	var live []*Obj
	for _, o := range hp.objs {
		live = append(live, o)
	}
	for i, a := range live {
		for _, b := range live[i+1:] {
			if a.addr < b.addr+1<<b.shift && b.addr < a.addr+1<<a.shift {
				t.Errorf("live objects share bytes: [%#x,+%d) and [%#x,+%d)", a.addr, 1<<a.shift, b.addr, 1<<b.shift)
			}
		}
	}
}

func TestMigrationImprovesZipfLatency(t *testing.T) {
	// E2's shape: Zipf accesses over a working set larger than local
	// memory. With migration, hot objects end up local and mean access
	// latency drops well below the static-placement baseline.
	run := func(migrate bool) float64 {
		cfg := Config{Epoch: 50 * sim.Microsecond, Decay: 0.5, MaxMovesPerEpoch: 16}
		if !migrate {
			cfg.Epoch = 0
		}
		// Shrink the host caches so object temperature — not the cache
		// hierarchy — decides access cost (the hot set must not fit L2).
		eng, _, hp := rigWithHost(t, cfg, 512<<10, func(c *host.Config) {
			c.L1.Size = 8 << 10
			c.L2.Size = 32 << 10
		})
		// 256 objects x 4KB = 1MB far; 512KB fits locally.
		var objs []*Obj
		for i := 0; i < 256; i++ {
			o, err := hp.Alloc(4096, ClassFar) // static: all far
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
		rng := sim.NewRNG(42)
		z := sim.NewZipf(rng, len(objs), 1.2)
		lat := sim.NewHistogram()
		eng.Go("driver", func(p *sim.Proc) {
			for i := 0; i < 8000; i++ {
				o := objs[z.Next()]
				start := p.Now()
				o.Read64P(p, uint64(rng.Intn(512))*8)
				// Measure steady state: the second half, after the
				// migration runtime has converged.
				if i >= 4000 {
					lat.ObserveTime(p.Now() - start)
				}
				p.Sleep(200 * sim.Nanosecond)
			}
		})
		eng.Run()
		return lat.Mean()
	}
	static := run(false)
	migrated := run(true)
	if migrated*1.5 > static {
		t.Fatalf("migration mean latency %.0fns vs static %.0fns — expected ≥1.5x better", migrated, static)
	}
}

func TestHeapRejectsUnmappedPool(t *testing.T) {
	eng := sim.NewEngine()
	h := host.New(eng, "h", host.DefaultConfig(), nil)
	if _, err := New(h, noMigration(),
		PoolSpec{Name: "bogus", Base: 1 << 40, Size: 1 << 20, Class: ClassFar}); err == nil {
		t.Fatal("unmapped pool accepted")
	}
}

func TestHeapRequiresPools(t *testing.T) {
	eng := sim.NewEngine()
	h := host.New(eng, "h", host.DefaultConfig(), nil)
	if _, err := New(h, noMigration()); err == nil {
		t.Fatal("empty pool list accepted")
	}
}
