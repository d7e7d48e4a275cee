package host

import (
	"errors"
	"strings"
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// remoteBase is where the test rig maps FAM in host address space.
const remoteBase = 1 << 30

// rig builds one host + one FAM behind one switch, all defaults — the
// Table 2 calibration topology.
func rig(t testing.TB, mut func(*Config)) (*sim.Engine, *Host, *mem.FAM) {
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
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	h := New(eng, "host0", cfg, ha)
	f := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<30))
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := h.MapRemote("fam0", remoteBase, 1<<30, f.ID(), 0); err != nil {
		t.Fatal(err)
	}
	return eng, h, f
}

// measureLat runs op once in a fresh proc and returns its duration.
func measureLat(eng *sim.Engine, op func(p *sim.Proc)) sim.Time {
	var lat sim.Time
	eng.Go("measure", func(p *sim.Proc) {
		start := p.Now()
		op(p)
		lat = p.Now() - start
	})
	eng.Run()
	return lat
}

func within(t *testing.T, name string, got sim.Time, wantNs, tolFrac float64) {
	t.Helper()
	g := got.Nanoseconds()
	if g < wantNs*(1-tolFrac) || g > wantNs*(1+tolFrac) {
		t.Errorf("%s = %.1fns, want %.1fns ±%.0f%%", name, g, wantNs, tolFrac*100)
	}
}

func TestTable2ReadLatencies(t *testing.T) {
	eng, h, _ := rig(t, nil)
	var l1, l2, local, remote sim.Time
	eng.Go("driver", func(p *sim.Proc) {
		// Local DRAM: first touch of a line.
		start := p.Now()
		h.Load64P(p, 0x10000)
		local = p.Now() - start

		// L1 hit: touch it again.
		start = p.Now()
		h.Load64P(p, 0x10000)
		l1 = p.Now() - start

		// L2 hit: flood L1 with 1024 other lines (64KB > 32KB L1,
		// well under the 1MB L2), then re-touch.
		for i := uint64(0); i < 1024; i++ {
			h.Load64P(p, 0x100000+i*64)
		}
		start = p.Now()
		h.Load64P(p, 0x10000)
		l2 = p.Now() - start

		// Remote: first touch of a FAM line.
		start = p.Now()
		h.Load64P(p, remoteBase)
		remote = p.Now() - start
	})
	eng.Run()
	within(t, "L1 read", l1, 5.4, 0.01)
	within(t, "L2 read", l2, 13.6, 0.01)
	within(t, "local read", local, 111.7, 0.01)
	within(t, "remote read", remote, 1575.3, 0.02)
	ratio := float64(remote) / float64(local)
	if ratio < 10 {
		t.Errorf("remote/local = %.1fx, paper reports ≈14x (at least 10x)", ratio)
	}
}

func TestTable2WriteLatencies(t *testing.T) {
	eng, h, _ := rig(t, nil)
	var l1, l2, local, remote sim.Time
	eng.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		h.Store64P(p, 0x20000, 1)
		local = p.Now() - start

		start = p.Now()
		h.Store64P(p, 0x20000, 2)
		l1 = p.Now() - start

		for i := uint64(0); i < 1024; i++ {
			h.Load64P(p, 0x200000+i*64)
		}
		start = p.Now()
		h.Store64P(p, 0x20000, 3)
		l2 = p.Now() - start

		start = p.Now()
		h.Store64P(p, remoteBase+0x40, 4)
		remote = p.Now() - start
	})
	eng.Run()
	within(t, "L1 write", l1, 5.4, 0.01)
	within(t, "L2 write", l2, 12.5, 0.01)
	within(t, "local write", local, 119.3, 0.01)
	within(t, "remote write", remote, 1613.3, 0.03)
}

func TestTable2Throughput(t *testing.T) {
	// Streaming 64B reads/writes: local ≈29.4/16.9 MOPS; remote ≈2.5/2.5.
	// Local runs use a 2MB working set (double the 1MB L2) and measure
	// the second pass, so writes bind on the dirty-writeback drain rate
	// exactly as a real streaming store workload does.
	stream := func(write, remote bool, n int) float64 {
		eng, h, _ := rig(t, nil)
		base := uint64(0x100000)
		if remote {
			base = remoteBase
		}
		issue := func(i int, done func()) {
			addr := base + uint64(i)*64
			if write {
				h.Store64(addr, uint64(i)).OnComplete(func(struct{}, error) { done() })
			} else {
				h.Load64(addr).OnComplete(func(uint64, error) { done() })
			}
		}
		var t0 sim.Time
		completed := 0
		measure := func() {
			t0 = eng.Now()
			for i := 0; i < n; i++ {
				issue(i, func() { completed++ })
			}
		}
		eng.After(0, func() {
			if remote {
				measure() // remote ops are cold misses already
				return
			}
			warm := 0
			for i := 0; i < n; i++ {
				issue(i, func() {
					warm++
					if warm == n {
						measure()
					}
				})
			}
		})
		eng.Run()
		if completed != n {
			t.Fatalf("completed %d of %d", completed, n)
		}
		return float64(n) / (eng.Now() - t0).Seconds() / 1e6
	}
	cases := []struct {
		name          string
		write, remote bool
		n             int
		want, tol     float64
	}{
		{"local read", false, false, 32768, 29.4, 0.10},
		{"local write", true, false, 32768, 16.9, 0.12},
		{"remote read", false, true, 400, 2.5, 0.10},
		{"remote write", true, true, 400, 2.5, 0.10},
	}
	for _, c := range cases {
		got := stream(c.write, c.remote, c.n)
		if got < c.want*(1-c.tol) || got > c.want*(1+c.tol) {
			t.Errorf("%s throughput = %.2f MOPS, want %.2f ±%.0f%%", c.name, got, c.want, c.tol*100)
		}
	}
}

func TestL1HitThroughputIsIssueWidthBound(t *testing.T) {
	eng, h, _ := rig(t, nil)
	done := 0
	var t0 sim.Time
	eng.After(0, func() {
		// Warm one line, then hammer it.
		h.Load64(0x1000).OnComplete(func(uint64, error) {
			t0 = eng.Now()
			for i := 0; i < 2000; i++ {
				h.Load64(0x1000).OnComplete(func(uint64, error) { done++ })
			}
		})
	})
	eng.Run()
	mops := float64(done) / (eng.Now() - t0).Seconds() / 1e6
	// IssueWidth 2 / 5.4ns = 370 MOPS (paper: 357.4).
	if mops < 330 || mops > 400 {
		t.Fatalf("L1 hit throughput = %.1f MOPS, want ≈370", mops)
	}
}

func TestDataIntegrityThroughHierarchy(t *testing.T) {
	eng, h, _ := rig(t, nil)
	eng.Go("driver", func(p *sim.Proc) {
		// Write, evict by flooding, read back from DRAM.
		h.Store64P(p, 0x8000, 0xDEADBEEF)
		for i := uint64(0); i < 40000; i++ { // 2.5MB > L2
			h.Load64P(p, 0x400000+i*64)
		}
		if got := h.Load64P(p, 0x8000); got != 0xDEADBEEF {
			t.Errorf("read back %#x after eviction, want 0xDEADBEEF", got)
		}
	})
	eng.Run()
}

func TestDataIntegrityRemote(t *testing.T) {
	eng, h, f := rig(t, nil)
	eng.Go("driver", func(p *sim.Proc) {
		h.Store64P(p, remoteBase+128, 42)
		// Force the dirty line out to the device.
		if err := h.FlushRangeP(p, remoteBase+128, 8); err != nil {
			t.Error(err)
			return
		}
		if got := f.DRAM().Store().Read64(128); got != 42 {
			t.Errorf("device sees %d, want 42", got)
		}
		// Device-side change must be visible after invalidation.
		f.DRAM().Store().Write64(128, 99)
		h.InvalidateRange(remoteBase+128, 8)
		if got := h.Load64P(p, remoteBase+128); got != 99 {
			t.Errorf("host sees %d after invalidate, want 99", got)
		}
	})
	eng.Run()
}

func TestMSHRMergesSameLineMisses(t *testing.T) {
	eng, h, _ := rig(t, nil)
	done := 0
	eng.After(0, func() {
		for i := 0; i < 4; i++ {
			h.Load64(remoteBase + uint64(i*8)).OnComplete(func(uint64, error) { done++ })
		}
	})
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if got := h.RemoteReads.Value(); got != 1 {
		t.Fatalf("remote reads = %d, want 1 (four 8B loads on one line merge)", got)
	}
}

func TestPrefetchAcceleratesStreaming(t *testing.T) {
	// Difference #1: "CPU-assisted prefetching would transparently
	// accelerate memory fabric performance."
	stream := func(depth int) sim.Time {
		eng, h, _ := rig(t, func(c *Config) { c.PrefetchDepth = depth })
		eng.Go("driver", func(p *sim.Proc) {
			for i := uint64(0); i < 500; i++ {
				h.Load64P(p, remoteBase+i*64) // dependent sequential stream
			}
		})
		eng.Run()
		return eng.Now()
	}
	off := stream(0)
	on := stream(3)
	speedup := float64(off) / float64(on)
	if speedup < 2.0 {
		t.Fatalf("prefetch speedup = %.2fx, want >2x on sequential remote stream", speedup)
	}
}

func TestPrefetchUsefulCounted(t *testing.T) {
	eng, h, _ := rig(t, func(c *Config) { c.PrefetchDepth = 2 })
	eng.Go("driver", func(p *sim.Proc) {
		for i := uint64(0); i < 100; i++ {
			h.Load64P(p, remoteBase+i*64)
		}
	})
	eng.Run()
	if h.PrefIssued.Value() == 0 || h.PrefUseful.Value() == 0 {
		t.Fatalf("prefetch counters: issued=%d useful=%d",
			h.PrefIssued.Value(), h.PrefUseful.Value())
	}
}

func TestUncachedOpsBypassCache(t *testing.T) {
	eng, h, f := rig(t, nil)
	eng.Go("driver", func(p *sim.Proc) {
		if err := h.UncachedWriteP(p, remoteBase+0x300, []byte{1, 2, 3, 4}); err != nil {
			t.Error(err)
			return
		}
		if got := f.DRAM().Store().Read64(0x300); got&0xFFFFFFFF != 0x04030201 {
			t.Errorf("device = %#x", got)
		}
		b, err := h.UncachedReadP(p, remoteBase+0x300, 4)
		if err != nil || len(b) != 4 || b[0] != 1 || b[3] != 4 {
			t.Errorf("uncached read = %v, %v", b, err)
		}
	})
	eng.Run()
	if h.RemoteReads.Value() != 0 {
		t.Fatal("uncached ops perturbed the cached-path counters")
	}
}

func TestUncachedBigRoundTrip(t *testing.T) {
	eng, h, _ := rig(t, nil)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	eng.Go("driver", func(p *sim.Proc) {
		if err := h.UncachedWriteP(p, remoteBase+0x10000, data); err != nil {
			t.Error(err)
			return
		}
		got, err := h.UncachedReadP(p, remoteBase+0x10000, 3000)
		if err != nil || len(got) != len(data) {
			t.Errorf("uncached read of 3000 bytes = %d bytes, %v", len(got), err)
			return
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
			}
		}
	})
	eng.Run()
}

// TestRejectedWritesFail partitions the whole FAM away from the host
// after the host has dirtied two of its lines, so the FAM refuses every
// request with OpMemErr. Each host path must return an error txn.Typed
// accepts: an uncached write and read, and the flush of each dirty
// line.
func TestRejectedWritesFail(t *testing.T) {
	eng, h, f := rig(t, nil)
	var errs [4]error
	eng.Go("writer", func(p *sim.Proc) {
		h.Store64P(p, remoteBase, 1)
		h.Store64P(p, remoteBase+0x40, 2)
		if err := f.Partition(flit.MaxPortID, 0, 1<<30); err != nil {
			t.Error(err)
			return
		}
		errs[0] = h.UncachedWriteP(p, remoteBase+0x1000, []byte{1, 2, 3, 4})
		_, errs[1] = h.UncachedReadP(p, remoteBase+0x1000, 4)
		errs[2] = h.FlushRangeP(p, remoteBase, 8)
		errs[3] = h.FlushRangeP(p, remoteBase+0x40, 8)
	})
	eng.Run()
	for i, what := range []string{"uncached write", "uncached read", "flush", "second flush"} {
		if !errors.Is(errs[i], txn.ErrRefused) || !txn.Typed(errs[i]) {
			t.Errorf("%s rejected by the FAM ended with %v, want %v", what, errs[i], txn.ErrRefused)
		}
	}
	if n := f.Violations.Value(); n != 4 {
		t.Errorf("FAM counted %d violations, want 4: the write, the read and the two flushes", n)
	}
}

// TestLostWritesFail fences the FAM under a host whose endpoint times
// out after 5 µs. Every uncached operation and flush must return
// ErrTimeout, and the run must drain, at one request and at several:
// an uncached write, the flush of a dirty line, a 3,000-byte uncached
// write and read, and a flush over three dirty lines. A flush stops at
// the line that failed, so the lines after it stay cached and dirty.
func TestLostWritesFail(t *testing.T) {
	eng, h, f := rig(t, nil)
	h.Endpoint().Timeout = 5 * sim.Microsecond
	var errs [5]error
	eng.Go("writer", func(p *sim.Proc) {
		for a := uint64(0); a < 4*LineSize; a += LineSize {
			h.Store64P(p, remoteBase+a, 1)
		}
		f.Fail()
		errs[0] = h.UncachedWriteP(p, remoteBase+0x1000, []byte{1, 2, 3, 4})
		errs[1] = h.FlushRangeP(p, remoteBase, 8)
		errs[2] = h.UncachedWriteP(p, remoteBase+0x2000, make([]byte, 3000))
		_, errs[3] = h.UncachedReadP(p, remoteBase+0x2000, 3000)
		errs[4] = h.FlushRangeP(p, remoteBase+LineSize, 3*LineSize)
	})
	eng.Run()
	for i, what := range []string{"uncached write", "flush", "3,000-byte uncached write",
		"3,000-byte uncached read", "flush of three dirty lines"} {
		if !errors.Is(errs[i], txn.ErrTimeout) {
			t.Errorf("%s to a fenced FAM ended with %v, want %v", what, errs[i], txn.ErrTimeout)
		}
	}
	for _, a := range []uint64{2 * LineSize, 3 * LineSize} {
		if l := h.l1.peek(remoteBase + a); l == nil || !l.dirty {
			t.Errorf("line %#x lost its dirty data, though the flush failed before it", remoteBase+a)
		}
	}
}

// TestFailedFillIsTyped fences the FAM under a host whose endpoint
// times out after 5 µs, with the prefetcher on. A load whose fill times
// out, the load merged into it and the store behind them fail with
// ErrTimeout; the MSHRs (the demand fill's and the prefetches') are all
// freed and the run drains. After the fence lifts, the line loads the
// value stored before it.
func TestFailedFillIsTyped(t *testing.T) {
	eng, h, f := rig(t, func(c *Config) { c.PrefetchDepth = 2 })
	h.Endpoint().Timeout = 5 * sim.Microsecond
	st := sim.NewStats("host0")
	h.RegisterStats(st)
	const addr = remoteBase + 0x2000
	eng.Go("writer", func(p *sim.Proc) {
		h.Store64P(p, addr, 42)
		if err := h.FlushRangeP(p, addr, 8); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	f.Fail()
	var errs [3]error
	h.Load64(addr).OnComplete(func(_ uint64, err error) { errs[0] = err })
	h.Load64(addr + 8).OnComplete(func(_ uint64, err error) { errs[1] = err })
	h.Store64(addr+16, 7).OnComplete(func(_ struct{}, err error) { errs[2] = err })
	eng.Run()
	for i, what := range []string{"load", "merged load", "merged store"} {
		if !errors.Is(errs[i], txn.ErrTimeout) {
			t.Errorf("%s from a fenced FAM ended with %v, want %v", what, errs[i], txn.ErrTimeout)
		}
	}
	if h.MSHRMerges.Value() != 2 || h.PrefIssued.Value() == 0 {
		t.Errorf("merges %d, prefetches %d: want the load and store merged and a prefetch issued",
			h.MSHRMerges.Value(), h.PrefIssued.Value())
	}
	if dump := st.Dump(); !strings.Contains(dump, "mshrs_in_use = 0\n") {
		t.Errorf("failed fills left MSHRs held:\n%s", dump)
	}
	f.Recover()
	var v uint64
	eng.Go("reader", func(p *sim.Proc) { v = h.Load64P(p, addr) })
	eng.Run()
	if v != 42 {
		t.Fatalf("load after the fence lifted = %d, want 42", v)
	}
}

// TestBlockingAccessAllocCeiling pins the cached load/store path's
// allocation floor through the blocking forms. A warm L1 hit through
// Load64P or Store64P allocates nothing: the op, its future and the
// access record are pooled. A warm remote miss through Load64P
// allocates only the packets the links decode, the request at the FAM
// and the response at the host: the MSHR carries the request packet,
// and the txn record is pooled, with or without an endpoint timeout.
func TestBlockingAccessAllocCeiling(t *testing.T) {
	for _, timeout := range []sim.Time{0, 25 * sim.Microsecond} {
		eng, h, _ := rig(t, nil)
		h.Endpoint().Timeout = timeout
		var hit, store, miss float64
		eng.Go("accessor", func(p *sim.Proc) {
			h.Load64P(p, 0x1000)
			h.Store64P(p, 0x1000, 1)
			hit = testing.AllocsPerRun(100, func() { h.Load64P(p, 0x1000) })
			store = testing.AllocsPerRun(100, func() { h.Store64P(p, 0x1000, 2) })
			i := 0
			next := func() uint64 { i++; return remoteMissAddr(i) }
			for range 256 {
				h.Load64P(p, next())
			}
			reads := h.RemoteReads.Value()
			miss = testing.AllocsPerRun(100, func() { h.Load64P(p, next()) })
			if n := h.RemoteReads.Value() - reads; n != 101 {
				t.Errorf("101 loads of the miss stream made %d remote reads", n)
			}
		})
		eng.Run()
		t.Logf("timeout %v: %.2f allocs per L1 load hit, %.2f per store hit, %.2f per remote miss", timeout, hit, store, miss)
		if hit != 0 || store != 0 {
			t.Errorf("timeout %v: warm L1 hit allocates %.2f through Load64P and %.2f through Store64P, want 0",
				timeout, hit, store)
		}
		if miss > 2 {
			t.Errorf("timeout %v: warm remote miss allocates %.2f through Load64P, want <= 2", timeout, miss)
		}
	}
}

// remoteMissAddr is the i-th address of a stream that misses both
// cache levels on every load: lines 64 KiB apart share one L1 set and
// one L2 set, and 32 of them overflow both sets' ways.
func remoteMissAddr(i int) uint64 { return remoteBase + uint64(i%32)<<16 }

func TestVictimBufferForwarding(t *testing.T) {
	// A line evicted dirty and immediately re-read must return the new
	// data (forwarded from the victim buffer or after writeback).
	eng, h, _ := rig(t, nil)
	eng.Go("driver", func(p *sim.Proc) {
		h.Store64P(p, 0x9000, 777)
		// Evict 0x9000 from both levels via a conflict+capacity flood.
		for i := uint64(0); i < 40000; i++ {
			h.Load64P(p, 0x1000000+i*64)
		}
		if got := h.Load64P(p, 0x9000); got != 777 {
			t.Errorf("got %d, want 777", got)
		}
	})
	eng.Run()
}

func TestAddrMapLookup(t *testing.T) {
	m := NewAddrMap()
	if err := m.Add(Region{Name: "a", Base: 0, Size: 100, Local: true}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Region{Name: "b", Base: 1000, Size: 100, Port: 7, DevBase: 500}); err != nil {
		t.Fatal(err)
	}
	if m.Lookup(50) == nil || m.Lookup(50).Name != "a" {
		t.Fatal("lookup a failed")
	}
	r := m.Lookup(1050)
	if r == nil || r.Name != "b" {
		t.Fatal("lookup b failed")
	}
	if r.DevAddr(1050) != 550 {
		t.Fatalf("DevAddr = %d", r.DevAddr(1050))
	}
	if m.Lookup(500) != nil || m.Lookup(1100) != nil {
		t.Fatal("lookup in gap should be nil")
	}
}

func TestAddrMapRejectsOverlap(t *testing.T) {
	m := NewAddrMap()
	if err := m.Add(Region{Name: "a", Base: 0, Size: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Region{Name: "b", Base: 999, Size: 10}); err == nil {
		t.Fatal("overlap accepted")
	}
	if err := m.Add(Region{Name: "c", Base: 2000, Size: 0}); err == nil {
		t.Fatal("empty region accepted")
	}
	// A region whose end wraps past 2^64 could never be found by Lookup.
	err := m.Add(Region{Name: "d", Base: 3 << 62, Size: 1 << 63})
	if err == nil || !strings.Contains(err.Error(), `"d"`) {
		t.Fatalf("wrapping region: Add returned %v, want an error naming it", err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(CacheConfig{Size: 4 * LineSize, Ways: 4, ReadLat: 1, WriteLat: 1})
	var d [LineSize]byte
	for i := uint64(0); i < 4; i++ {
		c.insert(i*64, &d, false)
	}
	c.lookup(0) // make line 0 most recent
	c.insert(4*64, &d, false)
	if c.peek(64) != nil {
		t.Fatal("LRU line (64) survived eviction")
	}
	if c.peek(0) == nil {
		t.Fatal("MRU line (0) was evicted")
	}
}

func TestCacheDirtyVictimReturned(t *testing.T) {
	c := newCache(CacheConfig{Size: LineSize, Ways: 1, ReadLat: 1, WriteLat: 1})
	var d [LineSize]byte
	d[0] = 0xAB
	c.insert(0, &d, true)
	ev, has := c.insert(64, &d, false)
	if !has || ev.addr != 0 || ev.data[0] != 0xAB {
		t.Fatalf("victim = %+v has=%v", ev, has)
	}
}

func TestCacheInsertExistingMergesDirty(t *testing.T) {
	c := newCache(CacheConfig{Size: 4 * LineSize, Ways: 4, ReadLat: 1, WriteLat: 1})
	var d [LineSize]byte
	c.insert(0, &d, true)
	_, has := c.insert(0, &d, false)
	if has {
		t.Fatal("re-insert evicted something")
	}
	if l := c.peek(0); l == nil || !l.dirty {
		t.Fatal("dirtiness lost on re-insert")
	}
}

// Property: an arbitrary interleaving of loads, stores, and flushes
// through the full hierarchy (both local DRAM and remote FAM) always
// reads back the last value written — caches, victim buffer, MSHRs,
// writebacks, and the fabric are all transparent to a single host.
func TestHostRandomOpsMatchReferenceMemory(t *testing.T) {
	for _, seed := range []uint64{7, 21, 99} {
		eng, h, _ := rig(t, func(c *Config) {
			// Tiny caches maximize evictions/writebacks per op.
			c.L1.Size = 1 << 10
			c.L2.Size = 4 << 10
		})
		rng := sim.NewRNG(seed)
		ref := map[uint64]uint64{}
		// Address pool spanning local and remote, with aliasing to force
		// conflict evictions.
		addrs := make([]uint64, 64)
		for i := range addrs {
			base := uint64(0x10000)
			if i%2 == 1 {
				base = remoteBase
			}
			addrs[i] = base + uint64(rng.Intn(256))*64 + uint64(rng.Intn(8))*8
		}
		eng.Go("fuzz", func(p *sim.Proc) {
			for op := 0; op < 2000; op++ {
				a := addrs[rng.Intn(len(addrs))]
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					v := rng.Uint64()
					h.Store64P(p, a, v)
					ref[a] = v
				case 4:
					if err := h.FlushRangeP(p, a, 8); err != nil {
						t.Errorf("seed %d op %d: flush(%#x): %v", seed, op, a, err)
						return
					}
				default:
					got := h.Load64P(p, a)
					if got != ref[a] {
						t.Errorf("seed %d op %d: load(%#x) = %#x, want %#x", seed, op, a, got, ref[a])
						return
					}
				}
			}
		})
		eng.Run()
	}
}
