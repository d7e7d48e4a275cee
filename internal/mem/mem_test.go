package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

func TestStoreReadsZeroWhenUnwritten(t *testing.T) {
	s := NewStore(1 << 20)
	buf := make([]byte, 64)
	s.Read(4096, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
	if s.PagesAllocated() != 0 {
		t.Fatal("read materialized a page")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(1 << 20)
	data := []byte("fabric-centric computing")
	s.Write(100, data)
	got := make([]byte, len(data))
	s.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestStoreCrossPageAccess(t *testing.T) {
	s := NewStore(1 << 20)
	data := make([]byte, 10000) // spans 3 pages
	for i := range data {
		data[i] = byte(i)
	}
	s.Write(pageSize-17, data)
	got := make([]byte, len(data))
	s.Read(pageSize-17, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip corrupted")
	}
}

func TestStoreBoundsPanic(t *testing.T) {
	s := NewStore(1024)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds write did not panic")
		}
	}()
	s.Write(1020, make([]byte, 8))
}

func TestStore64RoundTripProperty(t *testing.T) {
	s := NewStore(1 << 20)
	prop := func(addr uint32, v uint64) bool {
		a := uint64(addr) % (1<<20 - 8)
		s.Write64(a, v)
		return s.Read64(a) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, DefaultDRAM(), 1<<20)
	var at sim.Time
	eng.After(0, func() {
		d.Read(0, make([]byte, 64), func() { at = eng.Now() })
	})
	eng.Run()
	if at != DefaultDRAM().ReadLat {
		t.Fatalf("read completed at %v, want %v", at, DefaultDRAM().ReadLat)
	}
}

func TestDRAMOccupancyBoundsThroughput(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultDRAM()
	d := NewDRAM(eng, cfg, 1<<20)
	const n = 1000
	done := 0
	var buf [64]byte
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			d.Read(uint64(i*64), buf[:], func() { done++ })
		}
	})
	eng.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	mops := float64(n) / eng.Now().Seconds() / 1e6
	want := 1e3 / float64(cfg.ReadOcc.Nanoseconds()) // 1/34ns = 29.4 MOPS
	if mops < want*0.9 || mops > want*1.1 {
		t.Fatalf("read throughput %.1f MOPS, want ≈%.1f", mops, want)
	}
}

func TestDRAMBanksParallelize(t *testing.T) {
	measure := func(banks int) sim.Time {
		eng := sim.NewEngine()
		cfg := DefaultDRAM()
		cfg.Banks = banks
		d := NewDRAM(eng, cfg, 1<<20)
		eng.After(0, func() {
			for i := 0; i < 256; i++ {
				d.Read(uint64(i*64), make([]byte, 64), func() {})
			}
		})
		eng.Run()
		return eng.Now()
	}
	one, four := measure(1), measure(4)
	ratio := float64(one) / float64(four)
	if ratio < 3.0 {
		t.Fatalf("4 banks only %.2fx faster than 1", ratio)
	}
}

func TestDRAMWriteReadData(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, DefaultDRAM(), 1<<20)
	got := make([]byte, 4)
	read := false
	eng.After(0, func() {
		d.Write(128, []byte{1, 2, 3, 4}, func() {
			d.Read(128, got, func() { read = true })
		})
	})
	eng.Run()
	if !read || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("read %v, got %v", read, got)
	}
}

// TestDRAMReadFillsAtCompletion pins when a read takes its bytes from
// the array: at completion, into the reader's own buffer, so a write
// committed while the read is in flight is what the read returns.
func TestDRAMReadFillsAtCompletion(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, DefaultDRAM(), 1<<20)
	got := []byte{9, 9, 9, 9}
	var at sim.Time
	eng.After(0, func() {
		d.Read(256, got, func() { at = eng.Now() })
		if !bytes.Equal(got, []byte{9, 9, 9, 9}) {
			t.Errorf("read filled its buffer at the call: %v", got)
		}
	})
	eng.After(sim.Nanosecond, func() { d.Write(256, []byte{5, 6, 7, 8}, nil) })
	eng.Run()
	if at != DefaultDRAM().ReadLat || !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Fatalf("read done at %v with %v, want %v with the write's bytes", at, got, DefaultDRAM().ReadLat)
	}
}

// TestDRAMReadZeroAlloc pins a warm read at zero allocations: the bytes
// land in the reader's buffer and the completion record is pooled.
func TestDRAMReadZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, DefaultDRAM(), 1<<20)
	var buf [64]byte
	done := 0
	count := func() { done++ }
	read := func() {
		for i := 0; i < 16; i++ {
			d.Read(uint64(i*64), buf[:], count)
		}
		eng.Run()
	}
	for round := 0; round < 64; round++ {
		read()
	}
	if n := testing.AllocsPerRun(20, read); n != 0 {
		t.Fatalf("16 warm reads allocate %.2f, want 0", n)
	}
	if done == 0 {
		t.Fatal("no read completed")
	}
}

// famRig builds host-endpoint <-> switch <-> FAM.
func famRig(t *testing.T, cfg FAMConfig) (*sim.Engine, *txn.Endpoint, *FAM) {
	t.Helper()
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	ha, err := b.AttachEndpoint(sw, "host", fabric.RoleHost, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fa, err := b.AttachEndpoint(sw, "fam", fabric.RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := txn.NewEndpoint(eng, ha.ID, ha.Port, 0)
	ha.Port.SetSink(h)
	f := NewFAM(eng, fa, cfg)
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	return eng, h, f
}

func TestFAMReadWriteThroughFabric(t *testing.T) {
	eng, h, f := famRig(t, DefaultFAMConfig(1<<24))
	var readBack []byte
	eng.Go("driver", func(p *sim.Proc) {
		wr := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: f.ID(),
			Addr: 0x2000, Size: 64, Data: bytes.Repeat([]byte{0x5A}, 64)}
		resp := h.Request(wr).MustAwait(p)
		if resp.Op != flit.OpMemWrAck {
			t.Errorf("write resp = %v", resp)
		}
		rd := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: f.ID(),
			Addr: 0x2000, ReqLen: 64}
		resp = h.Request(rd).MustAwait(p)
		readBack = resp.Data
	})
	eng.Run()
	if !bytes.Equal(readBack, bytes.Repeat([]byte{0x5A}, 64)) {
		t.Fatal("data did not round trip through the fabric")
	}
}

// TestFAMOverlappingReadsKeepTheirLines issues reads of distinct lines
// back to back — line reads, two-line bulk reads and 8-byte I/O reads —
// so they are all inside the FEA's 310 ns return delay at once. Each op
// reads into its own buffer and keeps it until its response is sent,
// so every response carries its own bytes.
func TestFAMOverlappingReadsKeepTheirLines(t *testing.T) {
	eng, h, f := famRig(t, DefaultFAMConfig(1<<24))
	const lines = 12
	for i := 0; i < lines+1; i++ {
		b := make([]byte, 64)
		for j := range b {
			b[j] = byte(i*64 + j + 1)
		}
		f.DRAM().Store().Write(uint64(i)*64, b)
	}
	got := make([][]byte, lines)
	want := make([][]byte, lines)
	eng.After(0, func() {
		for i := 0; i < lines; i++ {
			addr := uint64(i) * 64
			pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: f.ID(), Addr: addr, ReqLen: 64}
			switch i % 3 {
			case 1:
				pkt = &flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd, Dst: f.ID(), Addr: addr, ReqLen: 128}
			case 2:
				pkt = &flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd, Dst: f.ID(), Addr: addr, ReqLen: 8}
			}
			want[i] = make([]byte, pkt.ReqLen)
			f.DRAM().Store().Read(addr, want[i])
			h.Request(pkt).OnComplete(func(resp *flit.Packet, err error) {
				if err != nil {
					t.Errorf("read %d: %v", i, err)
					return
				}
				got[i] = resp.Data
			})
		}
	})
	eng.Run()
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("read %d at %#x returned % x, want % x", i, i*64, got[i], want[i])
		}
	}
}

func TestFAMRemoteLatencyCalibration(t *testing.T) {
	// This measures the fabric+device portion only (no FHA processing,
	// no host cache lookups — the host package adds those and asserts
	// the full Table 2 calibration of ≈1575ns).
	eng, h, f := famRig(t, DefaultFAMConfig(1<<24))
	var lat sim.Time
	eng.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		h.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: f.ID(),
			Addr: 0, ReqLen: 64}).MustAwait(p)
		lat = p.Now() - start
	})
	eng.Run()
	if lat < 800*sim.Nanosecond || lat > 1100*sim.Nanosecond {
		t.Fatalf("fabric+device read latency %v, want ≈0.93us", lat)
	}
}

func TestFAMPartitionEnforcement(t *testing.T) {
	cfg := DefaultFAMConfig(1 << 20)
	eng, h, f := famRig(t, cfg)
	if err := f.Partition(h.ID(), 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Partition(999, 4096, 4096); err != nil {
		t.Fatal(err)
	}
	var inOK flit.Op
	var outErr error
	eng.Go("driver", func(p *sim.Proc) {
		resp := h.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd,
			Dst: f.ID(), Addr: 0, ReqLen: 64}).MustAwait(p)
		inOK = resp.Op
		_, outErr = h.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd,
			Dst: f.ID(), Addr: 8192, ReqLen: 64}).Await(p)
	})
	eng.Run()
	if inOK != flit.OpMemRdData {
		t.Fatalf("in-partition read = %v", inOK)
	}
	if !errors.Is(outErr, txn.ErrRefused) {
		t.Fatalf("out-of-partition read ended with %v, want %v", outErr, txn.ErrRefused)
	}
	if f.Violations.Value() != 1 {
		t.Fatalf("violations = %d", f.Violations.Value())
	}
}

func TestFAMPartitionOverlapRejected(t *testing.T) {
	_, _, f := famRig(t, DefaultFAMConfig(1<<20))
	if err := f.Partition(1, 0, 8192); err != nil {
		t.Fatal(err)
	}
	if err := f.Partition(2, 4096, 8192); err == nil {
		t.Fatal("overlapping partition accepted")
	}
	if err := f.Partition(2, 1<<20, 4096); err == nil {
		t.Fatal("beyond-capacity partition accepted")
	}
}

func TestFAMBulkIO(t *testing.T) {
	eng, h, f := famRig(t, DefaultFAMConfig(1<<24))
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i*13) | 1
	}
	f.DRAM().Store().Write(0x8000, payload)
	ok := false
	eng.Go("driver", func(p *sim.Proc) {
		// A segmented bulk write carries no data, so the device writes
		// zeros over the seeded bytes, one 512-byte segment at a time.
		n := h.BulkWrite(f.ID(), 0x8000, 8192).MustAwait(p)
		if n != 8192 {
			t.Errorf("bulk write %d bytes", n)
		}
		ok = true
	})
	eng.Run()
	if !ok {
		t.Fatal("bulk write never finished")
	}
	got := make([]byte, 8192)
	f.DRAM().Store().Read(0x8000, got)
	if !bytes.Equal(got, make([]byte, 8192)) {
		t.Error("bulk write left seeded bytes in place")
	}
	if n := f.Endpoint().ReqsServed.Value(); n != 16 {
		t.Errorf("FAM served %d requests, want 16 segments", n)
	}
}
