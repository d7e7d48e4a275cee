package coherence

import (
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
)

// TestDirectoryReadMissAllocCeiling pins the end-to-end read-miss
// allocation diet: client lineOp, directory dirOp, FAM famOp, DRAM
// dramOp, and the link-layer pools must all recycle, and the home read
// lands in the dirOp's own buffer. What is left escapes by design: the
// caller's future and data copy, and for each of the miss's two
// protocol requests (the read, and the eviction notice for the
// capacity-8 client's victim) the request packet, its txn future, and
// one decoded object at each end, payload inline. The ceiling of 10 per
// miss is that floor; the per-request closures before the diet cost
// ~75.
func TestDirectoryReadMissAllocCeiling(t *testing.T) {
	eng := sim.NewEngine()
	bd := fabric.NewBuilder(eng)
	sw := bd.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	ha, _ := bd.AttachEndpoint(sw, "h", fabric.RoleHost, link.DefaultConfig())
	h := host.New(eng, "h", host.DefaultConfig(), ha)
	fa, _ := bd.AttachEndpoint(sw, "f", fabric.RoleFAM, link.DefaultConfig())
	fam := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<30))
	dir := NewDirectory(eng, fam)
	if err := bd.Discover(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClientConfig()
	cfg.CapacityLines = 8 // force misses and steady eviction traffic
	cl := NewClient(eng, h, dir.ID(), cfg)

	addr := uint64(0)
	next := func() uint64 {
		addr += 64
		return addr % (10000 * 64)
	}

	// Warm every pool on the path, including the eviction/writeback ops
	// the capacity-8 client generates once it fills.
	for round := 0; round < 8; round++ {
		for i := 0; i < 64; i++ {
			cl.Read(next())
		}
		eng.Run()
	}

	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			cl.Read(next())
		}
		eng.Run()
	})
	perOp := n / 16
	t.Logf("read miss: %.2f allocs per miss", perOp)
	if perOp > 10 {
		t.Fatalf("read miss allocates %.2f per miss in steady state, want <= 10", perOp)
	}
}
