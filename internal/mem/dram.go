package mem

//fcclint:hotpath per-access op records must stay pooled (PR 5)

import (
	"fcc/internal/sim"
)

// DRAMConfig is the timing model of one memory module: fixed access
// latency plus a per-access data-bus occupancy that bounds throughput.
// Latencies calibrate to the paper's Table 2 (local DIMM: 111.7ns read,
// 119.3ns write at the CPU; the DRAM-only portion here excludes the
// cache lookups spent before the request escapes the core).
type DRAMConfig struct {
	ReadLat  sim.Time // access latency per read
	WriteLat sim.Time // access latency per write
	ReadOcc  sim.Time // data-bus occupancy per 64B read (throughput bound)
	WriteOcc sim.Time // data-bus occupancy per 64B write
	Banks    int      // independent banks (parallel occupancy pipes)
}

// DefaultDRAM matches the Omega testbed's local DIMM as measured by
// Table 2: 29.4 MOPS reads (34ns/64B) and 16.9 MOPS writes (59ns/64B).
func DefaultDRAM() DRAMConfig {
	return DRAMConfig{
		ReadLat:  sim.FromNanos(92.7),
		WriteLat: sim.FromNanos(100.3),
		ReadOcc:  sim.FromNanos(34.0),
		WriteOcc: sim.FromNanos(59.2),
		Banks:    1,
	}
}

// DRAM is an instantiated module: timing plus backing bytes. Each bank
// has independent read and write bus slots (as in DDR with separate
// RD/WR scheduling), so streaming writebacks bind on write occupancy
// while demand fills continue on the read path.
type DRAM struct {
	eng   *sim.Engine
	cfg   DRAMConfig
	store *Store
	rd    []*sim.Pipe
	wr    []*sim.Pipe

	// opFree recycles the completion records for reads, so the access
	// hot path schedules its finish event closure-free.
	opFree *dramOp

	Reads  sim.Counter
	Writes sim.Counter
}

// dramOp carries one read through its latency event.
type dramOp struct {
	d    *DRAM
	addr uint64
	dst  []byte
	done func()
	next *dramOp
}

func (d *DRAM) getOp() *dramOp {
	op := d.opFree
	if op == nil {
		op = &dramOp{d: d}
	} else {
		d.opFree = op.next
		op.next = nil
	}
	return op
}

func dramReadFire(a any) {
	op := a.(*dramOp)
	d := op.d
	d.store.Read(op.addr, op.dst)
	done := op.done
	op.dst, op.done = nil, nil
	op.next = d.opFree
	d.opFree = op
	done()
}

// NewDRAM builds a module of the given capacity.
func NewDRAM(eng *sim.Engine, cfg DRAMConfig, capacity uint64) *DRAM {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	d := &DRAM{eng: eng, cfg: cfg, store: NewStore(capacity)}
	for i := 0; i < cfg.Banks; i++ {
		d.rd = append(d.rd, sim.NewPipe(eng))
		d.wr = append(d.wr, sim.NewPipe(eng))
	}
	return d
}

// Store exposes the backing bytes (for direct initialization in tests).
func (d *DRAM) Store() *Store { return d.store }

// Capacity reports the module size.
func (d *DRAM) Capacity() uint64 { return d.store.Capacity() }

// bankIdx interleaves banks at cacheline granularity.
func (d *DRAM) bankIdx(addr uint64) int { return int((addr >> 6) % uint64(len(d.rd))) }

// occUnits reports how many 64B bus slots a transfer of n bytes takes.
func occUnits(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + 63) / 64
}

// Read fetches len(dst) bytes at addr into dst, a buffer the reader
// owns, and calls done once both the access latency has elapsed and the
// data bus has carried the transfer. The bytes are read from the store
// then, at completion, not at the call, so dst must stay the reader's
// until done runs.
func (d *DRAM) Read(addr uint64, dst []byte, done func()) {
	d.Reads.Inc()
	occ := sim.Time(occUnits(len(dst))) * d.cfg.ReadOcc
	bankFree := d.rd[d.bankIdx(addr)].Use(occ)
	finish := d.eng.Now() + d.cfg.ReadLat
	if bankFree > finish {
		finish = bankFree
	}
	op := d.getOp()
	op.addr, op.dst, op.done = addr, dst, done
	d.eng.At2(finish, dramReadFire, op)
}

// Write commits data at addr; done fires when the write is durable in
// the array.
func (d *DRAM) Write(addr uint64, data []byte, done func()) {
	d.Writes.Inc()
	occ := sim.Time(occUnits(len(data))) * d.cfg.WriteOcc
	bankFree := d.wr[d.bankIdx(addr)].Use(occ)
	finish := d.eng.Now() + d.cfg.WriteLat
	if bankFree > finish {
		finish = bankFree
	}
	// Commit the bytes immediately in model state (the timing applies to
	// the completion signal; simulated readers are ordered by events).
	d.store.Write(addr, data)
	if done != nil {
		d.eng.At(finish, done)
	}
}

// RegisterStats attaches the module's access counters to a registry.
func (d *DRAM) RegisterStats(s *sim.Stats) {
	s.Register("reads", &d.Reads)
	s.Register("writes", &d.Writes)
}
