package mem

//fcclint:hotpath request pipeline op records must stay pooled (PR 5)

import (
	"fmt"

	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// FAMConfig configures one fabric-attached memory chassis.
type FAMConfig struct {
	Capacity uint64
	DRAM     DRAMConfig
	// FEALat is the fabric-endpoint-adapter processing time charged in
	// each direction (request parse, integrity check, response build).
	// FPGA-based early adapters like the Omega testbed's are slow; this
	// constant dominates the 1.5us remote access of Table 2.
	FEALat sim.Time
	// FEAOccBase and FEAOccPerLine define the FEA's serialized ingest
	// service time per request: base + ceil(payload/64)*perLine. The FEA
	// is a single station shared by ALL channels, so deep bulk-write
	// queues delay small reads behind them — the incast interference
	// FCC's central arbiter exists to prevent.
	FEAOccBase    sim.Time
	FEAOccPerLine sim.Time
}

// DefaultFAMConfig matches the Omega testbed calibration.
func DefaultFAMConfig(capacity uint64) FAMConfig {
	return FAMConfig{
		Capacity:      capacity,
		DRAM:          DefaultDRAM(),
		FEALat:        310 * sim.Nanosecond,
		FEAOccBase:    20 * sim.Nanosecond,
		FEAOccPerLine: 55 * sim.Nanosecond,
	}
}

// partition is one host's slice of a shared expander.
type partition struct {
	owner flit.PortID
	base  uint64
	size  uint64
}

// FAM is a fabric-attached memory device, a CXL Type 3 expander: an
// FEA front end plus DRAM. It serves CXL.mem loads and stores and
// CXL.io bulk transfers.
//
// A FAM may be owned exclusively (no partitions registered — any
// requester may access everything, enforcement left to software) or
// shared with enforced partitions (§3, Difference #2: "the FEA needs to
// partition the capacity").
type FAM struct {
	eng  *sim.Engine
	name string
	cfg  FAMConfig
	dram *DRAM
	ep   *txn.Endpoint
	fea  *sim.Pipe // serialized FEA ingest station
	part []partition

	// OnAccess, when set, observes every served request (for traffic
	// matrices and migration profiling).
	OnAccess func(pkt *flit.Packet)

	// down power-fences the device: requests (and replies from work
	// already inside the FEA/DRAM pipeline — guarded by epoch) are
	// silently dropped, so initiators see only their own timeout, just
	// as on a real fabric. DRAM contents survive a fail/recover cycle:
	// the device is fenced, not wiped.
	down   bool
	epoch  int
	downAt sim.Time

	// opFree recycles the per-request pipeline records; their stage
	// callbacks are bound once at construction, so serving a request
	// allocates no closures.
	opFree *famOp

	Violations sim.Counter
	Dropped    sim.Counter // requests and replies lost to a down device
}

// NewFAM builds a FAM and registers it as the handler on att's port.
func NewFAM(eng *sim.Engine, att *fabric.Attachment, cfg FAMConfig) *FAM {
	f := &FAM{
		eng:  eng,
		name: att.Name,
		cfg:  cfg,
		dram: NewDRAM(eng, cfg.DRAM, cfg.Capacity),
		fea:  sim.NewPipe(eng),
	}
	f.ep = txn.NewEndpoint(eng, att.ID, att.Port, 0)
	f.ep.Handler = f.handle
	att.Port.SetSink(f.ep)
	return f
}

// ID reports the device's fabric port ID.
func (f *FAM) ID() flit.PortID { return f.ep.ID() }

// Name reports the chassis name.
func (f *FAM) Name() string { return f.name }

// Capacity reports the device capacity in bytes.
func (f *FAM) Capacity() uint64 { return f.cfg.Capacity }

// DRAM exposes the underlying module (tests and migration agents).
func (f *FAM) DRAM() *DRAM { return f.dram }

// Endpoint exposes the device's transaction endpoint (for co-resident
// agents such as migration executors).
func (f *FAM) Endpoint() *txn.Endpoint { return f.ep }

// Partition grants [base, base+size) exclusively to owner. Once any
// partition exists, accesses outside the requester's partitions are
// rejected with OpMemErr.
func (f *FAM) Partition(owner flit.PortID, base, size uint64) error {
	if base+size > f.cfg.Capacity {
		return fmt.Errorf("mem: partition [%#x,%#x) beyond capacity %#x", base, base+size, f.cfg.Capacity)
	}
	for _, p := range f.part {
		if base < p.base+p.size && p.base < base+size {
			return fmt.Errorf("mem: partition overlaps existing [%#x,%#x)", p.base, p.base+p.size)
		}
	}
	f.part = append(f.part, partition{owner: owner, base: base, size: size})
	return nil
}

// allowed checks partition enforcement for a request.
func (f *FAM) allowed(src flit.PortID, addr uint64, n uint32) bool {
	if len(f.part) == 0 {
		return true
	}
	end := addr + uint64(n)
	for _, p := range f.part {
		if p.owner == src && addr >= p.base && end <= p.base+p.size {
			return true
		}
	}
	return false
}

// famOp carries one request through the FEA/DRAM pipeline. Its stage
// callbacks are bound to the op once at construction and the op is
// recycled through the device free list, so the serve path allocates
// nothing: the request becomes its own response, and a read lands in
// the op's buf, which the response carries out. The epoch captured at
// arrival guards the reply: a device that died (or died and recovered)
// while the request was in flight answers nothing.
type famOp struct {
	f     *FAM
	req   *flit.Packet
	resp  *flit.Packet
	reply func(*flit.Packet)
	epoch int
	kind  uint8
	n     uint32
	data  []byte
	next  *famOp

	// buf is the op's read buffer, reused by every read the op serves:
	// reply sends the response at once, before finish recycles the op
	// (txn.Sender), so no response still points at it by then.
	buf []byte

	enter     func()
	stage1    func()
	stage2    func()
	replyStep func()
	dramDone  func()
}

const (
	famRd uint8 = iota
	famIORd
	famWr
	famIOWr
)

func (f *FAM) getOp() *famOp {
	op := f.opFree
	if op == nil {
		op = &famOp{f: f}
		op.enter = func() { op.f.serveOp(op) }
		op.stage1 = op.runStage1
		op.stage2 = op.runStage2
		op.replyStep = func() { op.finish(op.resp) }
		op.dramDone = func() { op.f.eng.After(op.f.cfg.FEALat, op.stage2) }
	} else {
		f.opFree = op.next
		op.next = nil
	}
	return op
}

func (op *famOp) runStage1() {
	f := op.f
	switch op.kind {
	case famRd, famIORd:
		if cap(op.buf) < int(op.n) {
			op.buf = make([]byte, op.n)
		}
		op.data = op.buf[:op.n]
		f.dram.Read(op.req.Addr, op.data, op.dramDone)
	case famWr, famIOWr:
		f.dram.Write(op.req.Addr, op.data, op.dramDone)
	}
}

func (op *famOp) runStage2() {
	req := op.req
	switch op.kind {
	case famRd:
		resp := req.Response(flit.OpMemRdData, op.n)
		resp.Data = op.data
		op.finish(resp)
	case famIORd:
		resp := req.Response(flit.OpIOData, op.n)
		resp.Data = op.data
		op.finish(resp)
	case famWr:
		op.finish(req.Response(flit.OpMemWrAck, 0))
	case famIOWr:
		op.finish(req.Response(flit.OpIOAck, 0))
	}
}

// finish delivers the response unless the device is (or has been) fenced
// since the request arrived, then recycles the op.
func (op *famOp) finish(resp *flit.Packet) {
	f := op.f
	if f.down || f.epoch != op.epoch {
		f.Dropped.Inc()
	} else {
		op.reply(resp)
	}
	op.req, op.resp, op.reply, op.data = nil, nil, nil, nil
	op.next = f.opFree
	f.opFree = op
}

func (f *FAM) handle(req *flit.Packet, reply func(*flit.Packet)) {
	if f.down {
		f.Dropped.Inc()
		return
	}
	op := f.getOp()
	op.req, op.reply, op.epoch = req, reply, f.epoch
	// Every request first passes the serialized FEA ingest station;
	// service time scales with inbound payload.
	occ := f.cfg.FEAOccBase + sim.Time((req.Size+63)/64)*f.cfg.FEAOccPerLine
	f.fea.Enter(occ, op.enter)
}

// Fail power-fences the device: every request from now until Recover —
// including replies for work already in the pipeline — is dropped.
func (f *FAM) Fail() {
	if f.down {
		return
	}
	f.down = true
	f.downAt = f.eng.Now()
	f.epoch++
}

// Recover lifts the fence. DRAM contents are retained.
func (f *FAM) Recover() { f.down = false }

// Down reports whether the device is fenced.
func (f *FAM) Down() bool { return f.down }

// FailedAt reports when the device last failed.
func (f *FAM) FailedAt() sim.Time { return f.downAt }

// FaultID implements fault.Injectable: the chassis name.
func (f *FAM) FaultID() string { return f.name }

// Supports reports that a FAM can fail as a device.
func (f *FAM) Supports(k fault.Kind) bool { return k == fault.DeviceFail }

// InjectFault implements fault.Injectable.
func (f *FAM) InjectFault(ft fault.Fault) error {
	if ft.Kind != fault.DeviceFail {
		return fmt.Errorf("mem: FAM %s does not support %v", f.name, ft.Kind)
	}
	f.Fail()
	return nil
}

// HealFault implements fault.Injectable.
func (f *FAM) HealFault(k fault.Kind) error {
	if k != fault.DeviceFail {
		return fmt.Errorf("mem: FAM %s does not support %v", f.name, k)
	}
	f.Recover()
	return nil
}

// deny schedules the partition-violation error response.
func (f *FAM) deny(op *famOp) {
	f.Violations.Inc()
	op.resp = op.req.Response(flit.OpMemErr, 0)
	f.eng.After(f.cfg.FEALat, op.replyStep)
}

func (f *FAM) serveOp(op *famOp) {
	req := op.req
	if f.OnAccess != nil {
		f.OnAccess(req)
	}
	fea := f.cfg.FEALat
	switch req.Op {
	case flit.OpMemRd:
		n := req.ReqLen
		if n == 0 {
			n = 64
		}
		if !f.allowed(req.Src, req.Addr, n) {
			f.deny(op)
			return
		}
		op.kind, op.n = famRd, n
		f.eng.After(fea, op.stage1)
	case flit.OpMemWr:
		if !f.allowed(req.Src, req.Addr, req.Size) {
			f.deny(op)
			return
		}
		op.data = req.Data
		if op.data == nil {
			op.data = make([]byte, req.Size)
		}
		op.kind = famWr
		f.eng.After(fea, op.stage1)
	case flit.OpIORd:
		n := req.ReqLen
		if !f.allowed(req.Src, req.Addr, n) {
			f.deny(op)
			return
		}
		op.kind, op.n = famIORd, n
		f.eng.After(fea, op.stage1)
	case flit.OpIOWr:
		if !f.allowed(req.Src, req.Addr, req.Size) {
			f.deny(op)
			return
		}
		op.data = req.Data
		if op.data == nil {
			op.data = make([]byte, req.Size)
		}
		op.kind = famIOWr
		f.eng.After(fea, op.stage1)
	default:
		panic(fmt.Sprintf("mem: FAM %s cannot serve %v", f.name, req))
	}
}

// Serve handles one request with the device's standard memory/IO
// semantics (including the FEA ingest station). Wrappers (e.g. a
// coherence directory living in the FEA) install their own endpoint
// handler and delegate non-coherent traffic here.
func (f *FAM) Serve(req *flit.Packet, reply func(*flit.Packet)) { f.handle(req, reply) }

// FEALat reports the adapter's per-direction processing latency.
func (f *FAM) FEALat() sim.Time { return f.cfg.FEALat }

// SetHandler replaces the device's endpoint handler (used by the
// coherence directory to intercept CXL.cache traffic).
func (f *FAM) SetHandler(h txn.Handler) { f.ep.Handler = h }

// RegisterStats attaches the FAM's FEA counters, its DRAM module, and
// its transaction endpoint to a stats registry.
func (f *FAM) RegisterStats(s *sim.Stats) {
	s.Register("violations", &f.Violations)
	s.Register("dropped", &f.Dropped)
	f.dram.RegisterStats(s.Child("dram"))
	f.ep.RegisterStats(s.Child("fea"))
}
