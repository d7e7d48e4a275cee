package host

import (
	"errors"
	"fmt"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// Config describes the host microarchitecture. The defaults are
// calibrated against the paper's Table 2 (Omega Fabric testbed).
type Config struct {
	L1 CacheConfig
	L2 CacheConfig
	// IssueWidth bounds concurrent cache accesses in the core pipeline
	// (hit throughput = IssueWidth / hit latency).
	IssueWidth int
	// MSHRs bounds outstanding misses — the memory-level parallelism
	// that, per Difference #1, caps the remote throughput a core can
	// drive (throughput = MSHRs / remote latency).
	MSHRs int
	// VictimBufEntries bounds in-flight dirty writebacks; a full victim
	// buffer stalls fills that evict dirty lines, so streaming stores
	// bind on writeback drain rate.
	VictimBufEntries int
	// StoreCommit is the extra commit time after a store's fill.
	StoreCommit sim.Time
	// FHALat is the fabric host adapter processing time per crossing.
	FHALat sim.Time
	// LocalMemSize is the capacity of the host's DIMMs, mapped at
	// physical address 0.
	LocalMemSize uint64
	// DRAM is the local DIMM timing.
	DRAM mem.DRAMConfig
	// PrefetchDepth enables the next-line/stride prefetcher: on each
	// demand miss it fetches up to this many predicted lines using
	// spare MSHRs. 0 disables prefetch.
	PrefetchDepth int
}

// DefaultConfig returns the Table 2 calibration: L1 32KB/8-way at 5.4ns,
// L2 1MB/16-way at +8.2ns (13.6ns total), local DIMM at 111.7ns, and an
// FHA whose 317.9ns per-crossing cost lands remote reads at 1575ns.
func DefaultConfig() Config {
	return Config{
		L1:               CacheConfig{Size: 32 << 10, Ways: 8, ReadLat: sim.FromNanos(5.4), WriteLat: sim.FromNanos(5.4)},
		L2:               CacheConfig{Size: 1 << 20, Ways: 16, ReadLat: sim.FromNanos(8.2), WriteLat: sim.FromNanos(7.1)},
		IssueWidth:       2,
		MSHRs:            4,
		VictimBufEntries: 4,
		StoreCommit:      sim.FromNanos(8.7),
		FHALat:           sim.FromNanos(317.9),
		LocalMemSize:     256 << 20,
		DRAM: mem.DRAMConfig{
			ReadLat:  sim.FromNanos(98.1),
			WriteLat: sim.FromNanos(100.3),
			ReadOcc:  sim.FromNanos(34.0),
			WriteOcc: sim.FromNanos(59.2),
			Banks:    1,
		},
	}
}

// accessDone receives the L1 line once an access commits, with missed
// reporting whether the access went all the way to memory, or a nil
// line and the typed error of the fill that failed.
type accessDone func(l *line, missed bool, err error)

// mshrWaiter is one access merged into an outstanding fill.
type mshrWaiter struct {
	write bool
	done  accessDone
}

// mshr tracks one outstanding line fill and its merged waiters. It is
// recycled through the host free list with its remote request packet
// embedded, and its remote fill completes through txn's completion
// form, so a full miss allocates nothing on the host side.
type mshr struct {
	h        *Host
	lineAddr uint64
	pref     bool // issued by the prefetcher
	waiters  []mshrWaiter
	buf      [LineSize]byte
	ev       victim
	req      flit.Packet // the remote fill's request; txn's until the fill resolves
	resp     *flit.Packet
	next     *mshr

	dramDone  func()
	vbGranted func()
}

// Host is one host server: core, caches, local memory, and FHA.
type Host struct {
	eng  *sim.Engine
	name string
	cfg  Config

	l1, l2 *cache
	amap   *AddrMap
	dram   *mem.DRAM
	ep     *txn.Endpoint

	issue   *sim.Semaphore
	mshrSem *sim.Semaphore
	// mshrs holds the outstanding fills. The population is bounded by
	// the MSHR count (plus prefetches), so a linear scan over a small
	// slice beats map hashing on every miss.
	mshrs    []*mshr
	mshrFree *mshr
	accFree  *accessOp
	loadFree *loadOp
	stFree   *storeOp
	vb       *victimBuffer

	handlers map[flit.Op]txn.Handler

	lastMissLine uint64
	lastStride   int64

	// Metrics.
	Loads        sim.Counter
	Stores       sim.Counter
	RemoteReads  sim.Counter
	RemoteWrites sim.Counter
	Writebacks   sim.Counter
	PrefIssued   sim.Counter
	PrefUseful   sim.Counter
	MSHRMerges   sim.Counter // misses merged into an in-flight fill
}

// RegisterStats attaches the host's core/cache/MSHR metrics (and its
// FHA endpoint, when fabric-attached) to a stats registry.
func (h *Host) RegisterStats(s *sim.Stats) {
	s.Register("loads", &h.Loads)
	s.Register("stores", &h.Stores)
	s.Register("remote_reads", &h.RemoteReads)
	s.Register("remote_writes", &h.RemoteWrites)
	s.Register("writebacks", &h.Writebacks)
	s.Register("pref_issued", &h.PrefIssued)
	s.Register("pref_useful", &h.PrefUseful)
	s.Register("mshr_merges", &h.MSHRMerges)
	s.Gauge("mshrs_in_use", func() int64 { return int64(h.mshrSem.InUse()) })
	s.Gauge("victim_buf_in_use", func() int64 { return int64(h.vb.sem.InUse()) })
	l1 := s.Child("l1")
	l1.Register("hits", &h.l1.hits)
	l1.Register("misses", &h.l1.misses)
	l2 := s.Child("l2")
	l2.Register("hits", &h.l2.hits)
	l2.Register("misses", &h.l2.misses)
	h.dram.RegisterStats(s.Child("dram"))
	if h.ep != nil {
		h.ep.RegisterStats(s.Child("fha"))
	}
}

// New builds a host. att may be nil for a fabric-less host (local memory
// only); otherwise the host's FHA endpoint attaches to att's port.
func New(eng *sim.Engine, name string, cfg Config, att *fabric.Attachment) *Host {
	h := &Host{
		eng:      eng,
		name:     name,
		cfg:      cfg,
		l1:       newCache(cfg.L1),
		l2:       newCache(cfg.L2),
		amap:     NewAddrMap(),
		dram:     mem.NewDRAM(eng, cfg.DRAM, cfg.LocalMemSize),
		issue:    sim.NewSemaphore(cfg.IssueWidth),
		mshrSem:  sim.NewSemaphore(cfg.MSHRs),
		vb:       newVictimBuffer(cfg.VictimBufEntries),
		handlers: make(map[flit.Op]txn.Handler),
	}
	if err := h.amap.Add(Region{Name: "local", Base: 0, Size: cfg.LocalMemSize, Local: true}); err != nil {
		panic(err)
	}
	if att != nil {
		h.ep = txn.NewEndpoint(eng, att.ID, att.Port, txn.DefaultMaxTags)
		h.ep.Handler = h.dispatch
		att.Port.SetSink(h.ep)
	}
	return h
}

// Name reports the host name.
func (h *Host) Name() string { return h.name }

// ID reports the host's fabric port ID (panics if fabric-less).
func (h *Host) ID() flit.PortID { return h.ep.ID() }

// Endpoint exposes the FHA transaction endpoint.
func (h *Host) Endpoint() *txn.Endpoint { return h.ep }

// AddrMap exposes the host's physical memory map.
func (h *Host) AddrMap() *AddrMap { return h.amap }

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// MapRemote maps size bytes of device devPort (starting at devBase) at
// host physical address base.
func (h *Host) MapRemote(name string, base, size uint64, devPort flit.PortID, devBase uint64) error {
	return h.amap.Add(Region{Name: name, Base: base, Size: size, Port: devPort, DevBase: devBase})
}

// Handle registers a handler for inbound fabric requests with opcode op
// (snoops from coherence directories, task shipping, migration control).
func (h *Host) Handle(op flit.Op, fn txn.Handler) { h.handlers[op] = fn }

// Handler returns the currently registered handler for op (nil when
// none). Services that multiplex one opcode — a host caching lines from
// several coherence directories, say — capture it to chain dispatch
// instead of silently clobbering the previous registration.
func (h *Host) Handler(op flit.Op) txn.Handler { return h.handlers[op] }

func (h *Host) dispatch(req *flit.Packet, reply func(*flit.Packet)) {
	if fn, ok := h.handlers[req.Op]; ok {
		fn(req, reply)
		return
	}
	panic(fmt.Sprintf("host %s: no handler for inbound %v", h.name, req))
}

// victimBuffer holds dirty evicted lines awaiting writeback. Fills that
// evict dirty lines must obtain a slot, so a saturated writeback path
// backpressures the core.
type victimBuffer struct {
	sem  *sim.Semaphore
	data map[uint64][LineSize]byte
}

func newVictimBuffer(entries int) *victimBuffer {
	return &victimBuffer{sem: sim.NewSemaphore(entries), data: make(map[uint64][LineSize]byte)}
}

// ---- core access path ----

// accessOp carries one cached access through the issue/L1/L2 pipeline.
// The step callbacks are bound to the op once at construction and the op
// is recycled through the host free list, so hits and merged misses
// allocate nothing.
type accessOp struct {
	h        *Host
	lineAddr uint64
	write    bool
	l1Lat    sim.Time
	l2Lat    sim.Time
	done     accessDone
	buf      [LineSize]byte
	next     *accessOp

	granted func()
	l1Step  func()
	l2Step  func()
	mshrGot func()
	vbDone  func(l *line)
}

func (h *Host) getAccessOp() *accessOp {
	op := h.accFree
	if op == nil {
		op = &accessOp{h: h}
		op.granted = func() { op.h.eng.After(op.l1Lat, op.l1Step) }
		op.l1Step = op.lookupL1
		op.l2Step = op.lookupL2
		op.mshrGot = op.startFill
		op.vbDone = op.vbInstalled
	} else {
		h.accFree = op.next
		op.next = nil
	}
	return op
}

func (h *Host) putAccessOp(op *accessOp) {
	op.done = nil
	op.next = h.accFree
	h.accFree = op
}

// access performs one cached load or store of the line containing addr.
// done receives the L1 line after the access commits; missed reports
// whether the access went all the way to memory (stores pay their
// commit cost only on that path). A failed fill hands done its error.
func (h *Host) access(addr uint64, write bool, done accessDone) {
	lineAddr := addr & LineMask
	if write {
		h.Stores.Inc()
	} else {
		h.Loads.Inc()
	}
	op := h.getAccessOp()
	op.lineAddr, op.write, op.done = lineAddr, write, done
	if write {
		op.l1Lat, op.l2Lat = h.cfg.L1.WriteLat, h.cfg.L2.WriteLat
	} else {
		op.l1Lat, op.l2Lat = h.cfg.L1.ReadLat, h.cfg.L2.ReadLat
	}
	h.issue.Acquire(op.granted)
}

func (op *accessOp) lookupL1() {
	h := op.h
	if l := h.l1.lookup(op.lineAddr); l != nil {
		if l.pref {
			l.pref = false
			h.PrefUseful.Inc()
		}
		if op.write {
			l.dirty = true
		}
		done := op.done
		h.putAccessOp(op)
		h.issue.Release()
		done(l, false, nil)
		return
	}
	h.eng.After(op.l2Lat, op.l2Step)
}

func (op *accessOp) lookupL2() {
	h := op.h
	lineAddr := op.lineAddr
	if l2l := h.l2.lookup(lineAddr); l2l != nil {
		if l2l.pref {
			l2l.pref = false
			h.PrefUseful.Inc()
		}
		// Fill L1 from L2; L2 keeps its copy clean relative to L1
		// (dirtiness migrates up with the data).
		l := h.fillL1(lineAddr, &l2l.data, l2l.dirty)
		l2l.dirty = false
		if op.write {
			l.dirty = true
		}
		done := op.done
		h.putAccessOp(op)
		h.issue.Release()
		done(l, false, nil)
		return
	}
	// Full miss. Victim-buffer forwarding: the line may be in flight to
	// memory.
	if vbData, ok := h.vb.data[lineAddr]; ok {
		op.buf = vbData
		h.installLine(lineAddr, &op.buf, op.vbDone)
		return
	}
	h.missToMemory(op)
}

func (op *accessOp) vbInstalled(l *line) {
	h := op.h
	if op.write {
		l.dirty = true
	}
	done := op.done
	h.putAccessOp(op)
	h.issue.Release()
	done(l, false, nil)
}

// startFill runs with an MSHR slot held: registers the fill and kicks
// off the fetch.
func (op *accessOp) startFill() {
	h := op.h
	m := h.getMSHR()
	m.lineAddr = op.lineAddr
	m.pref = false
	m.waiters = append(m.waiters[:0], mshrWaiter{write: op.write, done: op.done})
	h.mshrs = append(h.mshrs, m)
	h.putAccessOp(op)
	h.issue.Release()
	h.prefetchAfterMiss(m.lineAddr)
	h.fetchLine(m)
}

// findMSHR scans the (small, MSHR-bounded) outstanding-fill list.
func (h *Host) findMSHR(lineAddr uint64) *mshr {
	for _, m := range h.mshrs {
		if m.lineAddr == lineAddr {
			return m
		}
	}
	return nil
}

func (h *Host) removeMSHR(m *mshr) {
	for i, x := range h.mshrs {
		if x == m {
			last := len(h.mshrs) - 1
			h.mshrs[i] = h.mshrs[last]
			h.mshrs[last] = nil
			h.mshrs = h.mshrs[:last]
			return
		}
	}
}

func (h *Host) getMSHR() *mshr {
	m := h.mshrFree
	if m == nil {
		m = &mshr{h: h}
		m.dramDone = m.install
		m.vbGranted = func() {
			h := m.h
			h.vb.data[m.ev.addr] = m.ev.data
			h.writeback(m.ev.addr, m.ev.data)
			m.fillDone()
		}
	} else {
		h.mshrFree = m.next
		m.next = nil
	}
	return m
}

func (h *Host) putMSHR(m *mshr) {
	m.waiters = m.waiters[:0]
	m.resp = nil
	m.next = h.mshrFree
	h.mshrFree = m
}

// missToMemory handles an L2 miss: MSHR allocation/merge, the memory or
// fabric fetch, fill, and waiter wakeup.
func (h *Host) missToMemory(op *accessOp) {
	if m := h.findMSHR(op.lineAddr); m != nil {
		// Merge with the outstanding fill.
		h.MSHRMerges.Inc()
		m.waiters = append(m.waiters, mshrWaiter{write: op.write, done: op.done})
		h.putAccessOp(op)
		h.issue.Release()
		return
	}
	// The issue slot is held while waiting for an MSHR: a full miss
	// queue stalls the pipeline.
	h.mshrSem.Acquire(op.mshrGot)
}

// fetchLine reads one line from local DRAM or a remote device into the
// MSHR's line buffer, then installs it.
func (h *Host) fetchLine(m *mshr) {
	r := h.amap.MustLookup(m.lineAddr)
	if r.Local {
		h.dram.Read(m.lineAddr, m.buf[:], m.dramDone)
		return
	}
	h.RemoteReads.Inc()
	m.req = flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: r.Port,
		Addr: r.DevAddr(m.lineAddr), ReqLen: LineSize}
	h.eng.After2(h.cfg.FHALat, mshrSend, m)
}

// mshrSend sends m's remote fill once the FHA has processed it.
func mshrSend(a any) {
	m := a.(*mshr)
	m.h.ep.RequestFn(&m.req, 0, 0, mshrFilled, m)
}

// mshrFilled brings the fill's response back through the FHA, or fails
// the fill with the request's typed error.
func mshrFilled(a any, resp *flit.Packet, err error) {
	m := a.(*mshr)
	if err != nil {
		m.fail(err)
		return
	}
	m.resp = resp
	m.h.eng.After2(m.h.cfg.FHALat, mshrArrived, m)
}

func mshrArrived(a any) {
	m := a.(*mshr)
	copy(m.buf[:], m.resp.Data)
	m.resp = nil
	m.install()
}

// install inserts the fetched line into L2, draining any dirty victim
// through the victim buffer, then completes the fill.
func (m *mshr) install() {
	h := m.h
	ev, has := h.l2.insert(m.lineAddr, &m.buf, false)
	if has {
		// A dirty L2 victim needs a victim-buffer slot before the fill
		// can complete; this is where streaming stores feel writeback
		// backpressure.
		m.ev = ev
		h.vb.sem.Acquire(m.vbGranted)
		return
	}
	m.fillDone()
}

// fillDone fills L1, retires the MSHR, and wakes the merged waiters.
func (m *mshr) fillDone() {
	h := m.h
	l := h.fillL1(m.lineAddr, &m.buf, false)
	if m.pref {
		l.pref = true
	}
	waiters := m.waiters
	h.removeMSHR(m)
	h.mshrSem.Release()
	for i := range waiters {
		w := &waiters[i]
		if w.write {
			l.dirty = true
		}
		w.done(l, true, nil)
	}
	h.putMSHR(m)
}

// fail ends a fill whose request failed: the MSHR frees its slot,
// installs nothing, and fails every merged waiter with err. A prefetch
// nothing merged into just frees its slot.
func (m *mshr) fail(err error) {
	h := m.h
	waiters := m.waiters
	h.removeMSHR(m)
	h.mshrSem.Release()
	for i := range waiters {
		waiters[i].done(nil, true, err)
	}
	h.putMSHR(m)
}

// installLine inserts a fetched line into L2 then L1, draining dirty
// victims through the victim buffer. done receives the L1 line.
func (h *Host) installLine(lineAddr uint64, data *[LineSize]byte, done func(l *line)) {
	finish := func() {
		l := h.fillL1(lineAddr, data, false)
		done(l)
	}
	ev, has := h.l2.insert(lineAddr, data, false)
	if has {
		// A dirty L2 victim needs a victim-buffer slot before the fill
		// can complete; this is where streaming stores feel writeback
		// backpressure.
		h.vb.sem.Acquire(func() {
			h.vb.data[ev.addr] = ev.data
			h.writeback(ev.addr, ev.data)
			finish()
		})
		return
	}
	finish()
}

// fillL1 inserts into L1, spilling any dirty L1 victim into L2.
func (h *Host) fillL1(lineAddr uint64, data *[LineSize]byte, dirty bool) *line {
	ev, has := h.l1.insert(lineAddr, data, dirty)
	if has {
		ev2, has2 := h.l2.insert(ev.addr, &ev.data, true)
		if has2 {
			h.vb.sem.Acquire(func() {
				h.vb.data[ev2.addr] = ev2.data
				h.writeback(ev2.addr, ev2.data)
			})
		}
	}
	return h.l1.peek(lineAddr)
}

// writeback sends one dirty line to its home (local DRAM or remote FAM)
// and frees the victim-buffer slot on completion.
func (h *Host) writeback(lineAddr uint64, data [LineSize]byte) {
	h.Writebacks.Inc()
	release := func() {
		delete(h.vb.data, lineAddr)
		h.vb.sem.Release()
	}
	r := h.amap.MustLookup(lineAddr)
	if r.Local {
		h.dram.Write(lineAddr, data[:], release)
		return
	}
	h.RemoteWrites.Inc()
	req := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: r.Port,
		Addr: r.DevAddr(lineAddr), Size: LineSize, Data: append([]byte(nil), data[:]...)}
	h.eng.After(h.cfg.FHALat, func() {
		h.ep.Request(req).OnComplete(func(_ *flit.Packet, err error) {
			if errors.Is(err, txn.ErrRefused) {
				panic(fmt.Sprintf("host %s: writeback of %#x poisoned", h.name, lineAddr))
			}
			release()
		})
	})
}

// prefetchAfterMiss predicts and fetches future lines using spare MSHRs.
func (h *Host) prefetchAfterMiss(lineAddr uint64) {
	if h.cfg.PrefetchDepth <= 0 {
		return
	}
	stride := int64(LineSize)
	if h.lastMissLine != 0 {
		d := int64(lineAddr) - int64(h.lastMissLine)
		if d != 0 && d == h.lastStride {
			stride = d
		}
		h.lastStride = d
	}
	h.lastMissLine = lineAddr
	for i := 1; i <= h.cfg.PrefetchDepth; i++ {
		target := uint64(int64(lineAddr) + stride*int64(i))
		if h.amap.Lookup(target) == nil {
			return
		}
		if h.l1.peek(target) != nil || h.l2.peek(target) != nil {
			continue
		}
		if h.findMSHR(target) != nil {
			continue
		}
		if !h.mshrSem.TryAcquire() {
			return // demand misses keep priority on MSHRs
		}
		m := h.getMSHR()
		m.lineAddr = target
		m.pref = true
		m.waiters = m.waiters[:0]
		h.mshrs = append(h.mshrs, m)
		h.PrefIssued.Inc()
		h.fetchLine(m)
	}
}
