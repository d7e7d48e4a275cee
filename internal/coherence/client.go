package coherence

import (
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/host"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// mesi is the client-side line state.
type mesi uint8

const (
	stI mesi = iota
	stS
	stE
	stM
)

// ClientConfig sizes the per-node coherent store.
type ClientConfig struct {
	// CapacityLines bounds the client's coherent cache / attraction
	// memory, in 64B lines.
	CapacityLines int
	// HitLat is the local hit latency. A small FHA-side coherent cache
	// (CXL.cache style) hits in tens of ns; a COMA attraction memory is
	// DRAM and hits at local-DRAM latency.
	HitLat sim.Time
	// AdapterLat is the processing cost added to each protocol request
	// the client issues.
	AdapterLat sim.Time
	// RetryAttempts bounds protocol-request retries when the host
	// endpoint enforces a timeout (fault experiments). The directory is
	// duplicate-tolerant by construction — an owner re-requesting after
	// a lost grant is re-granted from home, a stale writeback is dropped
	// — so retrying a timed-out protocol request is always safe. Only
	// after the attempts are exhausted (a genuine partition) does the
	// client panic.
	RetryAttempts int
	// RetryBackoff is the first retry delay; it doubles per attempt.
	RetryBackoff sim.Time
}

// DefaultClientConfig is a CXL.cache-style small coherent cache.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		CapacityLines: 512,
		HitLat:        25 * sim.Nanosecond,
		AdapterLat:    50 * sim.Nanosecond,
		RetryAttempts: 4,
		RetryBackoff:  10 * sim.Microsecond,
	}
}

// COMAClientConfig is a cache-only attraction memory: DRAM-sized and
// DRAM-latency, so lines the node touches live locally afterwards.
//
// Simplification vs the DDM design: our home directory retains backing
// capacity for every line, so "last copy" relocation on eviction never
// triggers; the performance-visible property — data migrates and
// replicates to its users, and capacity is node-local DRAM — is
// preserved.
func COMAClientConfig() ClientConfig {
	return ClientConfig{
		CapacityLines: 1 << 18, // 16MB of 64B lines
		HitLat:        sim.FromNanos(98.1),
		AdapterLat:    50 * sim.Nanosecond,
	}
}

type clientLine struct {
	state mesi
	lru   uint64
	data  [64]byte
	next  *clientLine // free list
}

// lineOp kinds: what a queued per-line operation does once it holds the
// line lock.
const (
	opRead uint8 = iota
	opWrite
	opWBDirty // eviction writeback carrying dirty data
	opWBClean // dataless eviction notice for an E line
)

// lineOp carries one client operation (read, write, or eviction
// writeback) through the per-line lock, the optional hit latency, and
// the protocol round trip. The step callbacks are bound once at
// construction and the record recycles through a free list, so the
// steady-state miss path allocates no closures.
type lineOp struct {
	c     *Client
	addr  uint64 // line base
	kind  uint8
	off   uint64 // write offset within the line
	wdata []byte // write payload (caller's slice, held until commit)
	wb    [64]byte
	l     *clientLine
	rf    *sim.Future[[]byte]
	wf    *sim.Future[struct{}]
	req   *flit.Packet
	next  *lineOp

	run     func()
	hitStep func()
}

// Client is one node's participant in the directory protocol: a coherent
// cache (or attraction memory) plus the snoop responder, registered on
// the host's FHA endpoint.
type Client struct {
	eng  *sim.Engine
	h    *host.Host
	home flit.PortID
	cfg  ClientConfig

	lines map[uint64]*clientLine
	// wbPending holds dirty data of lines evicted but whose writeback
	// has not yet been acknowledged; snoops are answered from here so a
	// late writeback can never lose the newest data.
	wbPending map[uint64][64]byte
	tick      uint64
	// pending serializes client ops per line and against snoops. A
	// line's queue is made at its first contention and kept, as busy
	// keeps its keys.
	pending map[uint64]*sim.Queue[func()]
	busy    map[uint64]bool

	opFree   *lineOp
	lineFree *clientLine

	// prevInv/prevData continue the host's snoop dispatch chain: the
	// handlers that were registered before this client (clients of other
	// home directories on the same host), nil for the first client.
	prevInv  txn.Handler
	prevData txn.Handler

	// Metrics.
	Hits      sim.Counter
	Misses    sim.Counter
	Upgrades  sim.Counter // S->M requiring a directory round trip
	Evictions sim.Counter
	SnoopsIn  sim.Counter
}

// NewClient registers a coherence client for home on h's endpoint.
func NewClient(eng *sim.Engine, h *host.Host, home flit.PortID, cfg ClientConfig) *Client {
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * sim.Microsecond
	}
	c := &Client{
		eng: eng, h: h, home: home, cfg: cfg,
		lines:     make(map[uint64]*clientLine),
		wbPending: make(map[uint64][64]byte),
		pending:   make(map[uint64]*sim.Queue[func()]),
		busy:      make(map[uint64]bool),
	}
	// A host may cache lines from several homes (one Client per FAM
	// expander). Line addresses are device-local and collide across
	// homes, so each client answers only snoops sent by its own home
	// directory and delegates anything else to the previously registered
	// client — a dispatch chain rather than a clobbering overwrite.
	c.prevInv = h.Handler(flit.OpSnpInv)
	c.prevData = h.Handler(flit.OpSnpData)
	h.Handle(flit.OpSnpInv, c.dispatchSnoop)
	h.Handle(flit.OpSnpData, c.dispatchSnoop)
	return c
}

// dispatchSnoop routes a directory snoop to the client whose home sent
// it. Snoops carry the home device's port ID as Src (the directory
// issues them through the FAM's endpoint), which is exactly the home
// this client registered against.
func (c *Client) dispatchSnoop(req *flit.Packet, reply func(*flit.Packet)) {
	if req.Src == c.home {
		c.handleSnoop(req, reply)
		return
	}
	prev := c.prevInv
	if req.Op == flit.OpSnpData {
		prev = c.prevData
	}
	if prev == nil {
		// Sole registered client: answer regardless of home, preserving
		// single-directory behavior for tests that snoop synthetically.
		c.handleSnoop(req, reply)
		return
	}
	prev(req, reply)
}

// Host returns the underlying host.
func (c *Client) Host() *host.Host { return c.h }

func (c *Client) getOp() *lineOp {
	op := c.opFree
	if op == nil {
		op = &lineOp{c: c}
		op.run = func() { op.c.runOp(op) }
		op.hitStep = func() { op.c.finishHit(op) }
	} else {
		c.opFree = op.next
		op.next = nil
	}
	return op
}

func (c *Client) putOp(op *lineOp) {
	op.wdata, op.l, op.rf, op.wf, op.req = nil, nil, nil, nil, nil
	op.next = c.opFree
	c.opFree = op
}

func (c *Client) getLine() *clientLine {
	l := c.lineFree
	if l == nil {
		return &clientLine{}
	}
	c.lineFree = l.next
	l.next = nil
	return l
}

func (c *Client) putLine(l *clientLine) {
	l.next = c.lineFree
	c.lineFree = l
}

// acquireOp serializes per-line work; release runs the next queued op.
func (c *Client) acquireOp(op *lineOp) {
	if c.busy[op.addr] {
		q := c.pending[op.addr]
		if q == nil {
			q = new(sim.Queue[func()])
			c.pending[op.addr] = q
		}
		q.Push(op.run)
		return
	}
	op.run()
}

// runOp executes an operation that holds its line lock.
func (c *Client) runOp(op *lineOp) {
	c.busy[op.addr] = true
	switch op.kind {
	case opRead:
		if l, ok := c.lines[op.addr]; ok && l.state != stI {
			c.Hits.Inc()
			c.touch(l)
			op.l = l
			c.eng.After(c.cfg.HitLat, op.hitStep)
			return
		}
		c.Misses.Inc()
		c.protocol(op, flit.OpCacheRd, nil)
	case opWrite:
		if l, ok := c.lines[op.addr]; ok && (l.state == stM || l.state == stE) {
			c.Hits.Inc()
			l.state = stM
			c.touch(l)
			copy(l.data[op.off:], op.wdata)
			c.eng.After(c.cfg.HitLat, op.hitStep)
			return
		}
		if l, ok := c.lines[op.addr]; ok && l.state == stS {
			c.Upgrades.Inc()
		} else {
			c.Misses.Inc()
		}
		c.protocol(op, flit.OpCacheRdOwn, nil)
	case opWBDirty:
		c.protocol(op, flit.OpCacheWB, op.wb[:])
	case opWBClean:
		c.protocol(op, flit.OpCacheWB, nil)
	}
}

// release frees the line lock, recycles the op, and runs the next
// queued operation for the line, if any.
func (c *Client) release(op *lineOp) {
	addr := op.addr
	c.putOp(op)
	c.busy[addr] = false
	if q := c.pending[addr]; q != nil && q.Len() > 0 {
		q.Pop()()
	}
}

// finishHit completes a read or write that hit locally, after HitLat.
func (c *Client) finishHit(op *lineOp) {
	switch op.kind {
	case opRead:
		data := append([]byte(nil), op.l.data[:]...)
		rf := op.rf
		c.release(op)
		rf.Complete(data)
	case opWrite:
		wf := op.wf
		c.release(op)
		wf.Complete(struct{}{})
	}
}

// Read returns the 64B line at device address addr (line-aligned).
func (c *Client) Read(addr uint64) *sim.Future[[]byte] {
	f := sim.NewFuture[[]byte]()
	op := c.getOp()
	op.kind, op.addr, op.rf = opRead, addr&^63, f
	c.acquireOp(op)
	return f
}

// Write stores data (≤64B) into the line at addr, obtaining ownership
// first if needed.
func (c *Client) Write(addr uint64, data []byte) *sim.Future[struct{}] {
	base := addr &^ 63
	off := addr - base
	if off+uint64(len(data)) > 64 {
		panic("coherence: Write crosses a line")
	}
	f := sim.NewFuture[struct{}]()
	op := c.getOp()
	op.kind, op.addr, op.off, op.wdata, op.wf = opWrite, base, off, data, f
	c.acquireOp(op)
	return f
}

// ReadP / WriteP are the blocking forms.
func (c *Client) ReadP(p *sim.Proc, addr uint64) []byte { return c.Read(addr).MustAwait(p) }

// WriteP blocks until the write commits with ownership.
func (c *Client) WriteP(p *sim.Proc, addr uint64, data []byte) { c.Write(addr, data).MustAwait(p) }

// Read64P reads a uint64 coherently.
func (c *Client) Read64P(p *sim.Proc, addr uint64) uint64 {
	b := c.ReadP(p, addr)
	off := addr & 63
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[off+uint64(i)])
	}
	return v
}

// Write64P writes a uint64 coherently.
func (c *Client) Write64P(p *sim.Proc, addr uint64, v uint64) {
	b := [8]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)}
	c.WriteP(p, addr, b[:])
}

// protocol issues one coherent request to the home directory on behalf
// of op; the grant lands in granted through clientGranted.
func (c *Client) protocol(op *lineOp, pop flit.Op, data []byte) {
	req := &flit.Packet{Chan: flit.ChCache, Op: pop, Dst: c.home, Addr: op.addr}
	if data != nil {
		req.Size = uint32(len(data))
		req.Data = append([]byte(nil), data...)
	}
	op.req = req
	c.eng.After2(c.cfg.AdapterLat, clientSendFire, op)
}

func clientSendFire(a any) {
	op := a.(*lineOp)
	req := op.req
	op.req = nil
	c := op.c
	// Bounded retry rides out link-fault windows on hosts whose endpoint
	// enforces a timeout (fault experiments).
	c.h.Endpoint().RequestFn(req, c.cfg.RetryAttempts, c.cfg.RetryBackoff, clientGranted, op)
}

// clientGranted is the completion of op's protocol request.
func clientGranted(a any, resp *flit.Packet, err error) {
	if err != nil {
		panic("coherence: protocol request failed: " + err.Error())
	}
	op := a.(*lineOp)
	op.c.granted(op, resp.ReqLen, resp.Data)
}

// granted applies a directory response to the op that requested it.
func (c *Client) granted(op *lineOp, grant uint32, data []byte) {
	switch op.kind {
	case opRead:
		st := stS
		if grant == grantExclusive {
			st = stE
		}
		l := c.install(op.addr, data, st)
		out := append([]byte(nil), l.data[:]...)
		rf := op.rf
		c.release(op)
		rf.Complete(out)
	case opWrite:
		if grant != grantModified {
			panic(fmt.Sprintf("coherence: RdOwn granted %d", grant))
		}
		l := c.install(op.addr, data, stM)
		copy(l.data[op.off:], op.wdata)
		wf := op.wf
		c.release(op)
		wf.Complete(struct{}{})
	case opWBDirty:
		delete(c.wbPending, op.addr)
		c.release(op)
	case opWBClean:
		c.release(op)
	}
}

func (c *Client) touch(l *clientLine) {
	c.tick++
	l.lru = c.tick
}

// install places a line, evicting LRU if at capacity. Evicted M lines
// write back; E lines send a dataless eviction notice; S lines leave
// silently.
func (c *Client) install(addr uint64, data []byte, st mesi) *clientLine {
	if l, ok := c.lines[addr]; ok {
		l.state = st
		copy(l.data[:], data)
		c.touch(l)
		return l
	}
	if len(c.lines) >= c.cfg.CapacityLines {
		c.evictLRU()
	}
	l := c.getLine()
	l.state = st
	copy(l.data[:], data)
	c.lines[addr] = l
	c.touch(l)
	return l
}

func (c *Client) evictLRU() {
	var victim uint64
	var vl *clientLine
	oldest := ^uint64(0)
	for a, l := range c.lines {
		if l.lru < oldest && !c.busy[a] {
			victim, vl, oldest = a, l, l.lru
		}
	}
	if vl == nil {
		return // everything busy; allow temporary overcommit
	}
	c.Evictions.Inc()
	delete(c.lines, victim)
	switch vl.state {
	case stM:
		c.wbPending[victim] = vl.data
		// The per-line lock is held for the writeback's duration, so a
		// re-request of this line waits until the directory has
		// processed the eviction.
		op := c.getOp()
		op.kind, op.addr, op.wb = opWBDirty, victim, vl.data
		c.putLine(vl)
		c.acquireOp(op)
	case stE:
		op := c.getOp()
		op.kind, op.addr = opWBClean, victim
		c.putLine(vl)
		c.acquireOp(op)
	default:
		c.putLine(vl)
	}
}

// handleSnoop answers directory snoops against the local cache.
func (c *Client) handleSnoop(req *flit.Packet, reply func(*flit.Packet)) {
	c.SnoopsIn.Inc()
	addr := req.Addr &^ 63
	l, ok := c.lines[addr]
	respond := func(data []byte) {
		resp := req.Response(flit.OpSnpResp, uint32(len(data)))
		resp.Data = append([]byte(nil), data...)
		c.eng.After(c.cfg.AdapterLat, func() { reply(resp) })
	}
	if !ok || l.state == stI {
		// A line evicted with its writeback still in flight is answered
		// from the writeback buffer (the directory drops the late
		// writeback's stale home update).
		if wb, inFlight := c.wbPending[addr]; inFlight {
			respond(wb[:])
			return
		}
		respond(nil)
		return
	}
	switch req.Op {
	case flit.OpSnpInv:
		dirty := l.state == stM
		data := l.data
		delete(c.lines, addr)
		// A busy line may still be referenced by an in-flight hit (op.l),
		// so only recycle when the per-line lock is free.
		if !c.busy[addr] {
			c.putLine(l)
		}
		if dirty {
			respond(data[:])
			return
		}
		respond(nil)
	case flit.OpSnpData:
		dirty := l.state == stM
		l.state = stS
		if dirty {
			respond(l.data[:])
			return
		}
		respond(nil)
	default:
		panic("coherence: unexpected snoop " + req.Op.String())
	}
}
