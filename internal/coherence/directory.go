// Package coherence implements the memory-node types the paper's
// Difference #2 enumerates, beyond the plain CPU-less expander:
//
//   - CC-NUMA: a cross-node, directory-based, write-invalidate MESI
//     protocol implemented in the FEA (Directory) and the FHA of each
//     participating host (Client) — the lineage of DASH/FLASH.
//   - Non-CC-NUMA: load/store access without hardware coherence; the
//     NCCClient offers software acquire/release barriers instead (the
//     SCC / Cell SPE model).
//   - COMA: cache-only attraction memory — realised as the same
//     directory protocol with a DRAM-sized, DRAM-latency attraction
//     memory per node, so data migrates/replicates to its users
//     (the DDM model; COMAConfig documents the simplification).
//
// All protocol traffic travels as real CXL.cache packets through the
// simulated fabric.
package coherence

//fcclint:hotpath directory lookup/snoop structures must stay dense (PR 5)

import (
	"fmt"
	"math/bits"

	"fcc/internal/flit"
	"fcc/internal/mem"
	"fcc/internal/sim"
)

// Grant codes carried in OpCacheResp.ReqLen.
const (
	grantShared    = 1
	grantExclusive = 2
	grantModified  = 3
)

// dirState is the directory's view of one line.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirExclusive // single owner, possibly dirty (E or M at the owner)
)

// portSet is a bitmask over fabric port IDs (12-bit, so at most 64
// words), grown to the highest member seen. Iteration walks set bits in
// ascending port order, so snoop fan-out derived from it is sorted by
// construction — the PR 3 maporder fix is structural now, not a sort
// call.
type portSet struct {
	words []uint64
	n     int
}

func (s *portSet) add(p flit.PortID) {
	w := int(p) >> 6
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	bit := uint64(1) << (p & 63)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

func (s *portSet) remove(p flit.PortID) {
	w := int(p) >> 6
	if w < len(s.words) {
		bit := uint64(1) << (p & 63)
		if s.words[w]&bit != 0 {
			s.words[w] &^= bit
			s.n--
		}
	}
}

// clear empties the set, keeping its storage for reuse.
func (s *portSet) clear() {
	clear(s.words)
	s.n = 0
}

// appendPorts appends the members to dst in ascending port order.
func (s *portSet) appendPorts(dst []flit.PortID) []flit.PortID {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, flit.PortID(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

type dirEntry struct {
	state   dirState
	owner   flit.PortID
	sharers portSet
	busy    bool
	queue   sim.Queue[func()]
}

// dirSlot is one open-addressed table slot; e == nil marks it empty.
type dirSlot struct {
	addr uint64
	e    *dirEntry
}

// Directory is the home-node coherence engine living in a FAM's FEA. It
// serializes protocol actions per line and uses the device's DRAM as the
// backing home memory. Non-coherent traffic passes through to the FAM.
type Directory struct {
	eng *sim.Engine
	fam *mem.FAM

	// The line table is open-addressed (power-of-two slots, linear
	// probing, grown at 3/4 load) instead of a Go map: the per-miss
	// lookup is one multiplicative hash and a short probe, with no map
	// header or bucket overhead. Entries are slab-allocated and never
	// freed: a line's entry persists once touched (exactly the original
	// map's behaviour), so probing needs no tombstones.
	slots   []dirSlot
	nlines  int
	entSlab []dirEntry

	// targetScratch is reused for snoop fan-out lists; invalidateAll
	// consumes the list synchronously, so one buffer suffices.
	targetScratch []flit.PortID

	// opFree recycles the per-action pipeline records; their step
	// callbacks are bound once, so the snoop-free protocol paths (plain
	// grants and writebacks) allocate nothing.
	opFree *dirOp

	// Metrics.
	ReadMisses  sim.Counter
	WriteMisses sim.Counter
	Snoops      sim.Counter
	Writebacks  sim.Counter
	Forwards    sim.Counter // dirty data supplied by a remote owner
}

// NewDirectory wraps fam with a coherence directory.
func NewDirectory(eng *sim.Engine, fam *mem.FAM) *Directory {
	d := &Directory{eng: eng, fam: fam, slots: make([]dirSlot, 64)}
	fam.SetHandler(d.handle)
	return d
}

// ID reports the home node's fabric port.
func (d *Directory) ID() flit.PortID { return d.fam.ID() }

func dirHash(addr uint64) uint64 {
	h := (addr >> 6) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

func (d *Directory) allocEntry() *dirEntry {
	if len(d.entSlab) == 0 {
		d.entSlab = make([]dirEntry, 64)
	}
	e := &d.entSlab[0]
	d.entSlab = d.entSlab[1:]
	return e
}

func (d *Directory) growTable() {
	old := d.slots
	d.slots = make([]dirSlot, 2*len(old))
	mask := uint64(len(d.slots) - 1)
	for _, s := range old {
		if s.e == nil {
			continue
		}
		i := dirHash(s.addr) & mask
		for d.slots[i].e != nil {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}

// lookup finds an existing entry, or nil.
func (d *Directory) lookup(addr uint64) *dirEntry {
	mask := uint64(len(d.slots) - 1)
	for i := dirHash(addr) & mask; ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.e == nil {
			return nil
		}
		if s.addr == addr {
			return s.e
		}
	}
}

// entry finds or inserts the entry for a line address.
func (d *Directory) entry(addr uint64) *dirEntry {
	mask := uint64(len(d.slots) - 1)
	i := dirHash(addr) & mask
	for d.slots[i].e != nil {
		if d.slots[i].addr == addr {
			return d.slots[i].e
		}
		i = (i + 1) & mask
	}
	if 4*(d.nlines+1) >= 3*len(d.slots) {
		d.growTable()
		mask = uint64(len(d.slots) - 1)
		i = dirHash(addr) & mask
		for d.slots[i].e != nil {
			i = (i + 1) & mask
		}
	}
	e := d.allocEntry()
	d.slots[i] = dirSlot{addr: addr, e: e}
	d.nlines++
	return e
}

// dirOp carries one serialized protocol action. Its step callbacks are
// bound once at construction and the record recycled, so the snoop-free
// paths — plain grants from home and writebacks, the overwhelming bulk
// of directory traffic — allocate nothing: the request becomes its own
// response, and a home read lands in the op's buf. The snoop-bearing
// branches keep closures: they are multi-branch and rare by comparison.
type dirOp struct {
	d          *Directory
	next       *dirOp
	e          *dirEntry
	addr       uint64
	req        *flit.Packet
	reply      func(*flit.Packet)
	grant      uint32
	data       []byte // the line the grant carries
	stillOwner bool

	// buf is the op's home read buffer, reused by every action the op
	// serves: replyUnlock sends the response at once, before it
	// recycles the op (txn.Sender), so no grant still points at it.
	buf [64]byte

	run      func()
	unlock   func(*flit.Packet)
	homeDone func()
	grantFn  func()
	wbStep   func()
	wbReply  func()
}

func (d *Directory) getOp() *dirOp {
	op := d.opFree
	if op == nil {
		op = &dirOp{d: d}
		op.run = func() {
			op.e.busy = true
			op.d.serve(op)
		}
		op.unlock = op.replyUnlock
		op.homeDone = op.grantLine
		op.grantFn = func() { op.unlock(grantResp(op.req, op.grant, op.data)) }
		op.wbStep = op.wbApply
		op.wbReply = func() { op.unlock(op.req.Response(flit.OpCacheResp, 0)) }
	} else {
		d.opFree = op.next
		op.next = nil
	}
	return op
}

// replyUnlock sends the response, releases the per-line serialization,
// runs the next queued action, and recycles the op.
func (op *dirOp) replyUnlock(resp *flit.Packet) {
	op.reply(resp)
	e := op.e
	e.busy = false
	if e.queue.Len() > 0 {
		e.queue.Pop()()
	}
	d := op.d
	op.e, op.req, op.reply, op.data = nil, nil, nil, nil
	op.next = d.opFree
	d.opFree = op
}

// grantLine applies the grant's directory mutation and schedules the
// response carrying op.data after the FEA delay. For grantShared the
// requester joins the sharer set; the exclusive and modified grants
// install the requester as owner (idempotent for an owner re-grant).
func (op *dirOp) grantLine() {
	e := op.e
	if op.grant == grantShared {
		e.sharers.add(op.req.Src)
	} else {
		e.state = dirExclusive
		e.owner = op.req.Src
	}
	op.d.eng.After(op.d.fam.FEALat(), op.grantFn)
}

// wbApply retires the writer's copy from the directory state.
func (op *dirOp) wbApply() {
	e := op.e
	if op.stillOwner {
		e.state = dirUncached
		e.owner = 0
	} else {
		e.sharers.remove(op.req.Src)
		if e.sharers.n == 0 && e.state == dirShared {
			e.state = dirUncached
		}
	}
	op.d.eng.After(op.d.fam.FEALat(), op.wbReply)
}

// handle dispatches device traffic: coherent ops to the protocol engine,
// everything else to the FAM.
func (d *Directory) handle(req *flit.Packet, reply func(*flit.Packet)) {
	switch req.Op {
	case flit.OpCacheRd, flit.OpCacheRdOwn, flit.OpCacheWB:
		addr := req.Addr &^ 63
		e := d.entry(addr)
		op := d.getOp()
		op.e, op.addr, op.req, op.reply = e, addr, req, reply
		if e.busy {
			e.queue.Push(op.run)
			return
		}
		op.run()
	default:
		d.fam.Serve(req, reply)
	}
}

// serve executes one serialized protocol action.
func (d *Directory) serve(op *dirOp) {
	e, addr, req := op.e, op.addr, op.req
	fea := d.fam.FEALat()
	switch req.Op {
	case flit.OpCacheRd:
		d.ReadMisses.Inc()
		switch e.state {
		case dirUncached:
			op.grant = grantExclusive
			d.readHome(op, op.homeDone)
		case dirShared:
			op.grant = grantShared
			d.readHome(op, op.homeDone)
		case dirExclusive:
			if e.owner == req.Src {
				// Owner re-reading its own line (stale directory after a
				// lost eviction notice): re-grant from home.
				op.grant = grantExclusive
				d.readHome(op, op.homeDone)
				return
			}
			// Downgrade the owner; it supplies the (possibly dirty) data.
			d.snoop(flit.OpSnpData, e.owner, addr, func(dirty []byte) {
				done := func() {
					e.sharers.add(e.owner)
					e.sharers.add(req.Src)
					e.owner = 0
					e.state = dirShared
					op.grant = grantShared
					d.eng.After(fea, op.grantFn)
				}
				if dirty != nil {
					d.Forwards.Inc()
					op.data = dirty
					d.writeHome(addr, dirty, done)
					return
				}
				d.readHome(op, done)
			})
		}
	case flit.OpCacheRdOwn:
		d.WriteMisses.Inc()
		switch e.state {
		case dirUncached:
			op.grant = grantModified
			d.readHome(op, op.homeDone)
		case dirShared:
			// Bit iteration yields ascending port order, so the snoop
			// fan-out is sorted by construction (maporder invariant) and
			// the scratch list costs no allocation in steady state.
			targets := e.sharers.appendPorts(d.targetScratch[:0])
			k := 0
			for _, t := range targets {
				if t != req.Src {
					targets[k] = t
					k++
				}
			}
			targets = targets[:k]
			d.targetScratch = targets
			d.invalidateAll(targets, addr, func() {
				e.sharers.clear()
				d.grantOwnership(op, nil)
			})
		case dirExclusive:
			if e.owner == req.Src {
				// Owner re-requesting (e.g. lost race with its own
				// eviction); just re-grant.
				op.grant = grantModified
				d.readHome(op, op.homeDone)
				return
			}
			d.snoop(flit.OpSnpInv, e.owner, addr, func(dirty []byte) {
				if dirty != nil {
					d.Forwards.Inc()
					d.writeHome(addr, dirty, func() { d.grantOwnership(op, dirty) })
					return
				}
				d.grantOwnership(op, nil)
			})
		}
	case flit.OpCacheWB:
		d.Writebacks.Inc()
		op.stillOwner = e.state == dirExclusive && e.owner == req.Src
		// A writeback from a node that no longer owns the line lost a
		// race with a snoop that already supplied the fresh data; its
		// home update is stale and must be dropped.
		if req.Size > 0 && op.stillOwner {
			d.writeHome(addr, req.Data, op.wbStep)
			return
		}
		op.wbStep()
	}
}

// grantOwnership grants the requester the line modified once every
// other copy is gone: with the dirty data the old owner's snoop
// returned, or else read from home, as a plain grantModified is.
func (d *Directory) grantOwnership(op *dirOp, dirty []byte) {
	op.grant = grantModified
	if dirty == nil {
		d.readHome(op, op.homeDone)
		return
	}
	op.data = dirty
	op.grantLine()
}

// grantResp turns the request into its grant. The response takes data
// without a copy: it is the op's buf or a snoop response's payload,
// and the op holds either until replyUnlock has sent the grant.
func grantResp(req *flit.Packet, grant uint32, data []byte) *flit.Packet {
	resp := req.Response(flit.OpCacheResp, uint32(len(data)))
	resp.ReqLen = grant
	resp.Data = data
	return resp
}

// snoop sends a snoop to one node; done receives dirty data or nil.
func (d *Directory) snoop(op flit.Op, target flit.PortID, addr uint64, done func(dirty []byte)) {
	d.Snoops.Inc()
	req := &flit.Packet{Chan: flit.ChCache, Op: op, Dst: target, Addr: addr}
	d.fam.Endpoint().Request(req).OnComplete(func(resp *flit.Packet, err error) {
		if err != nil {
			panic(fmt.Sprintf("coherence: snoop %v to %d failed: %v", op, target, err))
		}
		if resp.Size > 0 {
			done(resp.Data)
			return
		}
		done(nil)
	})
}

// invalidateAll snoops every target in parallel and calls done when all
// have acknowledged.
func (d *Directory) invalidateAll(targets []flit.PortID, addr uint64, done func()) {
	if len(targets) == 0 {
		done()
		return
	}
	remaining := len(targets)
	for _, t := range targets {
		d.snoop(flit.OpSnpInv, t, addr, func(dirty []byte) {
			// Shared copies are clean by protocol invariant; dirty data
			// here would be a protocol bug.
			if dirty != nil {
				panic("coherence: dirty data from a shared copy")
			}
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}

// readHome reads op's line from home DRAM into op.buf, which becomes
// the line the grant carries, and runs done once the read completes.
func (d *Directory) readHome(op *dirOp, done func()) {
	op.data = op.buf[:]
	d.fam.DRAM().Read(op.addr, op.data, done)
}

func (d *Directory) writeHome(addr uint64, data []byte, done func()) {
	d.fam.DRAM().Write(addr, data, done)
}

// StateOf reports the directory's view of a line (testing/diagnostics):
// "uncached", "shared(n)", or "exclusive".
func (d *Directory) StateOf(addr uint64) string {
	e := d.lookup(addr &^ 63)
	if e == nil {
		return "uncached"
	}
	switch e.state {
	case dirShared:
		return fmt.Sprintf("shared(%d)", e.sharers.n)
	case dirExclusive:
		return "exclusive"
	default:
		return "uncached"
	}
}

// RegisterStats attaches the directory's protocol counters to a registry.
func (d *Directory) RegisterStats(s *sim.Stats) {
	s.Register("read_misses", &d.ReadMisses)
	s.Register("write_misses", &d.WriteMisses)
	s.Register("snoops", &d.Snoops)
	s.Register("writebacks", &d.Writebacks)
	s.Register("forwards", &d.Forwards)
	s.Gauge("tracked_lines", func() int64 { return int64(d.nlines) })
}
