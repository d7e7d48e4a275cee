package host

import (
	"encoding/binary"
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// ---- cached load/store API ----
//
// Futures for asynchronous model code; *P variants block a sim.Proc —
// the natural notation for workload drivers.

// loadOp and storeOp carry the 64-bit load/store fast paths. Their
// callbacks are bound once at construction and they recycle through the
// host's free lists. Load64 and Store64 hand the outcome to a fresh
// future the caller owns, recycling the op before they resolve it;
// Load64P and Store64P await the future embedded in the op, zeroed for
// each use, and recycle the op once Await returns, so a blocking access
// allocates nothing.
type loadOp struct {
	h    *Host
	addr uint64
	out  *sim.Future[uint64] // Load64's future; nil when Load64P awaits f
	f    sim.Future[uint64]
	next *loadOp
	done accessDone
}

type storeOp struct {
	h    *Host
	addr uint64
	v    uint64
	out  *sim.Future[struct{}] // Store64's future; nil when Store64P awaits f
	f    sim.Future[struct{}]
	next *storeOp
	done accessDone
}

// load starts a Load64 of addr whose outcome goes to out, or to the
// op's own future when out is nil.
func (h *Host) load(addr uint64, out *sim.Future[uint64]) *loadOp {
	if addr&7 != 0 {
		panic(fmt.Sprintf("host: unaligned Load64 at %#x", addr))
	}
	op := h.loadFree
	if op == nil {
		op = &loadOp{h: h}
		op.done = op.loaded
	} else {
		h.loadFree = op.next
		op.next = nil
	}
	op.addr, op.out, op.f = addr, out, sim.Future[uint64]{}
	h.access(addr, false, op.done)
	return op
}

func (op *loadOp) loaded(l *line, _ bool, err error) {
	var v uint64
	if err == nil {
		v = binary.LittleEndian.Uint64(l.data[op.addr&(LineSize-1):])
	}
	out := op.out
	if out == nil {
		settle(&op.f, v, err)
		return
	}
	op.out = nil
	op.h.putLoadOp(op)
	settle(out, v, err)
}

func (h *Host) putLoadOp(op *loadOp) {
	op.next = h.loadFree
	h.loadFree = op
}

// store starts a Store64 of v at addr whose outcome goes to out, or to
// the op's own future when out is nil.
func (h *Host) store(addr, v uint64, out *sim.Future[struct{}]) *storeOp {
	if addr&7 != 0 {
		panic(fmt.Sprintf("host: unaligned Store64 at %#x", addr))
	}
	op := h.stFree
	if op == nil {
		op = &storeOp{h: h}
		op.done = op.stored
	} else {
		h.stFree = op.next
		op.next = nil
	}
	op.addr, op.v, op.out, op.f = addr, v, out, sim.Future[struct{}]{}
	h.access(addr, true, op.done)
	return op
}

func (op *storeOp) stored(l *line, missed bool, err error) {
	if err != nil {
		op.finish(err)
		return
	}
	binary.LittleEndian.PutUint64(l.data[op.addr&(LineSize-1):], op.v)
	if missed {
		op.h.eng.After2(op.h.cfg.StoreCommit, storeCommitted, op)
		return
	}
	op.finish(nil)
}

func storeCommitted(a any) { a.(*storeOp).finish(nil) }

func (op *storeOp) finish(err error) {
	out := op.out
	if out == nil {
		settle(&op.f, struct{}{}, err)
		return
	}
	op.out = nil
	op.h.putStoreOp(op)
	settle(out, struct{}{}, err)
}

func (h *Host) putStoreOp(op *storeOp) {
	op.next = h.stFree
	h.stFree = op
}

// Load64 reads the little-endian uint64 at addr through the caches. The
// future fails with the fill's typed error if the line's fill fails.
func (h *Host) Load64(addr uint64) *sim.Future[uint64] {
	f := sim.NewFuture[uint64]()
	h.load(addr, f)
	return f
}

// Store64 writes v at addr through the caches (write-allocate,
// write-back). The future resolves when the store commits into L1, or
// fails with the fill's typed error if the line's fill fails.
func (h *Host) Store64(addr uint64, v uint64) *sim.Future[struct{}] {
	f := sim.NewFuture[struct{}]()
	h.store(addr, v, f)
	return f
}

// LoadBytes reads n bytes at addr (must not cross a cacheline).
func (h *Host) LoadBytes(addr uint64, n int) *sim.Future[[]byte] {
	if addr&LineMask != (addr+uint64(n)-1)&LineMask {
		panic(fmt.Sprintf("host: LoadBytes [%#x,+%d) crosses a line", addr, n))
	}
	f := sim.NewFuture[[]byte]()
	h.access(addr, false, func(l *line, _ bool, err error) {
		if err != nil {
			f.Fail(err)
			return
		}
		off := addr & (LineSize - 1)
		f.Complete(append([]byte(nil), l.data[off:off+uint64(n)]...))
	})
	return f
}

// StoreBytes writes data at addr (must not cross a cacheline).
func (h *Host) StoreBytes(addr uint64, data []byte) *sim.Future[struct{}] {
	if addr&LineMask != (addr+uint64(len(data))-1)&LineMask {
		panic(fmt.Sprintf("host: StoreBytes [%#x,+%d) crosses a line", addr, len(data)))
	}
	f := sim.NewFuture[struct{}]()
	h.access(addr, true, func(l *line, missed bool, err error) {
		if err != nil {
			f.Fail(err)
			return
		}
		copy(l.data[addr&(LineSize-1):], data)
		if missed {
			h.eng.After(h.cfg.StoreCommit, func() { f.Complete(struct{}{}) })
		} else {
			f.Complete(struct{}{})
		}
	})
	return f
}

// Load64P is the blocking form of Load64; it panics if the fill fails.
func (h *Host) Load64P(p *sim.Proc, addr uint64) uint64 {
	op := h.load(addr, nil)
	v := op.f.MustAwait(p)
	h.putLoadOp(op)
	return v
}

// Store64P is the blocking form of Store64; it panics if the fill
// fails.
func (h *Host) Store64P(p *sim.Proc, addr uint64, v uint64) {
	op := h.store(addr, v, nil)
	op.f.MustAwait(p)
	h.putStoreOp(op)
}

// ReadBufP reads an arbitrary buffer through the caches, line by line.
func (h *Host) ReadBufP(p *sim.Proc, addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (LineSize - 1)
		n := LineSize - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		b := h.LoadBytes(addr, n).MustAwait(p)
		copy(buf, b)
		buf = buf[n:]
		addr += uint64(n)
	}
}

// WriteBufP writes an arbitrary buffer through the caches, line by line.
func (h *Host) WriteBufP(p *sim.Proc, addr uint64, data []byte) {
	for len(data) > 0 {
		off := addr & (LineSize - 1)
		n := LineSize - int(off)
		if n > len(data) {
			n = len(data)
		}
		h.StoreBytes(addr, data[:n]).MustAwait(p)
		data = data[n:]
		addr += uint64(n)
	}
}

// ---- cache management ----

// FlushLine writes back the line containing addr if dirty and
// invalidates it from both levels. The future resolves when any
// writeback has reached its home, and fails if the fabric lost it or
// the device refused it. This is the software-coherence primitive that
// non-CC-NUMA node types require (§3, Difference #2).
func (h *Host) FlushLine(addr uint64) *sim.Future[struct{}] {
	lineAddr := addr & LineMask
	f := sim.NewFuture[struct{}]()
	var dirtyData *[LineSize]byte
	if d, dirty, present := h.l1.invalidate(lineAddr); present && dirty {
		dd := d
		dirtyData = &dd
	}
	if d, dirty, present := h.l2.invalidate(lineAddr); present && dirty && dirtyData == nil {
		dd := d
		dirtyData = &dd
	}
	if dirtyData == nil {
		f.Complete(struct{}{})
		return f
	}
	r := h.amap.MustLookup(lineAddr)
	if r.Local {
		h.dram.Write(lineAddr, dirtyData[:], func() { f.Complete(struct{}{}) })
		return f
	}
	h.RemoteWrites.Inc()
	req := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: r.Port,
		Addr: r.DevAddr(lineAddr), Size: LineSize, Data: append([]byte(nil), dirtyData[:]...)}
	h.eng.After(h.cfg.FHALat, func() {
		h.ep.Request(req).OnComplete(func(_ *flit.Packet, err error) { settle(f, struct{}{}, err) })
	})
	return f
}

// FlushRangeP flushes every line overlapping [addr, addr+n).
func (h *Host) FlushRangeP(p *sim.Proc, addr uint64, n uint64) {
	for a := addr & LineMask; a < addr+n; a += LineSize {
		h.FlushLine(a).MustAwait(p)
	}
}

// InvalidateLine drops the line containing addr without writeback —
// the receiving side of software coherence (discard stale data).
func (h *Host) InvalidateLine(addr uint64) {
	lineAddr := addr & LineMask
	h.l1.invalidate(lineAddr)
	h.l2.invalidate(lineAddr)
}

// InvalidateRange drops every line overlapping [addr, addr+n).
func (h *Host) InvalidateRange(addr uint64, n uint64) {
	for a := addr & LineMask; a < addr+n; a += LineSize {
		h.InvalidateLine(a)
	}
}

// ---- uncached operations ----

// UncachedRead fetches n bytes (≤ one max packet payload) at addr
// bypassing the cache hierarchy (CXL.io-style non-coherent access).
// Lines that may be cached locally are NOT flushed; callers manage
// coherence explicitly.
func (h *Host) UncachedRead(addr uint64, n uint32) *sim.Future[[]byte] {
	if n > link.MaxPacketPayload {
		panic(fmt.Sprintf("host: UncachedRead of %d bytes; use UncachedReadBigP", n))
	}
	f := sim.NewFuture[[]byte]()
	r := h.amap.MustLookup(addr)
	if r.Local {
		// The bytes escape through the future, so they get a buffer of
		// their own.
		b := make([]byte, n)
		h.dram.Read(addr, b, func() { f.Complete(b) })
		return f
	}
	req := &flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd, Dst: r.Port,
		Addr: r.DevAddr(addr), ReqLen: n}
	h.eng.After(h.cfg.FHALat, func() {
		h.ep.Request(req).OnComplete(func(resp *flit.Packet, err error) {
			if err != nil {
				f.Fail(err)
				return
			}
			f.Complete(resp.Data)
		})
	})
	return f
}

// UncachedWrite stores data (≤ one max packet payload) at addr
// bypassing the caches. It fails if the fabric lost the write or the
// device refused it.
func (h *Host) UncachedWrite(addr uint64, data []byte) *sim.Future[struct{}] {
	if len(data) > link.MaxPacketPayload {
		panic(fmt.Sprintf("host: UncachedWrite of %d bytes; use UncachedWriteBigP", len(data)))
	}
	f := sim.NewFuture[struct{}]()
	r := h.amap.MustLookup(addr)
	if r.Local {
		h.dram.Write(addr, data, func() { f.Complete(struct{}{}) })
		return f
	}
	req := &flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr, Dst: r.Port,
		Addr: r.DevAddr(addr), Size: uint32(len(data)), Data: append([]byte(nil), data...)}
	h.eng.After(h.cfg.FHALat, func() {
		h.ep.Request(req).OnComplete(func(_ *flit.Packet, err error) { settle(f, struct{}{}, err) })
	})
	return f
}

// settle completes f with v, or fails it with err when there is one.
func settle[T any](f *sim.Future[T], v T, err error) {
	if err != nil {
		f.Fail(err)
		return
	}
	f.Complete(v)
}

// UncachedReadBigP reads an arbitrary-size buffer uncached, in
// max-payload chunks, blocking the calling process.
func (h *Host) UncachedReadBigP(p *sim.Proc, addr uint64, n uint64) []byte {
	out := make([]byte, 0, n)
	for n > 0 {
		c := uint64(link.MaxPacketPayload)
		if n < c {
			c = n
		}
		b := h.UncachedRead(addr, uint32(c)).MustAwait(p)
		out = append(out, b...)
		addr += c
		n -= c
	}
	return out
}

// UncachedWriteBigP writes an arbitrary-size buffer uncached, in
// max-payload chunks, blocking the calling process.
func (h *Host) UncachedWriteBigP(p *sim.Proc, addr uint64, data []byte) {
	for len(data) > 0 {
		c := link.MaxPacketPayload
		if len(data) < c {
			c = len(data)
		}
		h.UncachedWrite(addr, data[:c]).MustAwait(p)
		data = data[c:]
		addr += uint64(c)
	}
}
