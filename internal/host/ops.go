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

// ---- cache management ----

// FlushRangeP writes back every dirty line overlapping [addr, addr+n)
// and invalidates each line from both levels, one line at a time,
// parking p until each writeback has reached its home. This is the
// software-coherence primitive that non-CC-NUMA node types require
// (§3, Difference #2). It stops at the first writeback the fabric lost
// or the device refused and returns its typed error: that line's dirty
// data is lost with the error, and the lines after it stay cached.
func (h *Host) FlushRangeP(p *sim.Proc, addr, n uint64) error {
	for a := addr & LineMask; a < addr+n; a += LineSize {
		data, dirty, _ := h.l1.invalidate(a)
		if d, dirty2, _ := h.l2.invalidate(a); !dirty {
			data, dirty = d, dirty2
		}
		if !dirty {
			continue
		}
		r := h.amap.MustLookup(a)
		if r.Local {
			p.Suspend(func(wake func()) { h.dram.Write(a, data[:], wake) })
			continue
		}
		h.RemoteWrites.Inc()
		req := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: r.Port,
			Addr: r.DevAddr(a), Size: LineSize, Data: data[:]}
		if _, err := h.requestP(p, req); err != nil {
			return err
		}
	}
	return nil
}

// InvalidateRange drops every line overlapping [addr, addr+n) without
// writeback — the receiving side of software coherence (discard stale
// data).
func (h *Host) InvalidateRange(addr, n uint64) {
	for a := addr & LineMask; a < addr+n; a += LineSize {
		h.l1.invalidate(a)
		h.l2.invalidate(a)
	}
}

// ---- uncached operations ----

// UncachedReadP reads n bytes at addr bypassing the cache hierarchy
// (CXL.io-style non-coherent access), one max-payload request at a
// time, parking p until each lands. Lines that may be cached locally
// are NOT flushed; callers manage coherence explicitly. It stops at the
// first request the fabric lost or the device refused and returns its
// typed error.
func (h *Host) UncachedReadP(p *sim.Proc, addr, n uint64) ([]byte, error) {
	out := make([]byte, n)
	for off := uint64(0); off < n; {
		a, c := addr+off, min(n-off, link.MaxPacketPayload)
		r := h.amap.MustLookup(a)
		if r.Local {
			p.Suspend(func(wake func()) { h.dram.Read(a, out[off:off+c], wake) })
		} else {
			resp, err := h.requestP(p, &flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd,
				Dst: r.Port, Addr: r.DevAddr(a), ReqLen: uint32(c)})
			if err != nil {
				return nil, err
			}
			copy(out[off:off+c], resp.Data)
		}
		off += c
	}
	return out, nil
}

// UncachedWriteP stores data at addr bypassing the caches, one
// max-payload request at a time, parking p until each lands. It stops
// at the first write the fabric lost or the device refused and returns
// its typed error. The requests carry data itself, not a copy: p stays
// parked until each one resolves.
func (h *Host) UncachedWriteP(p *sim.Proc, addr uint64, data []byte) error {
	for len(data) > 0 {
		c := min(len(data), link.MaxPacketPayload)
		r := h.amap.MustLookup(addr)
		if r.Local {
			p.Suspend(func(wake func()) { h.dram.Write(addr, data[:c], wake) })
		} else {
			req := &flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr, Dst: r.Port,
				Addr: r.DevAddr(addr), Size: uint32(c), Data: data[:c]}
			if _, err := h.requestP(p, req); err != nil {
				return err
			}
		}
		data = data[c:]
		addr += uint64(c)
	}
	return nil
}

// requestP sends one uncached request or flush writeback: it parks p
// through the FHA's crossing, then until the request resolves.
func (h *Host) requestP(p *sim.Proc, req *flit.Packet) (*flit.Packet, error) {
	p.Sleep(h.cfg.FHALat)
	return h.ep.RequestP(p, req, 0, 0)
}

// settle completes f with v, or fails it with err when there is one.
func settle[T any](f *sim.Future[T], v T, err error) {
	if err != nil {
		f.Fail(err)
		return
	}
	f.Complete(v)
}
