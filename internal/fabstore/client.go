package fabstore

import (
	"fcc/internal/arbiter"
	"fcc/internal/coherence"
	"fcc/internal/flit"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// Client is one host's handle to the store. All fabric traffic goes
// through the host's txn.Endpoint with bounded RequestRetry backoff;
// every counter and histogram below is touched only from the host's own
// engine, which is what keeps sharded runs race-free and byte-identical
// to serial ones.
type Client struct {
	s       *Store
	h       *host.Host
	ep      *txn.Endpoint
	idx     int
	crashed bool

	coh []*coherence.Client // per shard, nil entries = uncached path
	arb *arbiter.Client     // nil = no fabric bandwidth arbitration

	quota []byteGate // per tenant
	wal   []slotPool // per shard

	// Transaction accounting (the E9 contract: every issued op commits,
	// fails typed, or is lost to a crash — nothing else).
	Gets          sim.Counter
	Puts          sim.Counter
	Scans         sim.Counter
	Committed     sim.Counter
	TypedErrors   sim.Counter
	QuotaStalls   sim.Counter
	WALStalls     sim.Counter
	AbandonedPuts sim.Counter // crash left a pending intent in fabric memory

	GetLat  *sim.Histogram
	PutLat  *sim.Histogram
	ScanLat *sim.Histogram

	seq uint64 // put sequence, stamped into intent records
}

func newClient(s *Store, h *host.Host, idx int) *Client {
	c := &Client{
		s: s, h: h, idx: idx,
		coh:     make([]*coherence.Client, len(s.shards)),
		quota:   make([]byteGate, s.cfg.Tenants),
		wal:     make([]slotPool, len(s.shards)),
		GetLat:  sim.NewHistogram(),
		PutLat:  sim.NewHistogram(),
		ScanLat: sim.NewHistogram(),
	}
	if h != nil { // nil only in layout-level tests that never issue ops
		c.ep = h.Endpoint()
	}
	for t := range c.quota {
		c.quota[t].limit = s.cfg.Quota
	}
	for si := range c.wal {
		for slot := 0; slot < s.cfg.IntentSlots; slot++ {
			c.wal[si].free.Push(slot)
		}
	}
	return c
}

// Host returns the client's host.
func (c *Client) Host() *host.Host { return c.h }

// Store returns the store this client belongs to.
func (c *Client) Store() *Store { return c.s }

// UseCoherence routes hot-row reads and writes of shard si through cc —
// the multi-reader path: the directory keeps every host's cached copy
// of a hot line consistent.
func (c *Client) UseCoherence(si int, cc *coherence.Client) { c.coh[si] = cc }

// UseArbiter makes the client reserve bandwidth credit toward the
// destination expander around puts and scan chunks (Principle #4's
// admission path, stacked under the per-tenant quota gate).
func (c *Client) UseArbiter(a *arbiter.Client) { c.arb = a }

// Crash marks the client's host as failed. In-flight operations abandon
// at their next step boundary with ErrCrashed — without clearing their
// intent records, releasing quota, or freeing WAL slots, exactly like a
// real dead host. Parked quota/WAL waiters are woken so the simulation
// drains; they abandon on wake.
func (c *Client) Crash() {
	c.crashed = true
	for t := range c.quota {
		c.quota[t].drain()
	}
	for si := range c.wal {
		c.wal[si].drain()
	}
}

// Crashed reports whether Crash was called.
func (c *Client) Crashed() bool { return c.crashed }

func (c *Client) registerStats(st *sim.Stats) {
	st.Register("gets", &c.Gets)
	st.Register("puts", &c.Puts)
	st.Register("scans", &c.Scans)
	st.Register("committed", &c.Committed)
	st.Register("typed_errors", &c.TypedErrors)
	st.Register("quota_stalls", &c.QuotaStalls)
	st.Register("wal_stalls", &c.WALStalls)
	st.Register("abandoned_puts", &c.AbandonedPuts)
	// Re-export the endpoint's retry/timeout counters here so the audit
	// (zero unaccounted transactions) reads from one subtree.
	st.Register("retries", &c.ep.Retries)
	st.Register("timeouts", &c.ep.Timeouts)
	st.RegisterHistogram("get_lat_ns", c.GetLat)
	st.RegisterHistogram("put_lat_ns", c.PutLat)
	st.RegisterHistogram("scan_lat_ns", c.ScanLat)
}

// GetP reads the value of (tenant, key). Hot keys go through the
// coherence directory when wired; everything else is an uncached IO
// read against the owning expander.
func (c *Client) GetP(p *sim.Proc, tenant int, key uint64) ([]byte, error) {
	if c.crashed {
		return nil, ErrCrashed
	}
	c.Gets.Inc()
	start := p.Now()
	slot := c.s.cfg.SlotSize
	c.quotaAcquireP(p, tenant, slot)
	if c.crashed {
		return nil, ErrCrashed
	}
	si, port, addr := c.s.rowAddr(c.s.Row(tenant, key))
	var val []byte
	var err error
	if key < c.s.cfg.HotKeys && c.coh[si] != nil {
		var line []byte
		line, err = c.coh[si].Read(addr).Await(p)
		if err == nil {
			val = append([]byte(nil), line...)
		}
	} else {
		var resp *flit.Packet
		resp, err = c.ep.RequestP(p, &flit.Packet{
			Chan: flit.ChIO, Op: flit.OpIORd, Dst: port, Addr: addr,
			ReqLen: uint32(slot),
		}, c.s.cfg.RetryAttempts, c.s.cfg.RetryBackoff)
		if err == nil {
			val = resp.Data
		}
	}
	if c.crashed {
		return nil, ErrCrashed
	}
	c.quota[tenant].release(slot)
	if err != nil {
		c.TypedErrors.Inc()
		return nil, err
	}
	c.Committed.Inc()
	c.GetLat.ObserveTime(p.Now() - start)
	return val, nil
}

// PutP transactionally writes val (len == SlotSize) to (tenant, key):
// intent record first (the WAL), then the row, then the intent clear.
// A crash between the first and last step leaves a pending intent that
// Recovery replays idempotently.
func (c *Client) PutP(p *sim.Proc, tenant int, key uint64, val []byte) error {
	if c.crashed {
		return ErrCrashed
	}
	if uint64(len(val)) != c.s.cfg.SlotSize {
		panic("fabstore: value length must equal SlotSize")
	}
	c.Puts.Inc()
	start := p.Now()
	slotBytes := c.s.cfg.SlotSize
	c.quotaAcquireP(p, tenant, slotBytes)
	if c.crashed {
		return ErrCrashed
	}
	row := c.s.Row(tenant, key)
	si, port, addr := c.s.rowAddr(row)
	sh := &c.s.shards[si]
	walSlot := c.walAcquireP(p, si)
	if c.crashed {
		return ErrCrashed
	}

	// 1. Write-ahead intent: state=pending + (tenant, key, seq) + value.
	c.seq++
	rec := make([]byte, c.s.recSize)
	putLE64(rec[0:], 1)
	putLE64(rec[8:], uint64(tenant))
	putLE64(rec[16:], key)
	putLE64(rec[24:], c.seq)
	copy(rec[intentHeader:], val)
	iaddr := c.s.intentAddr(sh, c.idx, walSlot)
	if err := c.writeP(p, sh.Dev.Port, iaddr, rec); err != nil {
		c.quota[tenant].release(slotBytes)
		c.wal[si].release(walSlot)
		c.TypedErrors.Inc()
		return err
	}
	if c.crashed {
		c.AbandonedPuts.Inc() // intent is in fabric memory; recovery's job now
		return ErrCrashed
	}

	// 2. The row itself. Hot rows go through the directory so cached
	// readers are invalidated; cold rows are uncached IO writes.
	var err error
	if key < c.s.cfg.HotKeys && c.coh[si] != nil {
		err = c.withReservedP(p, port, slotBytes, func() error {
			_, werr := c.coh[si].Write(addr, val).Await(p)
			return werr
		})
	} else {
		err = c.withReservedP(p, port, slotBytes, func() error {
			return c.writeP(p, port, addr, val)
		})
	}
	if c.crashed {
		c.AbandonedPuts.Inc()
		return ErrCrashed
	}
	if err != nil {
		// The intent stays pending: a retry or recovery replay will land
		// the same bytes (idempotent). Typed failure hands the row back.
		c.quota[tenant].release(slotBytes)
		c.wal[si].release(walSlot)
		c.TypedErrors.Inc()
		return err
	}

	// 3. Commit: clear the intent's state word.
	zero := make([]byte, 8)
	err = c.writeP(p, sh.Dev.Port, iaddr, zero)
	if c.crashed {
		c.AbandonedPuts.Inc()
		return ErrCrashed
	}
	c.quota[tenant].release(slotBytes)
	c.wal[si].release(walSlot)
	if err != nil {
		c.TypedErrors.Inc()
		return err
	}
	c.Committed.Inc()
	c.PutLat.ObserveTime(p.Now() - start)
	return nil
}

// ScanP reads n consecutive rows of tenant starting at startKey and
// returns the number of rows read. The range is split at shard
// boundaries and read in max-payload chunks.
func (c *Client) ScanP(p *sim.Proc, tenant int, startKey uint64, n uint64) (rows uint64, err error) {
	if c.crashed {
		return 0, ErrCrashed
	}
	c.Scans.Inc()
	start := p.Now()
	if startKey+n > c.s.cfg.KeysPerTenant {
		n = c.s.cfg.KeysPerTenant - startKey
	}
	total := n * c.s.cfg.SlotSize
	c.quotaAcquireP(p, tenant, total)
	if c.crashed {
		return 0, ErrCrashed
	}
	defer func() {
		if !c.crashed {
			c.quota[tenant].release(total)
		}
	}()
	row := c.s.Row(tenant, startKey)
	remaining := n
	for remaining > 0 {
		si, port, addr := c.s.rowAddr(row)
		sh := &c.s.shards[si]
		run := sh.FirstRow + sh.Rows - row // rows left on this shard
		if run > remaining {
			run = remaining
		}
		bytes := run * c.s.cfg.SlotSize
		for off := uint64(0); off < bytes; off += link.MaxPacketPayload {
			chunk := uint64(link.MaxPacketPayload)
			if rem := bytes - off; rem < chunk {
				chunk = rem
			}
			err = c.withReservedP(p, port, chunk, func() error {
				_, rerr := c.ep.RequestP(p, &flit.Packet{
					Chan: flit.ChIO, Op: flit.OpIORd, Dst: port,
					Addr: addr + off, ReqLen: uint32(chunk),
				}, c.s.cfg.RetryAttempts, c.s.cfg.RetryBackoff)
				return rerr
			})
			if c.crashed {
				return rows, ErrCrashed
			}
			if err != nil {
				c.TypedErrors.Inc()
				return rows, err
			}
		}
		rows += run
		row += run
		remaining -= run
	}
	c.Committed.Inc()
	c.ScanLat.ObserveTime(p.Now() - start)
	return rows, nil
}

// writeP issues one retried IO write.
func (c *Client) writeP(p *sim.Proc, dst flit.PortID, addr uint64, data []byte) error {
	_, err := c.ep.RequestP(p, &flit.Packet{
		Chan: flit.ChIO, Op: flit.OpIOWr, Dst: dst, Addr: addr,
		Size: uint32(len(data)), Data: data,
	}, c.s.cfg.RetryAttempts, c.s.cfg.RetryBackoff)
	return err
}

// withReservedP runs fn while holding an arbiter bandwidth reservation
// of bytes toward dst (a no-op without an arbiter). Reservation errors
// are typed like any other fabric failure.
func (c *Client) withReservedP(p *sim.Proc, dst flit.PortID, bytes uint64, fn func() error) error {
	if c.arb == nil {
		return fn()
	}
	if _, err := c.arb.Reserve(dst, bytes).Await(p); err != nil {
		return err
	}
	ferr := fn()
	if _, err := c.arb.Reclaim(dst, bytes).Await(p); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}

// --- admission gates -------------------------------------------------

// byteGate is a FIFO outstanding-bytes gate: the per-tenant quota.
type byteGate struct {
	limit   uint64
	inUse   uint64
	waiters sim.Queue[gateWait]
}

type gateWait struct {
	need uint64
	wake func()
}

func (c *Client) quotaAcquireP(p *sim.Proc, tenant int, need uint64) {
	g := &c.quota[tenant]
	if g.limit == 0 {
		return
	}
	if need > g.limit {
		need = g.limit // oversized ops take the whole window
	}
	if g.waiters.Len() == 0 && g.inUse+need <= g.limit {
		g.inUse += need
		return
	}
	c.QuotaStalls.Inc()
	p.Suspend(func(wake func()) {
		g.waiters.Push(gateWait{need: need, wake: wake})
	})
	// Woken either with the bytes charged (release path) or by a crash
	// drain; the caller re-checks c.crashed immediately.
}

func (g *byteGate) release(n uint64) {
	if g.limit == 0 {
		return
	}
	if n > g.limit {
		n = g.limit
	}
	if n > g.inUse {
		n = g.inUse
	}
	g.inUse -= n
	for g.waiters.Len() > 0 && g.inUse+g.waiters.Front().need <= g.limit {
		w := g.waiters.Pop()
		g.inUse += w.need
		w.wake()
	}
}

// drain wakes the waiters queued when it starts, in order.
func (g *byteGate) drain() {
	for n := g.waiters.Len(); n > 0; n-- {
		g.waiters.Pop().wake()
	}
}

// slotPool hands out WAL slot indexes FIFO: a slot decides where its
// put's intent record goes.
type slotPool struct {
	free    sim.Queue[int]
	waiters sim.Queue[func()]
}

func (c *Client) walAcquireP(p *sim.Proc, si int) int {
	sp := &c.wal[si]
	if sp.free.Len() == 0 {
		c.WALStalls.Inc()
	}
	for sp.free.Len() == 0 {
		p.Suspend(func(wake func()) { sp.waiters.Push(wake) })
		if c.crashed {
			return -1
		}
	}
	return sp.free.Pop()
}

func (sp *slotPool) release(slot int) {
	sp.free.Push(slot)
	if sp.waiters.Len() > 0 {
		sp.waiters.Pop()()
	}
}

// drain wakes the waiters queued when it starts, in order.
func (sp *slotPool) drain() {
	for n := sp.waiters.Len(); n > 0; n-- {
		sp.waiters.Pop()()
	}
}
