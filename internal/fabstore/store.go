// Package fabstore is a multi-tenant transactional key-value store
// whose partitions live in shared fabric memory — the "millions of
// users" service class the paper's Principle #1 says rack-scale fabrics
// create. Rows are range-sharded across FAM expanders; every host runs
// a store client that issues Get/Put/Scan transactions over its
// txn.Endpoint; hot rows are multi-reader lines served through the
// coherence directory; per-tenant quotas gate admission locally and,
// when the fabric arbiter is attached, reserve bandwidth credit toward
// the destination expander; puts write a write-ahead intent record into
// fabric memory first, so a crashed host's in-flight transactions are
// recoverable by any surviving host as idempotent task replays.
package fabstore

import (
	"errors"
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/host"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// ErrCrashed is returned by client operations abandoned because the
// client's host crashed mid-transaction. An abandoned put may have
// already written its intent record — that is the point: recovery
// replays it (see Recovery).
var ErrCrashed = errors.New("fabstore: client crashed mid-transaction")

// intentHeader is the fixed prefix of one intent record: state (8B,
// 0 = free / 1 = pending), tenant (8B), key (8B), seq (8B), padded to a
// full line. The value payload follows, so a replay is a pure function
// of the record, and record+value (≤ 64+448) always fits one packet.
const intentHeader = 64

// Config shapes a store.
type Config struct {
	// Tenants and KeysPerTenant fix the row space: row(t, k) =
	// t*KeysPerTenant + k, range-sharded contiguously across expanders.
	Tenants       int
	KeysPerTenant uint64
	// SlotSize is the value size per key in bytes (default 64, max 448,
	// multiple of 8). 64 keeps a row exactly one coherence line.
	SlotSize uint64
	// IntentSlots is the write-ahead log depth per (host, shard): it
	// bounds a client's in-flight puts against one shard. Default 4.
	IntentSlots int
	// Quota is the per-tenant outstanding-bytes admission budget at each
	// client (0 = unlimited). Stalled acquisitions are counted — that is
	// the tenant QoS signal.
	Quota uint64
	// HotKeys marks keys < HotKeys of every tenant as hot: multi-reader
	// rows served through the coherence directory when the client has
	// coherence wired (requires SlotSize == 64).
	HotKeys uint64
	// RetryAttempts / RetryBackoff parameterize txn.RequestRetry for
	// every store packet. Defaults: 3 attempts, 20µs backoff.
	RetryAttempts int
	RetryBackoff  sim.Time
}

func (c *Config) fill() error {
	if c.Tenants <= 0 || c.KeysPerTenant == 0 {
		return errors.New("fabstore: need at least one tenant and one key")
	}
	if c.SlotSize == 0 {
		c.SlotSize = 64
	}
	if c.SlotSize%8 != 0 || c.SlotSize > 448 {
		return fmt.Errorf("fabstore: SlotSize %d (want multiple of 8, ≤448 so record+header fits one packet)", c.SlotSize)
	}
	if c.HotKeys > 0 && c.SlotSize != 64 {
		return errors.New("fabstore: hot keys are coherence lines, so HotKeys needs SlotSize == 64")
	}
	if c.IntentSlots <= 0 {
		c.IntentSlots = 4
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 20 * sim.Microsecond
	}
	return nil
}

// Device identifies one FAM expander holding a shard.
type Device struct {
	Port     flit.PortID
	Capacity uint64
}

// Shard is one expander's contiguous slice of the row space plus its
// memory layout, data | intents: data rows from DataBase, then every
// host's intent-record slots from IntentBase.
type Shard struct {
	Dev        Device
	FirstRow   uint64
	Rows       uint64
	DataBase   uint64
	IntentBase uint64
}

// Store is the shard map plus one client per host.
type Store struct {
	cfg     Config
	rows    uint64 // total rows
	perShrd uint64 // rows per shard (last may hold fewer)
	recSize uint64 // bytes per intent record
	shards  []Shard
	clients []*Client
}

// New lays the row space out across devs and builds one client per
// host. Coherence and arbiter wiring are optional per client — see
// (*Client).UseCoherence and (*Client).UseArbiter.
func New(cfg Config, devs []Device, hosts []*host.Host) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(devs) == 0 || len(hosts) == 0 {
		return nil, errors.New("fabstore: need at least one device and one host")
	}
	s := &Store{
		cfg:     cfg,
		rows:    uint64(cfg.Tenants) * cfg.KeysPerTenant,
		recSize: intentHeader + cfg.SlotSize,
	}
	s.perShrd = (s.rows + uint64(len(devs)) - 1) / uint64(len(devs))
	intentBytes := uint64(len(hosts)) * uint64(cfg.IntentSlots) * s.recSize
	for i, d := range devs {
		first := uint64(i) * s.perShrd
		if first > s.rows {
			first = s.rows
		}
		n := s.perShrd
		if first+n > s.rows {
			n = s.rows - first
		}
		sh := Shard{Dev: d, FirstRow: first, Rows: n}
		sh.IntentBase = n * cfg.SlotSize
		if need := sh.IntentBase + intentBytes; need > d.Capacity {
			return nil, fmt.Errorf("fabstore: shard %d needs %d bytes, device holds %d", i, need, d.Capacity)
		}
		s.shards = append(s.shards, sh)
	}
	for i, h := range hosts {
		s.clients = append(s.clients, newClient(s, h, i))
	}
	return s, nil
}

// Config returns the (defaults-filled) configuration.
func (s *Store) Config() Config { return s.cfg }

// Shards exposes the shard map (read-only by convention).
func (s *Store) Shards() []Shard { return s.shards }

// Client returns host i's store client.
func (s *Store) Client(i int) *Client { return s.clients[i] }

// Row maps (tenant, key) to its global row index.
func (s *Store) Row(tenant int, key uint64) uint64 {
	return uint64(tenant)*s.cfg.KeysPerTenant + key
}

// shardIdx locates the shard owning row r.
func (s *Store) shardIdx(r uint64) int { return int(r / s.perShrd) }

// rowAddr resolves a row to its device and device-local address.
func (s *Store) rowAddr(r uint64) (si int, port flit.PortID, addr uint64) {
	si = s.shardIdx(r)
	sh := &s.shards[si]
	return si, sh.Dev.Port, sh.DataBase + (r-sh.FirstRow)*s.cfg.SlotSize
}

// intentAddr resolves one WAL slot of (host, shard).
func (s *Store) intentAddr(sh *Shard, hostIdx, slot int) uint64 {
	return sh.IntentBase + (uint64(hostIdx)*uint64(s.cfg.IntentSlots)+uint64(slot))*s.recSize
}

// RegisterStats exports every client's transaction accounting — issued,
// committed, typed errors, quota stalls, plus the endpoint retry and
// timeout counters the zero-unaccounted audit reads — and the per-op
// latency histograms, one child per client in host order.
func (s *Store) RegisterStats(st *sim.Stats) {
	st.Gauge("tenants", func() int64 { return int64(s.cfg.Tenants) })
	st.Gauge("shards", func() int64 { return int64(len(s.shards)) })
	st.Gauge("rows", func() int64 { return int64(s.rows) })
	for _, c := range s.clients {
		c.registerStats(st.Child(c.h.Name()))
	}
}

// FillValue writes the canonical deterministic value for (tenant, key,
// stamp) into buf — tests and the workload generator use it so any row
// can be re-derived and checked without remembering what was written.
func FillValue(buf []byte, tenant int, key, stamp uint64) {
	seed := uint64(tenant)*0x9e3779b97f4a7c15 ^ key*0xbf58476d1ce4e5b9 ^ stamp
	for i := range buf {
		seed = seed*6364136223846793005 + 1442695040888963407
		buf[i] = byte(seed >> 56)
	}
}

// Typed is txn.Typed. It stays because cmd/fccperf, the end-to-end
// benchmark, calls it.
func Typed(err error) bool { return txn.Typed(err) }

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
