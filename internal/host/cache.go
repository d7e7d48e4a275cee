// Package host models a host server on the composable infrastructure:
// a CPU core front end with limited issue width and MSHRs, a two-level
// write-back cache hierarchy with a victim buffer, hardware prefetchers,
// local DIMMs, and a fabric host adapter (FHA) through which load/store
// misses to fabric-attached memory travel (§2.2, §3 Difference #1).
//
// Timing constants are calibrated so the memory-hierarchy experiment
// reproduces the paper's Table 2; the calibration is documented in
// EXPERIMENTS.md.
package host

import (
	"fmt"

	"fcc/internal/sim"
)

// LineSize is the cacheline size in bytes, fixed at 64 as in the paper.
const LineSize = 64

// LineMask aligns an address down to its cacheline.
const LineMask = ^uint64(LineSize - 1)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Size     int      // total bytes
	Ways     int      // associativity
	ReadLat  sim.Time // lookup time on the read path
	WriteLat sim.Time // lookup time on the write path
}

// Sets reports the number of sets.
func (c CacheConfig) Sets() int { return c.Size / (LineSize * c.Ways) }

// Validate checks geometry.
func (c CacheConfig) Validate() error {
	if c.Size <= 0 || c.Ways <= 0 {
		return fmt.Errorf("host: cache size/ways must be positive")
	}
	if c.Size%(LineSize*c.Ways) != 0 {
		return fmt.Errorf("host: cache size %d not divisible into %d-way sets of %dB lines",
			c.Size, c.Ways, LineSize)
	}
	return nil
}

// line is one cache line.
type line struct {
	tag   uint64 // full line address (addr &^ 63)
	valid bool
	dirty bool
	pref  bool // filled by the prefetcher, not yet demanded
	lru   uint64
	data  [LineSize]byte
}

// setsPerChunk is the lazy-allocation granule of the line store.
const setsPerChunk = 64

// cache is a set-associative, write-back, LRU cache holding real data.
// The line store is chunked and allocated on first touch — a default
// L2 is ~1.5MB of line state, and a 512-endpoint cluster would spend
// hundreds of milliseconds zeroing line arrays its workload never
// reaches. Chunking keeps resident line state proportional to each
// host's working set and makes boot allocation near-zero; untouched
// chunks read as all-invalid, exactly like eagerly-zeroed lines.
type cache struct {
	cfg    CacheConfig
	nsets  int
	chunks [][]line // chunk c covers sets [c*setsPerChunk, (c+1)*setsPerChunk)
	tick   uint64

	hits   sim.Counter
	misses sim.Counter
}

func newCache(cfg CacheConfig) *cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	return &cache{cfg: cfg, nsets: nsets,
		chunks: make([][]line, (nsets+setsPerChunk-1)/setsPerChunk)}
}

func (c *cache) setFor(lineAddr uint64) []line {
	set := int((lineAddr / LineSize) % uint64(c.nsets))
	ci := set / setsPerChunk
	ch := c.chunks[ci]
	if ch == nil {
		n := setsPerChunk
		if rem := c.nsets - ci*setsPerChunk; rem < n {
			n = rem
		}
		ch = make([]line, n*c.cfg.Ways)
		c.chunks[ci] = ch
	}
	off := (set - ci*setsPerChunk) * c.cfg.Ways
	return ch[off : off+c.cfg.Ways]
}

// lookup finds a line, updating LRU on hit.
func (c *cache) lookup(lineAddr uint64) *line {
	set := c.setFor(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			c.tick++
			set[i].lru = c.tick
			c.hits.Inc()
			return &set[i]
		}
	}
	c.misses.Inc()
	return nil
}

// peek is lookup without LRU update or hit/miss accounting.
func (c *cache) peek(lineAddr uint64) *line {
	set := c.setFor(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// victim describes an evicted dirty line.
type victim struct {
	addr uint64
	data [LineSize]byte
}

// insert places data for lineAddr, returning the evicted dirty victim if
// any. Inserting a line that is already present overwrites it in place.
func (c *cache) insert(lineAddr uint64, data *[LineSize]byte, dirty bool) (victim, bool) {
	set := c.setFor(lineAddr)
	c.tick++
	// Already present (e.g. a prefetch raced a demand fill): refresh.
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].data = *data
			set[i].dirty = set[i].dirty || dirty
			set[i].lru = c.tick
			return victim{}, false
		}
	}
	// Choose an invalid way, else the LRU way.
	vi, oldest := -1, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < oldest {
			vi, oldest = i, set[i].lru
		}
	}
	ev := victim{}
	evicted := false
	if set[vi].valid && set[vi].dirty {
		ev = victim{addr: set[vi].tag, data: set[vi].data}
		evicted = true
	}
	set[vi] = line{tag: lineAddr, valid: true, dirty: dirty, lru: c.tick, data: *data}
	return ev, evicted
}

// invalidate removes a line, returning its data and dirtiness.
func (c *cache) invalidate(lineAddr uint64) (data [LineSize]byte, dirty, present bool) {
	set := c.setFor(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			data, dirty = set[i].data, set[i].dirty
			set[i] = line{}
			return data, dirty, true
		}
	}
	return data, false, false
}
