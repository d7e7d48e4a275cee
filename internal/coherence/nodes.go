package coherence

import (
	"encoding/binary"

	"fcc/internal/host"
	"fcc/internal/sim"
)

// NodeClient is the uniform software-visible interface over the four
// memory-node types, so workloads (and the E6 node-type experiment) can
// run unchanged across them.
type NodeClient interface {
	// Read64P coherently (per the node's own contract) reads 8 bytes.
	Read64P(p *sim.Proc, addr uint64) uint64
	// Write64P writes 8 bytes.
	Write64P(p *sim.Proc, addr uint64, v uint64)
	// Kind names the node type.
	Kind() string
}

// Kind implements NodeClient for the CC-NUMA / COMA directory client.
func (c *Client) Kind() string {
	if c.cfg.CapacityLines >= 1<<16 {
		return "COMA"
	}
	return "CC-NUMA"
}

// CPULessClient accesses a Type 3 expander through the host's own cache
// hierarchy (host-only coherence): the fabric-attached CPU-less NUMA
// node of Difference #2. Correct only while the host owns the region
// exclusively (or software partitions writers).
type CPULessClient struct {
	H    *host.Host
	Base uint64 // host address where the device region is mapped
}

// Kind implements NodeClient.
func (c *CPULessClient) Kind() string { return "CPU-less NUMA" }

// Read64P implements NodeClient via the host's cached path.
func (c *CPULessClient) Read64P(p *sim.Proc, addr uint64) uint64 {
	return c.H.Load64P(p, c.Base+addr)
}

// Write64P implements NodeClient via the host's cached path.
func (c *CPULessClient) Write64P(p *sim.Proc, addr uint64, v uint64) {
	c.H.Store64P(p, c.Base+addr, v)
}

// NCCClient accesses a non-cache-coherent NUMA node. Every access goes
// to the device uncached, so the hosts sharing the node always observe
// each other's writes. Software that caches such a node builds its own
// coherence from the host's barriers instead: FlushRangeP before
// publishing, InvalidateRange before consuming.
type NCCClient struct {
	H    *host.Host
	Base uint64
}

// Kind implements NodeClient.
func (c *NCCClient) Kind() string { return "NCC-NUMA" }

// Read64P implements NodeClient. It panics if the read fails, since
// NodeClient returns no error.
func (c *NCCClient) Read64P(p *sim.Proc, addr uint64) uint64 {
	b, err := c.H.UncachedReadP(p, c.Base+addr, 8)
	if err != nil {
		panic(err)
	}
	return binary.LittleEndian.Uint64(b)
}

// Write64P implements NodeClient. It panics if the write fails, since
// NodeClient returns no error.
func (c *NCCClient) Write64P(p *sim.Proc, addr uint64, v uint64) {
	if err := c.H.UncachedWriteP(p, c.Base+addr, binary.LittleEndian.AppendUint64(nil, v)); err != nil {
		panic(err)
	}
}
