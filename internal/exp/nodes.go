package exp

import (
	"fcc"
	"fcc/internal/coherence"
	"fcc/internal/sim"
)

// NodeRow is one (node type, workload) measurement.
type NodeRow struct {
	Kind       string
	ReadShared float64 // mean ns, read-heavy shared working set
	PingPong   float64 // mean ns, migratory write sharing between 2 nodes
	BigSet     float64 // mean ns, working set beyond a small coherent cache
}

// NodeTypes compares the four memory-node types of Difference #2 under
// three canonical sharing patterns. Each client implements the same
// NodeClient interface, so the workloads are identical.
func NodeTypes() []NodeRow {
	kinds := []string{"CPU-less NUMA", "CC-NUMA", "NCC-NUMA", "COMA"}
	rows := make([]NodeRow, len(kinds))
	for i, k := range kinds {
		rows[i].Kind = k
		rows[i].ReadShared = nodeWorkload(k, "readshared")
		rows[i].PingPong = nodeWorkload(k, "pingpong")
		rows[i].BigSet = nodeWorkload(k, "bigset")
	}
	return rows
}

// buildClients returns two NodeClients of the given kind sharing one
// device.
func buildClients(kind string) (*fcc.Cluster, [2]coherence.NodeClient) {
	coherent := kind == "CC-NUMA" || kind == "COMA"
	c, err := fcc.New(fcc.Config{
		Hosts: 2, FAMs: 1, FAMCapacity: 1 << 26, Coherent: coherent,
	})
	if err != nil {
		panic(err)
	}
	var out [2]coherence.NodeClient
	for i, h := range c.Hosts {
		switch kind {
		case "CPU-less NUMA", "NCC-NUMA":
			// Uncached access; for CPU-less NUMA, node 0 is replaced
			// below by the owner that caches the region.
			out[i] = &coherence.NCCClient{H: h, Base: c.FAMBase(0)}
		case "CC-NUMA":
			out[i] = c.NewCoherenceClient(h, 0, coherence.DefaultClientConfig())
		case "COMA":
			out[i] = c.NewCoherenceClient(h, 0, coherence.COMAClientConfig())
		}
	}
	if kind == "CPU-less NUMA" {
		// Exclusive ownership: node 0 uses the host cache hierarchy
		// directly (the Type 3 common case).
		out[0] = &coherence.CPULessClient{H: c.Hosts[0], Base: c.FAMBase(0)}
	}
	return c, out
}

func nodeWorkload(kind, wl string) float64 {
	c, cl := buildClients(kind)
	lat := sim.NewHistogram()
	switch wl {
	case "readshared":
		// Both nodes repeatedly read a 64-line shared region.
		for n := 0; n < 2; n++ {
			n := n
			c.Go("reader", func(p *sim.Proc) {
				for i := 0; i < 400; i++ {
					start := p.Now()
					cl[n].Read64P(p, uint64(i%64)*64)
					if i >= 64 {
						lat.ObserveTime(p.Now() - start)
					}
					p.Sleep(100 * sim.Nanosecond)
				}
			})
		}
	case "pingpong":
		// The two nodes alternate writing one line (migratory sharing).
		c.Go("pingpong", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				start := p.Now()
				cl[i%2].Write64P(p, 0x800, uint64(i))
				lat.ObserveTime(p.Now() - start)
			}
		})
	case "bigset":
		// One node sweeps 2048 lines twice (beyond a 512-line coherent
		// cache; within a COMA attraction memory).
		c.Go("sweep", func(p *sim.Proc) {
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < 2048; i++ {
					start := p.Now()
					cl[0].Read64P(p, uint64(i)*64)
					if pass == 1 {
						lat.ObserveTime(p.Now() - start)
					}
				}
			}
		})
	}
	c.Run()
	return lat.Mean()
}
