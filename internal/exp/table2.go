// Package exp implements every reproduction experiment: the paper's
// tables and figure, the quantitative claims embedded in §3, and one
// ablation per FCC design principle. Each experiment builds its own
// cluster, runs deterministically, and returns structured results that
// cmd/fccbench renders and the benchmark suite asserts against.
// EXPERIMENTS.md records paper-vs-measured for each.
package exp

import (
	"fmt"
	"strings"

	"fcc"
	"fcc/internal/fabricinfo"
	"fcc/internal/sim"
)

// Table1 regenerates the paper's Table 1 (commodity memory fabrics).
func Table1() string { return fabricinfo.Render() }

// Figure1 regenerates Figure 1b: the composable infrastructure
// topology, built and discovered, then rendered.
func Figure1() string {
	c, err := fcc.New(fcc.Config{
		Hosts: 2, FAMs: 2, FAMCapacity: 1 << 30, FAAs: 1,
		Agents: true, Arbiter: true, Switches: 2,
	})
	if err != nil {
		panic(err)
	}
	return c.Render()
}

// Table2Row is one memory-hierarchy level's measurement.
type Table2Row struct {
	Level      string
	ReadLatNs  float64
	WriteLatNs float64
	ReadMOPS   float64
	WriteMOPS  float64
}

// Table2Paper is the paper's Table 2 for side-by-side comparison.
var Table2Paper = []Table2Row{
	{"L1 cache", 5.4, 5.4, 357.4, 355.4},
	{"L2 cache", 13.6, 12.5, 143.4, 154.5},
	{"Local memory", 111.7, 119.3, 29.4, 16.9},
	{"Remote memory", 1575.3, 1613.3, 2.5, 2.5},
}

// Table2 measures 64B read/write latency and throughput at every level
// of the hierarchy on the calibrated default cluster.
func Table2() []Table2Row {
	rows := make([]Table2Row, 4)
	for i, level := range []string{"L1 cache", "L2 cache", "Local memory", "Remote memory"} {
		rows[i].Level = level
	}
	// Latencies: dependent accesses on one host.
	{
		c := mustCluster()
		h := c.Hosts[0]
		remote := c.FAMBase(0)
		c.Go("lat", func(p *sim.Proc) {
			// Local memory: first touch.
			start := p.Now()
			h.Load64P(p, 0x10000)
			rows[2].ReadLatNs = (p.Now() - start).Nanoseconds()
			start = p.Now()
			h.Store64P(p, 0x20000, 1)
			rows[2].WriteLatNs = (p.Now() - start).Nanoseconds()
			// L1: re-touch.
			start = p.Now()
			h.Load64P(p, 0x10000)
			rows[0].ReadLatNs = (p.Now() - start).Nanoseconds()
			start = p.Now()
			h.Store64P(p, 0x20000, 2)
			rows[0].WriteLatNs = (p.Now() - start).Nanoseconds()
			// L2: flood L1 (64KB of lines), re-touch.
			for i := uint64(0); i < 1024; i++ {
				h.Load64P(p, 0x100000+i*64)
			}
			start = p.Now()
			h.Load64P(p, 0x10000)
			rows[1].ReadLatNs = (p.Now() - start).Nanoseconds()
			start = p.Now()
			h.Store64P(p, 0x20000, 3)
			rows[1].WriteLatNs = (p.Now() - start).Nanoseconds()
			// Remote: first touch on FAM.
			start = p.Now()
			h.Load64P(p, remote)
			rows[3].ReadLatNs = (p.Now() - start).Nanoseconds()
			start = p.Now()
			h.Store64P(p, remote+0x1000, 1)
			rows[3].WriteLatNs = (p.Now() - start).Nanoseconds()
		})
		c.Run()
	}
	// Throughputs: independent streams, fresh cluster per cell.
	tp := func(write, remote bool, n int, twoPass bool) float64 {
		c := mustCluster()
		h := c.Hosts[0]
		base := uint64(0x100000)
		if remote {
			base = c.FAMBase(0)
		}
		issue := func(i int, done func()) {
			addr := base + uint64(i)*64
			if write {
				h.Store64(addr, uint64(i)).OnComplete(func(struct{}, error) { done() })
			} else {
				h.Load64(addr).OnComplete(func(uint64, error) { done() })
			}
		}
		var t0 sim.Time
		completed := 0
		measure := func() {
			t0 = c.Eng.Now()
			for i := 0; i < n; i++ {
				issue(i, func() { completed++ })
			}
		}
		c.Eng.After(0, func() {
			if !twoPass {
				measure()
				return
			}
			warm := 0
			for i := 0; i < n; i++ {
				issue(i, func() {
					warm++
					if warm == n {
						measure()
					}
				})
			}
		})
		c.Run()
		return float64(completed) / (c.Eng.Now() - t0).Seconds() / 1e6
	}
	// L1: hammer one hot line.
	hot := func(write bool) float64 {
		c := mustCluster()
		h := c.Hosts[0]
		done := 0
		var t0 sim.Time
		c.Eng.After(0, func() {
			h.Load64(0x1000).OnComplete(func(uint64, error) {
				t0 = c.Eng.Now()
				for i := 0; i < 2000; i++ {
					if write {
						h.Store64(0x1000, 1).OnComplete(func(struct{}, error) { done++ })
					} else {
						h.Load64(0x1000).OnComplete(func(uint64, error) { done++ })
					}
				}
			})
		})
		c.Run()
		return float64(done) / (c.Eng.Now() - t0).Seconds() / 1e6
	}
	// L2: stream over a 256KB set (fits L2, floods L1), second pass.
	l2 := func(write bool) float64 { return tp(write, false, 4096, true) }
	rows[0].ReadMOPS = hot(false)
	rows[0].WriteMOPS = hot(true)
	rows[1].ReadMOPS = l2(false)
	rows[1].WriteMOPS = l2(true)
	rows[2].ReadMOPS = tp(false, false, 32768, true)
	rows[2].WriteMOPS = tp(true, false, 32768, true)
	rows[3].ReadMOPS = tp(false, true, 400, false)
	rows[3].WriteMOPS = tp(true, true, 400, false)
	return rows
}

func mustCluster() *fcc.Cluster {
	c, err := fcc.New(fcc.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return c
}

// RenderTable2 prints measured vs paper.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s | %22s | %22s | %s\n", "Level",
		"Read lat ns (paper)", "Write lat ns (paper)", "R/W MOPS (paper)")
	for i, r := range rows {
		p := Table2Paper[i]
		fmt.Fprintf(&b, "%-14s | %8.1f (%8.1f)    | %8.1f (%8.1f)    | %.1f/%.1f (%.1f/%.1f)\n",
			r.Level, r.ReadLatNs, p.ReadLatNs, r.WriteLatNs, p.WriteLatNs,
			r.ReadMOPS, r.WriteMOPS, p.ReadMOPS, p.WriteMOPS)
	}
	return b.String()
}
