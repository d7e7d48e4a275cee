package fabric

import (
	"fmt"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// BenchmarkSwitchRouting measures simulator cost per routed request
// (request + response) across a line of 1 and of 3 switches; the
// difference between the two is the cost of two switch hops each way.
func BenchmarkSwitchRouting(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("switches=%d", n), func(b *testing.B) {
			eng, h, dst := lineRig(b, n, DefaultSwitchConfig())
			eng.Go("driver", func(p *sim.Proc) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: dst}).MustAwait(p)
				}
			})
			eng.Run()
		})
	}
}

// benchLine4 builds the historical 4-switch/64-endpoint line.
func benchLine4(b *testing.B) *Builder {
	b.Helper()
	bd := NewBuilder(sim.NewEngine())
	var sws []*Switch
	for s := 0; s < 4; s++ {
		sws = append(sws, bd.AddSwitch("fs", DefaultSwitchConfig()))
		if s > 0 {
			if err := bd.ConnectSwitches(sws[s-1], sws[s], link.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	}
	for e := 0; e < 64; e++ {
		if _, err := bd.AttachEndpoint(sws[e%4], "ep", RoleHost, link.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	return bd
}

// benchTopo builds a generated topology with eps endpoints round-robin
// over the edge tier.
func benchTopo(b *testing.B, spec TopoSpec, eps int) *Builder {
	b.Helper()
	bd := NewBuilder(sim.NewEngine())
	nsw, nisl, err := spec.Counts()
	if err != nil {
		b.Fatal(err)
	}
	bd.Reserve(nsw, nisl, eps)
	topo, err := Generate(bd, spec, DefaultSwitchConfig())
	if err != nil {
		b.Fatal(err)
	}
	for e := 0; e < eps; e++ {
		if _, err := bd.AttachEndpoint(topo.Edge[e%len(topo.Edge)], "ep", RoleHost, link.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	return bd
}

// fatTree64 is the 64-switch/512-endpoint acceptance-scale fabric.
var fatTree64 = TopoSpec{Kind: TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}

// BenchmarkDiscovery measures full fabric-manager route installation —
// the per-home-switch batched BFS — across topology scales.
func BenchmarkDiscovery(b *testing.B) {
	cases := []struct {
		name  string
		build func(b *testing.B) *Builder
	}{
		{"line-4sw-64ep", benchLine4},
		{"fat-tree-16sw-96ep", func(b *testing.B) *Builder {
			return benchTopo(b, TopoSpec{Kind: TopoFatTree, Tiers: 3, Radix: 4, Pods: 3}, 96)
		}},
		{"fat-tree-64sw-512ep", func(b *testing.B) *Builder {
			return benchTopo(b, fatTree64, 512)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			bd := tc.build(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd.InstallRoutesFull(DeadSet{})
			}
		})
	}
}

// BenchmarkRouteRepair measures the manager's incremental route-around
// for a single ISL death on the 64-switch fat-tree (the acceptance bar
// is ≥10× over BenchmarkRouteRepairFull). Each iteration repairs the
// death and restores the link outside the timer.
func BenchmarkRouteRepair(b *testing.B) {
	bd := benchTopo(b, fatTree64, 512)
	dead := DeadSet{
		Switches: make([]bool, len(bd.switches)),
		ISLs:     make([]bool, len(bd.links)),
		Atts:     make([]bool, len(bd.attached)),
	}
	bd.InstallRoutesFull(dead)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dead.ISLs[7] = true
		bd.RepairRoutes(dead, nil, []int{7}, nil)
		b.StopTimer()
		dead.ISLs[7] = false
		bd.InstallRoutesFull(dead)
		b.StartTimer()
	}
}

// BenchmarkRouteRepairFull is the same single-ISL death handled by a
// full recompute — what every fault cost before the incremental engine.
func BenchmarkRouteRepairFull(b *testing.B) {
	bd := benchTopo(b, fatTree64, 512)
	dead := DeadSet{
		Switches: make([]bool, len(bd.switches)),
		ISLs:     make([]bool, len(bd.links)),
		Atts:     make([]bool, len(bd.attached)),
	}
	bd.InstallRoutesFull(dead)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dead.ISLs[7] = true
		bd.InstallRoutesFull(dead)
		b.StopTimer()
		dead.ISLs[7] = false
		bd.InstallRoutesFull(dead)
		b.StartTimer()
	}
}
