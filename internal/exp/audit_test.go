package exp

import (
	"testing"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/link"
)

// TestFlitPoolsDrainToZero checks the flit pools' books at quiescence:
// once Run has drained a cluster, no engine's link layer may have a flit
// out. Every flit a link minted must have come back, whoever held it —
// a replay buffer, a reorder stash, a switch's input buffer, the cut's
// marshalling. Two shapes: the datacenter fat-tree cut into two shards,
// and the ring whose links retry at BER 0.02 (ring-4-trace-replay's).
func TestFlitPoolsDrainToZero(t *testing.T) {
	fatTree := fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}
	for _, tc := range []struct {
		name  string
		build func() *fcc.Cluster
		ops   int
	}{
		{"fattree-2shards", func() *fcc.Cluster {
			c, err := fcc.New(fcc.Config{Hosts: 448, FAMs: 64, FAMCapacity: 1 << 22, Topology: &fatTree, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, 4},
		{"ring-4-retry", traceReplayCluster, 40},
	} {
		c := tc.build()
		done := scaleWorkload(c, 1, tc.ops, 4)
		c.Run()
		committed := 0
		for _, d := range done {
			committed += d
		}
		if committed == 0 {
			t.Fatalf("%s: no operation committed", tc.name)
		}
		for i := 0; i < c.Coord.Shards(); i++ {
			if n := link.LiveFlits(c.Coord.Engine(i)); n != 0 {
				t.Errorf("%s: engine %d's flit pools have %d flits out after the drain (%d ops committed)",
					tc.name, i, n, committed)
			}
		}
	}
}
