package exp

import (
	"testing"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/link"
	"fcc/internal/txn"
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

// TestEndpointBooksAtQuiescence checks the transaction layer's books
// once Run has drained a cluster: no host or FAM endpoint may have a
// request pending, and every tombstone must stand for a timeout whose
// response never came (no shape sets DrainHorizon, so a tomb clears only
// when its late response lands). Three shapes: E11's FabStore ring
// under its fault plan, where requests time out and retry; E9's full
// plan, whose fenced FAM leaves timeouts unanswered; and the 2-shard
// fat-tree.
func TestEndpointBooksAtQuiescence(t *testing.T) {
	fatTree := fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}
	for _, tc := range []struct {
		name              string
		run               func() *fcc.Cluster
		retries, leftover bool // the shape must retry / leave tombstones
	}{
		{"fabstore-ring-faults", func() *fcc.Cluster {
			c, st := fabStoreCluster(1, true)
			if err := c.SchedulePlan(fabStorePlan()); err != nil {
				t.Fatal(err)
			}
			fabStoreDrivers(c, st, 1, 400, fabStoreMixes()[0])
			c.Run()
			return c
		}, true, false},
		{"blast-full-plan", func() *fcc.Cluster {
			_, _, _, _, c := blastFullPlan(3)
			return c
		}, true, true},
		{"fattree-2shards", func() *fcc.Cluster {
			c, err := fcc.New(fcc.Config{Hosts: 448, FAMs: 64, FAMCapacity: 1 << 22, Topology: &fatTree, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			scaleWorkload(c, 1, 4, 4)
			c.Run()
			return c
		}, false, false},
	} {
		c := tc.run()
		var eps []*txn.Endpoint
		for _, h := range c.Hosts {
			eps = append(eps, h.Endpoint())
		}
		for _, f := range c.FAMs {
			eps = append(eps, f.Endpoint())
		}
		var sent, retries, tombs int64
		for _, ep := range eps {
			if n := ep.Outstanding(); n != 0 {
				t.Errorf("%s: endpoint %d has %d requests pending after the drain", tc.name, ep.ID(), n)
			}
			if want := ep.Timeouts.Value() - ep.LateResps.Value(); int64(ep.Tombstones()) != want {
				t.Errorf("%s: endpoint %d holds %d tombstones; %d timeouts less %d late responses is %d",
					tc.name, ep.ID(), ep.Tombstones(), ep.Timeouts.Value(), ep.LateResps.Value(), want)
			}
			sent += ep.ReqsSent.Value()
			retries += ep.Retries.Value()
			tombs += int64(ep.Tombstones())
		}
		t.Logf("%s: %d endpoints, %d requests sent, %d retries, %d tombstones left",
			tc.name, len(eps), sent, retries, tombs)
		if sent == 0 || tc.retries && retries == 0 || tc.leftover && tombs == 0 {
			t.Errorf("%s: %d requests, %d retries, %d tombstones: the shape no longer exercises what it is here for",
				tc.name, sent, retries, tombs)
		}
	}
}
