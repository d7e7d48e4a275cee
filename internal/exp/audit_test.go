package exp

import (
	"testing"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
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
		streams := hostStreams(c, 1, tc.ops, scaleStream(c, 4), nil)
		c.Run()
		committed := streams.account(c).Committed
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

// drainedShape is a cluster shape that run builds, drives and runs
// until its engines drain.
type drainedShape struct {
	name              string
	run               func() *fcc.Cluster
	retries, leftover bool // the shape must retry / leave tombstones
}

// drainedShapes are the quiescence audits' shapes: E11's FabStore ring
// under its fault plan, where requests time out and retry; E9's full
// plan, whose fenced FAM leaves timeouts unanswered; and the 2-shard
// fat-tree.
func drainedShapes(t *testing.T) []drainedShape {
	fatTree := fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}
	return []drainedShape{
		{"fabstore-ring-faults", func() *fcc.Cluster {
			c, st := fabStoreCluster(1, true)
			if err := c.SchedulePlan(chainPlan(4)); err != nil {
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
			hostStreams(c, 1, 4, scaleStream(c, 4), nil)
			c.Run()
			return c
		}, false, false},
	}
}

// TestEndpointBooksAtQuiescence checks the transaction layer's books
// once Run has drained a cluster: no host or FAM endpoint may have a
// request pending, and every tombstone must stand for a timeout whose
// response never came (a tomb clears only when its late response
// lands). It runs the three drainedShapes.
func TestEndpointBooksAtQuiescence(t *testing.T) {
	for _, tc := range drainedShapes(t) {
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

// TestQueuesDrainAtQuiescence checks the link layer's, the switches' and
// the semaphores' books once Run has drained a cluster. On both ports of
// every inter-switch and endpoint link, every VC must have nothing
// queued to send, nothing in its receive buffer, replay buffer or
// reorder stash, and all its credits back: the peer's receive limit. No
// switch port may hold a train, and every tags, MSHR, victim-buffer and
// core gauge in the stats snapshot must read 0. It runs the three
// drainedShapes (E9's injected credit leak heals before its run ends)
// and the ring whose links retry at BER 0.02, which must retransmit so
// that the retry queues run.
func TestQueuesDrainAtQuiescence(t *testing.T) {
	shapes := append(drainedShapes(t), drainedShape{name: "ring-4-retry", run: func() *fcc.Cluster {
		c := traceReplayCluster()
		hostStreams(c, 1, 40, scaleStream(c, 4), nil)
		c.Run()
		return c
	}})
	for _, tc := range shapes {
		c := tc.run()
		links := c.Builder.ISLLinks()
		for _, att := range c.Builder.Attachments() {
			links = append(links, att.Link)
		}
		var retransmits int64
		for _, l := range links {
			for _, side := range [2][2]*link.Port{{l.A(), l.B()}, {l.B(), l.A()}} {
				p, peer := side[0], side[1]
				retransmits += p.Retransmits.Value()
				for vc := flit.Channel(0); vc < flit.NumChannels; vc++ {
					for _, q := range []struct {
						what string
						n    int
					}{
						{"queued flits", p.TxQueueFlits(vc)},
						{"queued packets", p.TxQueuePackets(vc)},
						{"receive-buffer slots in use", p.RxBufUsed(vc)},
						{"replay-buffer flits", p.ReplayBufferLen(vc)},
						{"stashed flits", p.RxStashLen(vc)},
					} {
						if q.n != 0 {
							t.Errorf("%s: port %s VC %d has %d %s after the drain", tc.name, p.Name(), vc, q.n, q.what)
						}
					}
					if got, want := p.Credits(vc), peer.RxLimit(vc); got != want {
						t.Errorf("%s: port %s VC %d has %d credits after the drain, want its peer's receive limit %d",
							tc.name, p.Name(), vc, got, want)
					}
				}
			}
		}
		for _, sw := range c.Builder.Switches() {
			for i := 0; i < sw.Ports(); i++ {
				if n := sw.QueuedAt(i); n != 0 {
					t.Errorf("%s: switch %s port %d holds %d trains after the drain", tc.name, sw.Name(), i, n)
				}
			}
		}
		gauges := 0
		var walk func(s *sim.StatsSnapshot, path string)
		walk = func(s *sim.StatsSnapshot, path string) {
			path += "/" + s.Name
			for _, g := range []string{"tags_in_use", "mshrs_in_use", "victim_buf_in_use", "cores_in_use"} {
				if v, ok := s.Gauges[g]; ok {
					gauges++
					if v != 0 {
						t.Errorf("%s: %s %s = %d after the drain", tc.name, path, g, v)
					}
				}
			}
			for _, ch := range s.Children {
				walk(ch, path)
			}
		}
		walk(c.Stats().Snapshot(), "")
		t.Logf("%s: %d links, %d in-use gauges, %d retransmits", tc.name, len(links), gauges, retransmits)
		if gauges == 0 || tc.name == "ring-4-retry" && retransmits == 0 {
			t.Errorf("%s: %d in-use gauges, %d retransmits: the shape no longer exercises what it is here for",
				tc.name, gauges, retransmits)
		}
	}
}
