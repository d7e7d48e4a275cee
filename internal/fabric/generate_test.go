package fabric

import (
	"fmt"
	"testing"

	"fcc/internal/link"
	"fcc/internal/sim"
)

// buildTopo generates spec with eps endpoints round-robin over the edge
// tier and runs discovery.
func buildTopo(t *testing.T, spec TopoSpec, eps int) (*Builder, *Topology) {
	t.Helper()
	eng := sim.NewEngine()
	b := NewBuilder(eng)
	nsw, nisl, err := spec.Counts()
	if err != nil {
		t.Fatal(err)
	}
	b.Reserve(nsw, nisl, eps)
	topo, err := Generate(b, spec, DefaultSwitchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.All) != nsw {
		t.Fatalf("Counts promised %d switches, Generate built %d", nsw, len(topo.All))
	}
	if len(b.links) != nisl {
		t.Fatalf("Counts promised %d ISLs, Generate built %d", nisl, len(b.links))
	}
	for i := 0; i < eps; i++ {
		sw := topo.Edge[i%len(topo.Edge)]
		if _, err := b.AttachEndpoint(sw, fmt.Sprintf("ep%d", i), RoleHost, link.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	return b, topo
}

// hopsAndWidth walks the installed route tables from switch src toward
// endpoint attachment dst: path length in switch hops and the ECMP
// width (candidate count) at src. Following any candidate must converge
// in ≤ len(switches) hops or the table is broken.
func hopsAndWidth(t *testing.T, b *Builder, src *Switch, dst *Attachment) (hops, width int) {
	t.Helper()
	width = len(src.routeFor(dst.ID))
	cur := src
	for hops = 0; cur != dst.Switch; hops++ {
		if hops > len(b.switches) {
			t.Fatalf("route from %s to %s does not converge", src.name, dst.Name)
		}
		outs := cur.routeFor(dst.ID)
		if len(outs) == 0 {
			t.Fatalf("switch %s has no route to %s", cur.name, dst.Name)
		}
		next := (*Switch)(nil)
		for _, l := range b.links {
			if l.a == cur && l.aPort == outs[0] {
				next = l.b
			} else if l.b == cur && l.bPort == outs[0] {
				next = l.a
			}
		}
		if next == nil {
			t.Fatalf("switch %s route to %s exits via a non-ISL port", cur.name, dst.Name)
		}
		cur = next
	}
	return hops, width
}

func TestFatTree3Invariants(t *testing.T) {
	// k=4, 3 pods: 6 edge + 6 agg + 4 core = 16 switches, 24 ISLs.
	spec := TopoSpec{Kind: TopoFatTree, Tiers: 3, Radix: 4, Pods: 3}
	b, topo := buildTopo(t, spec, 12)
	if got := len(topo.All); got != 16 {
		t.Fatalf("switches = %d, want 16", got)
	}
	if len(topo.Edge) != 6 || len(topo.Agg) != 6 || len(topo.Core) != 4 {
		t.Fatalf("tier sizes = %d/%d/%d, want 6/6/4", len(topo.Edge), len(topo.Agg), len(topo.Core))
	}

	// Every live (switch, endpoint) pair has an installed route.
	for _, sw := range b.switches {
		for _, att := range b.attached {
			if sw == att.Switch {
				continue
			}
			if len(sw.routeFor(att.ID)) == 0 {
				t.Fatalf("no route from %s to %s", sw.name, att.Name)
			}
		}
	}

	// ECMP widths and path lengths: the walk from an edge switch to an
	// endpoint homed in another pod crosses 4 ISLs with (k/2)=2-wide
	// fan-out at the edge; intra-pod 2 ISLs; the home switch delivers
	// directly on 1 candidate port.
	ep0 := b.attached[0] // homed on pod 0's first edge switch
	if ep0.Switch != topo.Edge[0] {
		t.Fatalf("round-robin placement moved: ep0 on %s", ep0.Switch.name)
	}
	if hops, width := hopsAndWidth(t, b, topo.Edge[2], ep0); hops != 4 || width != 2 {
		t.Fatalf("inter-pod edge: hops=%d width=%d, want 4, 2", hops, width)
	}
	if hops, width := hopsAndWidth(t, b, topo.Edge[1], ep0); hops != 2 || width != 2 {
		t.Fatalf("intra-pod edge: hops=%d width=%d, want 2, 2", hops, width)
	}
	if w := len(ep0.Switch.routeFor(ep0.ID)); w != 1 {
		t.Fatalf("home delivery width=%d, want 1", w)
	}
	// A core switch is 2 hops from any edge, one downlink candidate.
	if hops, width := hopsAndWidth(t, b, topo.Core[0], ep0); hops != 2 || width != 1 {
		t.Fatalf("core: hops=%d width=%d, want 2, 1", hops, width)
	}

	// Diameter of the switch graph: 4 (edge-agg-core-agg-edge).
	if d := routedDiameter(b); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestLeafSpineInvariants(t *testing.T) {
	// 8 leaves x 4 spines.
	spec := TopoSpec{Kind: TopoFatTree, Tiers: 2, Radix: 8}
	b, topo := buildTopo(t, spec, 16)
	if len(topo.Edge) != 8 || len(topo.Core) != 4 {
		t.Fatalf("tiers = %d leaves / %d spines, want 8/4", len(topo.Edge), len(topo.Core))
	}
	ep0 := b.attached[0]
	if hops, width := hopsAndWidth(t, b, topo.Edge[3], ep0); hops != 2 || width != 4 {
		t.Fatalf("leaf-to-leaf: hops=%d width=%d, want 2, 4", hops, width)
	}
	if d := routedDiameter(b); d != 2 {
		t.Fatalf("diameter = %d, want 2", d)
	}
}

func TestDragonflyInvariants(t *testing.T) {
	// a=4 routers/group, default groups = 5: 20 routers; mesh 6*5=30
	// intra + 10 global ISLs.
	spec := TopoSpec{Kind: TopoDragonfly, Radix: 8, Pods: 4}
	b, topo := buildTopo(t, spec, 20)
	if len(topo.All) != 20 || len(b.links) != 40 {
		t.Fatalf("got %d switches / %d ISLs, want 20/40", len(topo.All), len(b.links))
	}
	for _, sw := range b.switches {
		for _, att := range b.attached {
			if sw != att.Switch && len(sw.routeFor(att.ID)) == 0 {
				t.Fatalf("no route from %s to %s", sw.name, att.Name)
			}
		}
	}
	if d := routedDiameter(b); d > 3 {
		t.Fatalf("dragonfly diameter = %d, want ≤ 3", d)
	}
}

// TestChainInvariants checks the chain generator over Groups 1–4 ×
// Pods 1–3: Counts matches what Generate builds (buildTopo checks it),
// switches are named fs0, fs1, … in group order, every intra-group link
// is a line step and comes before every group-to-group link, each
// group's last switch links to the next group's first, the group line
// closes into a ring only from three groups on (two groups get one
// link), and PodSwitches(g) is group g.
func TestChainInvariants(t *testing.T) {
	for g := 1; g <= 4; g++ {
		for p := 1; p <= 3; p++ {
			b, topo := buildTopo(t, TopoSpec{Kind: TopoChain, Groups: g, Pods: p}, g*p)
			for i, sw := range topo.All {
				if want := fmt.Sprintf("fs%d", i); sw.name != want || topo.Edge[i] != sw {
					t.Fatalf("%dx%d: switch %d is %s (edge %v), want %s on the edge tier", g, p, i, sw.name, topo.Edge[i] == sw, want)
				}
			}
			intra, hops := 0, 0
			for li, l := range b.links {
				ga, gb := l.a.idx/p, l.b.idx/p
				switch {
				case ga == gb && hops > 0:
					t.Fatalf("%dx%d: intra-group link %d (%s) after a group-to-group link", g, p, li, l.link.FaultID())
				case ga == gb && l.b.idx != l.a.idx+1:
					t.Fatalf("%dx%d: intra-group link %s is not a line step", g, p, l.link.FaultID())
				case ga == gb:
					intra++
				case l.a.idx != ga*p+p-1 || l.b.idx != (ga+1)%g*p:
					t.Fatalf("%dx%d: group-to-group link %s does not join a group's last switch to the next group's first", g, p, l.link.FaultID())
				default:
					hops++
				}
			}
			wantHops := g - 1
			if g >= 3 {
				wantHops = g
			}
			if intra != g*(p-1) || hops != wantHops {
				t.Fatalf("%dx%d: %d intra-group and %d group-to-group links, want %d and %d", g, p, intra, hops, g*(p-1), wantHops)
			}
			for gi := 0; gi < g; gi++ {
				pod := topo.PodSwitches(gi)
				if len(pod) != p || pod[0] != topo.All[gi*p] || pod[p-1] != topo.All[gi*p+p-1] {
					t.Fatalf("%dx%d: PodSwitches(%d) is not group %d", g, p, gi, gi)
				}
			}
		}
	}

	// Groups of one switch are a ring: the opposite switch of a 4-ring
	// is 2 hops away in both directions.
	b, topo := buildTopo(t, TopoSpec{Kind: TopoChain, Groups: 4, Pods: 1}, 4)
	if hops, width := hopsAndWidth(t, b, topo.Edge[0], b.attached[2]); hops != 2 || width != 2 {
		t.Fatalf("4-ring opposite switch: hops=%d width=%d, want 2, 2", hops, width)
	}
}

// TestShardedBuilderCutsContiguousBlocks checks the sharded builder's
// domain map: switch i of n lands in domain i*Shards/n, endpoints join
// their switch's domain and engine, only block-boundary links cross
// domains, and Discover sets each joined pair's lookahead to the
// propagation of its cut links.
func TestShardedBuilderCutsContiguousBlocks(t *testing.T) {
	lc := link.DefaultConfig()
	co := sim.NewCoordinator(3, lc.Phys.Propagation)
	b := NewShardedBuilder(co, 5)
	topo, err := Generate(b, TopoSpec{Kind: TopoChain, Groups: 5, Pods: 1}, DefaultSwitchConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantDom := []int{0, 0, 1, 1, 2}
	for i, sw := range topo.All {
		att, err := b.AttachEndpoint(sw, fmt.Sprintf("ep%d", i), RoleHost, lc)
		if err != nil {
			t.Fatal(err)
		}
		if att.Domain != wantDom[i] || att.Eng != co.Engine(wantDom[i]) {
			t.Fatalf("ep%d on %s: domain %d, want %d on its engine", i, sw.name, att.Domain, wantDom[i])
		}
	}
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	wantSides := map[string][2]int{
		"fs0<->fs1": {0, 0}, "fs1<->fs2": {0, 1}, "fs2<->fs3": {1, 1},
		"fs3<->fs4": {1, 2}, "fs4<->fs0": {2, 0},
	}
	for _, l := range b.ISLLinks() {
		da, db, ok := b.LinkSideDomains(l)
		if want := wantSides[l.FaultID()]; !ok || [2]int{da, db} != want {
			t.Fatalf("%s sides in domains %d, %d, want %v", l.FaultID(), da, db, want)
		}
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if la := co.Lookahead(src, dst); src != dst && la != lc.Phys.Propagation {
				t.Fatalf("lookahead %d->%d = %v, want %v", src, dst, la, lc.Phys.Propagation)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a sixth switch on a builder sized for five did not panic")
		}
	}()
	b.AddSwitch("fs5", DefaultSwitchConfig())
}

// routedDiameter computes the switch-graph diameter from the route
// engine's stored distance vectors (every home was BFS'd at Discover).
func routedDiameter(b *Builder) int {
	max := 0
	for h := range b.switches {
		if len(b.re.homeAtts[h]) == 0 {
			continue
		}
		for _, d := range b.re.dist[h] {
			if int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}

func TestTopoSpecValidation(t *testing.T) {
	bad := []TopoSpec{
		{Kind: TopoFatTree, Radix: 5},                    // odd radix
		{Kind: TopoFatTree, Radix: 4, Tiers: 4},          // bad tiers
		{Kind: TopoFatTree, Radix: 4, Tiers: 3, Pods: 9}, // pods > radix
		{Kind: TopoDragonfly, Radix: 2, Pods: 8},         // degree > radix
		{Kind: TopoDragonfly, Radix: 8, Pods: 4, Groups: 1},
		{Kind: TopoChain, Groups: 2, Pods: -1},
		{Kind: TopoChain, Groups: -1, Pods: 2},
		{Kind: TopoKind(99)},
	}
	for i, spec := range bad {
		if _, _, err := spec.Counts(); err == nil {
			t.Errorf("spec %d (%+v) validated, want error", i, spec)
		}
	}
	// 64-switch fat-tree: k=8, 6 pods -> 48 pod switches + 16 cores.
	nsw, nisl, err := (TopoSpec{Kind: TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}).Counts()
	if err != nil || nsw != 64 || nisl != 192 {
		t.Fatalf("64sw fat-tree Counts = %d, %d, %v; want 64, 192, nil", nsw, nisl, err)
	}
	// A chain's zero Groups and Pods mean one: a single switch.
	if nsw, nisl, err := (TopoSpec{Kind: TopoChain}).Counts(); err != nil || nsw != 1 || nisl != 0 {
		t.Fatalf("zero chain Counts = %d, %d, %v; want 1, 0, nil", nsw, nisl, err)
	}
}
