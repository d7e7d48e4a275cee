package fabric

import (
	"fmt"
	"strings"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// Role classifies a fabric endpoint for management and rendering.
type Role uint8

// Endpoint roles (Figure 1b).
const (
	RoleHost    Role = iota // a host server behind an FHA
	RoleFAM                 // fabric-attached memory chassis (behind an FEA)
	RoleFAA                 // fabric-attached accelerator chassis
	RoleManager             // the fabric manager / central arbiter
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleHost:
		return "host"
	case RoleFAM:
		return "FAM"
	case RoleFAA:
		return "FAA"
	case RoleManager:
		return "manager"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Attachment is what an endpoint receives when it joins the fabric: its
// assigned PBR ID and the link port it sends/receives on.
type Attachment struct {
	Name string
	Role Role
	ID   flit.PortID
	Port *link.Port
	// Link is the full endpoint link (both directions) — the handle the
	// fault injector and the manager's health sweep address it by.
	Link *link.Link
	// Switch and SwitchPort identify where the endpoint attaches.
	Switch     *Switch
	SwitchPort int
	// Domain is the failure domain (shard) the endpoint belongs to —
	// its home switch's domain. Always 0 on an unsharded builder.
	Domain int
	// Eng is the engine the endpoint's model code must schedule on:
	// its domain's private engine under sharding, the shared engine
	// otherwise.
	Eng *sim.Engine
}

// Builder assembles a fabric topology: switches, inter-switch links, and
// endpoint attachments. After construction, Discover plays the fabric
// manager: it walks the topology and installs PBR routes on every
// switch, exactly as the paper describes the FM "filling up the
// switching table" (§2.1).
type Builder struct {
	eng        *sim.Engine
	switches   []*Switch
	links      []*isl
	attached   []*Attachment
	nextID     flit.PortID
	discovered bool

	// Arenas: Reserve sizes these from the topology generator so cluster
	// assembly at datacenter scale allocates whole tiers at once instead
	// of one switch/link/attachment record at a time.
	swArena  []Switch
	islArena []isl
	attArena []Attachment

	// re is the route engine: batched per-home-switch BFS with reused
	// scratch, per-destination contributing-edge bitmaps, and stored
	// distance vectors for incremental fault repair.
	re routeEngine

	// Sharded assembly (coord nil for the classic single-engine fabric):
	// each switch and its attached endpoints live in one failure domain
	// with a private engine; inter-switch links whose ends fall in
	// different domains become cross-shard links synchronized by the
	// coordinator. nsw is the switch count the domains are cut from.
	coord *sim.Coordinator
	nsw   int
}

// isl is an inter-switch link record.
type isl struct {
	a, b         *Switch
	aPort, bPort int
	link         *link.Link
	prop         sim.Time // wire propagation delay, for lookahead discovery
}

// NewBuilder returns an empty topology bound to eng.
func NewBuilder(eng *sim.Engine) *Builder {
	return &Builder{eng: eng}
}

// Reserve preallocates the builder's switch, link, and attachment
// arenas for a topology of known size (the generator computes the
// counts), so assembly appends into contiguous storage instead of
// allocating every record individually. Capacity is a hint: exceeding
// it falls back to individual allocation.
func (b *Builder) Reserve(switches, isls, endpoints int) {
	if cap(b.swArena) == 0 && switches > 0 {
		b.swArena = make([]Switch, 0, switches)
		b.switches = make([]*Switch, 0, switches)
	}
	if cap(b.islArena) == 0 && isls > 0 {
		b.islArena = make([]isl, 0, isls)
		b.links = make([]*isl, 0, isls)
	}
	if cap(b.attArena) == 0 && endpoints > 0 {
		b.attArena = make([]Attachment, 0, endpoints)
		b.attached = make([]*Attachment, 0, endpoints)
	}
}

// NewShardedBuilder returns a topology of the given number of switches
// partitioned across coord's failure domains in contiguous blocks:
// switch i (in AddSwitch order) lands in domain i*Shards/switches, so
// only block boundaries cut, and endpoints join their home switch's
// domain. The builder's base engine is domain 0's; every switch and
// endpoint is created on its own domain's engine.
func NewShardedBuilder(coord *sim.Coordinator, switches int) *Builder {
	return &Builder{eng: coord.Engine(0), coord: coord, nsw: switches}
}

// AddSwitch creates a switch (on its domain's engine when sharded).
func (b *Builder) AddSwitch(name string, cfg SwitchConfig) *Switch {
	eng, dom := b.eng, 0
	if b.coord != nil {
		if len(b.switches) >= b.nsw {
			panic(fmt.Sprintf("fabric: sharded builder was sized for %d switches", b.nsw))
		}
		dom = len(b.switches) * b.coord.Shards() / b.nsw
		eng = b.coord.Engine(dom)
	}
	var sw *Switch
	if len(b.swArena) < cap(b.swArena) {
		b.swArena = b.swArena[:len(b.swArena)+1]
		sw = &b.swArena[len(b.swArena)-1]
	} else {
		sw = new(Switch)
	}
	initSwitch(sw, eng, name, cfg)
	sw.idx, sw.dom = len(b.switches), dom
	b.switches = append(b.switches, sw)
	return sw
}

// ConnectSwitches joins two switches with a link (a PBR link within a
// domain, or an HBR link between domains — routing treats them alike).
// When the two switches live in different failure domains the link is a
// cross-shard link: its wire messages travel through the coordinator's
// mailboxes, and its propagation delay must be at least the
// coordinator's lookahead window.
func (b *Builder) ConnectSwitches(x, y *Switch, cfg link.Config) error {
	name := fmt.Sprintf("%s<->%s", x.name, y.name)
	var l *link.Link
	var err error
	if x.dom != y.dom {
		co := b.coord
		if cfg.Phys.Propagation < co.Window() {
			return fmt.Errorf("fabric: cross-domain link %s propagation %v below the coordinator lookahead window %v",
				name, cfg.Phys.Propagation, co.Window())
		}
		l, err = link.NewCross(name, cfg, x.eng, y.eng, co.Mailbox(x.dom, y.dom), co.Mailbox(y.dom, x.dom))
	} else {
		l, err = link.New(x.eng, name, cfg)
	}
	if err != nil {
		return err
	}
	xp := x.attach(l.A())
	yp := y.attach(l.B())
	var rec *isl
	if len(b.islArena) < cap(b.islArena) {
		b.islArena = b.islArena[:len(b.islArena)+1]
		rec = &b.islArena[len(b.islArena)-1]
	} else {
		rec = new(isl)
	}
	*rec = isl{a: x, b: y, aPort: xp, bPort: yp, link: l, prop: cfg.Phys.Propagation}
	b.links = append(b.links, rec)
	return nil
}

// AttachEndpoint joins an endpoint (host FHA, FAM/FAA FEA) to a switch
// and assigns it the next PBR ID. The returned Attachment's Port is the
// endpoint side; callers attach their own sink (usually a txn.Endpoint).
func (b *Builder) AttachEndpoint(sw *Switch, name string, role Role, cfg link.Config) (*Attachment, error) {
	if b.nextID > flit.MaxPortID {
		return nil, fmt.Errorf("fabric: PBR ID space exhausted (12-bit, max %d endpoints)", flit.MaxPortID+1)
	}
	l, err := link.New(sw.eng, fmt.Sprintf("%s<->%s", name, sw.name), cfg)
	if err != nil {
		return nil, err
	}
	swPortIdx := sw.attach(l.B())
	var att *Attachment
	if len(b.attArena) < cap(b.attArena) {
		b.attArena = b.attArena[:len(b.attArena)+1]
		att = &b.attArena[len(b.attArena)-1]
	} else {
		att = new(Attachment)
	}
	*att = Attachment{
		Name:       name,
		Role:       role,
		ID:         b.nextID,
		Port:       l.A(),
		Link:       l,
		Switch:     sw,
		SwitchPort: swPortIdx,
		Domain:     sw.dom,
		Eng:        sw.eng,
	}
	b.nextID++
	b.attached = append(b.attached, att)
	return att, nil
}

// Discover runs the fabric-manager pass: one breadth-first search per
// *home switch* (endpoints vastly outnumber switches in any realistic
// topology), fanning each result out to the switch's co-located
// endpoints and installing all equal-cost shortest-path output
// candidates in each switch's PBR table. It must be called after the
// topology is complete and before traffic flows.
func (b *Builder) Discover() error {
	if len(b.attached) == 0 {
		return fmt.Errorf("fabric: no endpoints attached")
	}
	b.InstallRoutesFull(DeadSet{})
	if b.coord != nil {
		b.installLookahead()
	}
	b.discovered = true
	return nil
}

// installLookahead is the fabric-manager half of the coordinator's
// per-pair lookahead matrix: for every ordered domain pair it finds the
// minimum propagation delay over the cut links joining them and
// declares it to the coordinator. Every cross-shard message rides a cut
// link and carries at least that link's propagation delay (link.NewCross
// enforces the floor per link at construction), so the per-pair minimum
// is a safe lookahead — and for pairs joined only by long-haul optics it
// is orders of magnitude wider than the coordinator's default window,
// which is what lets pod-aligned shards run wide rounds. Pairs with no
// cut link at all can never exchange a message and are released to
// sim.MaxTime so they impose no coupling.
func (b *Builder) installLookahead() {
	co := b.coord
	n := co.Shards()
	min := make([]sim.Time, n*n) // 0 = no cut link seen for the pair
	for _, l := range b.links {
		da, db := l.a.dom, l.b.dom
		if da == db {
			continue
		}
		for _, k := range [2]int{da*n + db, db*n + da} {
			if min[k] == 0 || l.prop < min[k] {
				min[k] = l.prop
			}
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if m := min[src*n+dst]; m > 0 {
				co.SetLookahead(src, dst, m)
			} else {
				co.SetLookahead(src, dst, sim.MaxTime)
			}
		}
	}
}

// DeadSet names the topology elements the fabric manager has declared
// dead, each indexed in topology order: Switches by switch creation
// index, ISLs by inter-switch-link creation index, Atts by attachment
// ID. Nil slices mean none dead.
type DeadSet struct {
	Switches []bool
	ISLs     []bool
	Atts     []bool
}

// routeEngine is the builder's route-computation state: CSR adjacency
// over the live switch graph, reused BFS scratch, and — per home switch
// — the distance vector, the contributing-edge bitmap (every ISL on any
// shortest path toward that home), and the arena backing the installed
// ECMP candidate slices. All of it is reused across recomputes, so
// route installation is allocation-flat after the first pass.
type routeEngine struct {
	// CSR adjacency over the live switch graph (rebuilt per install).
	adjOff  []int32
	adjTo   []int32
	adjPort []int32
	adjLink []int32
	cursor  []int32

	queue []int32

	// Per home switch (indexed by switch creation index):
	dist    [][]int32  // BFS distance vector from the last recompute
	contrib [][]uint64 // bitmap over ISL indexes: the shortest-path DAG
	arena   [][]int    // backing storage for installed ECMP out-slices

	homeAtts [][]int32 // switch index -> attachment indexes homed there
	homeOut  [][]int   // attachment index -> cached {SwitchPort} route
	nAtts    int       // attachment count homeAtts was built for

	unreach []bool // attachment index -> severed (dead home or link)
	frozen  []bool // switch index -> dead with its table cloned (see freezeDead)

	// Incremental-repair scratch.
	affMark  []bool
	affected []int32
	touched  []int32
}

const distUnreached = -1

// ensure sizes the engine's per-topology state; cheap when already sized.
func (re *routeEngine) ensure(b *Builder) {
	S, L, A := len(b.switches), len(b.links), len(b.attached)
	if cap(re.adjOff) < S+1 {
		re.adjOff = make([]int32, S+1)
		re.cursor = make([]int32, S)
		re.queue = make([]int32, S)
		re.affMark = make([]bool, S)
		re.affected = make([]int32, 0, S)
		re.touched = make([]int32, 0, S)
		re.frozen = make([]bool, S)
	}
	re.adjOff = re.adjOff[:S+1]
	re.cursor = re.cursor[:S]
	re.queue = re.queue[:S]
	re.affMark = re.affMark[:S]
	re.frozen = re.frozen[:S]
	if cap(re.adjTo) < 2*L {
		re.adjTo = make([]int32, 2*L)
		re.adjPort = make([]int32, 2*L)
		re.adjLink = make([]int32, 2*L)
	}
	re.adjTo = re.adjTo[:2*L]
	re.adjPort = re.adjPort[:2*L]
	re.adjLink = re.adjLink[:2*L]
	if len(re.dist) > 0 && (len(re.dist[0]) != S || len(re.contrib[0]) != (L+63)/64) {
		// Topology grew since the last compute: per-home rows are sized
		// for the old graph, so rebuild them.
		re.dist, re.contrib, re.arena = re.dist[:0], re.contrib[:0], re.arena[:0]
	}
	for len(re.dist) < S {
		re.dist = append(re.dist, make([]int32, S))
		re.contrib = append(re.contrib, make([]uint64, (L+63)/64))
		re.arena = append(re.arena, nil)
	}
	for len(re.homeOut) < A {
		re.homeOut = append(re.homeOut, nil)
	}
	for len(re.unreach) < A {
		re.unreach = append(re.unreach, false)
	}
	if re.nAtts != A || len(re.homeAtts) != S {
		if cap(re.homeAtts) < S {
			re.homeAtts = make([][]int32, S)
		}
		re.homeAtts = re.homeAtts[:S]
		for i := range re.homeAtts {
			re.homeAtts[i] = re.homeAtts[i][:0]
		}
		for ai, att := range b.attached {
			h := att.Switch.idx
			re.homeAtts[h] = append(re.homeAtts[h], int32(ai))
		}
		re.nAtts = A
	}
}

// rebuildAdj fills the CSR adjacency with every edge whose link and
// both endpoint switches are alive.
func (b *Builder) rebuildAdj(dead DeadSet) {
	re := &b.re
	for i := range re.cursor {
		re.cursor[i] = 0
	}
	for li, l := range b.links {
		if islDead(dead, li, l) {
			continue
		}
		re.cursor[l.a.idx]++
		re.cursor[l.b.idx]++
	}
	off := int32(0)
	for i, d := range re.cursor {
		re.adjOff[i] = off
		off += d
		re.cursor[i] = re.adjOff[i]
	}
	re.adjOff[len(b.switches)] = off
	for li, l := range b.links {
		if islDead(dead, li, l) {
			continue
		}
		ai, bi := int32(l.a.idx), int32(l.b.idx)
		ca := re.cursor[ai]
		re.adjTo[ca], re.adjPort[ca], re.adjLink[ca] = bi, int32(l.aPort), int32(li)
		re.cursor[ai]++
		cb := re.cursor[bi]
		re.adjTo[cb], re.adjPort[cb], re.adjLink[cb] = ai, int32(l.bPort), int32(li)
		re.cursor[bi]++
	}
}

func islDead(dead DeadSet, li int, l *isl) bool {
	return deadAt(dead.ISLs, li) || deadAt(dead.Switches, l.a.idx) || deadAt(dead.Switches, l.b.idx)
}

func deadAt(v []bool, i int) bool { return v != nil && v[i] }

// freezeDead clones the route slices of every switch that just died.
// A crashed switch keeps its table — a healed switch forwards on it
// until the manager's next re-fill — but installed slices alias the
// per-home arenas, which recomputes for the surviving topology rewrite.
// Cloning at death pins the exact pre-death content (and does so
// identically on the incremental and full-recompute paths).
func (b *Builder) freezeDead(dead DeadSet) {
	re := &b.re
	for s, sw := range b.switches {
		if !deadAt(dead.Switches, s) {
			re.frozen[s] = false
			continue
		}
		if re.frozen[s] {
			continue
		}
		re.frozen[s] = true
		for dst, outs := range sw.routes {
			if outs != nil {
				sw.routes[dst] = append(make([]int, 0, len(outs)), outs...)
			}
		}
	}
}

// homeRoute returns the cached single-port route an endpoint's home
// switch forwards on.
func (b *Builder) homeRoute(ai int) []int {
	re := &b.re
	if re.homeOut[ai] == nil {
		re.homeOut[ai] = []int{b.attached[ai].SwitchPort}
	}
	return re.homeOut[ai]
}

// bfsHome fills home h's distance vector over the current adjacency.
func (b *Builder) bfsHome(h int) {
	re := &b.re
	dist := re.dist[h]
	for i := range dist {
		dist[i] = distUnreached
	}
	dist[h] = 0
	re.queue[0] = int32(h)
	head, tail := 0, 1
	for head < tail {
		cur := re.queue[head]
		head++
		d := dist[cur] + 1
		for e := re.adjOff[cur]; e < re.adjOff[cur+1]; e++ {
			if to := re.adjTo[e]; dist[to] == distUnreached {
				dist[to] = d
				re.queue[tail] = to
				tail++
			}
		}
	}
}

// outsFor appends switch s's equal-cost candidate ports toward home h
// to the home's arena and returns the installed slice (ports ascending;
// adjacency lists them in link-creation order, which is ascending per
// switch, so the insertion sort is a near-no-op safety net). Bits for
// every used edge are set in the home's contributing-edge bitmap.
func (b *Builder) outsFor(h, s int) []int {
	re := &b.re
	dist := re.dist[h]
	arena := re.arena[h]
	start := len(arena)
	want := dist[s] - 1
	for e := re.adjOff[s]; e < re.adjOff[s+1]; e++ {
		if dist[re.adjTo[e]] == want {
			arena = append(arena, int(re.adjPort[e]))
			li := re.adjLink[e]
			re.contrib[h][li>>6] |= 1 << (li & 63)
		}
	}
	outs := arena[start:len(arena):len(arena)]
	for i := 1; i < len(outs); i++ {
		for j := i; j > 0 && outs[j] < outs[j-1]; j-- {
			outs[j], outs[j-1] = outs[j-1], outs[j]
		}
	}
	re.arena[h] = arena
	return outs
}

// installHome recomputes and installs the routes toward every live
// endpoint homed at switch h: one BFS, then a fan-out over the home's
// co-located attachments, all sharing the same per-switch candidate
// slices. The home's distance vector and contributing-edge bitmap are
// left describing the new shortest-path DAG.
func (b *Builder) installHome(h int, dead DeadSet) {
	re := &b.re
	b.bfsHome(h)
	bm := re.contrib[h]
	for i := range bm {
		bm[i] = 0
	}
	re.arena[h] = re.arena[h][:0]
	atts := re.homeAtts[h]
	for s, sw := range b.switches {
		if deadAt(dead.Switches, s) {
			continue
		}
		if s == h {
			for _, ai := range atts {
				if !deadAt(dead.Atts, int(ai)) {
					sw.InstallRoute(b.attached[ai].ID, b.homeRoute(int(ai)))
				} else {
					sw.ClearRoute(b.attached[ai].ID)
				}
			}
			continue
		}
		if re.dist[h][s] == distUnreached {
			// Partitioned from home: no route (matters on the
			// incremental path, where a stale entry must be cleared).
			for _, ai := range atts {
				sw.ClearRoute(b.attached[ai].ID)
			}
			continue
		}
		outs := b.outsFor(h, s)
		for _, ai := range atts {
			if !deadAt(dead.Atts, int(ai)) {
				sw.InstallRoute(b.attached[ai].ID, outs)
			} else {
				sw.ClearRoute(b.attached[ai].ID)
			}
		}
	}
}

// InstallRoutesFull clears and re-fills the PBR table of every live
// switch with equal-cost shortest-path routes over the live topology:
// one BFS per home switch, fanned out to its co-located endpoints. It
// returns the number of unreachable attachments — endpoints whose home
// switch or endpoint link is dead. Routes to those are simply absent,
// so live switches drop (lossy mode) or panic (static mode) instead of
// forwarding into a black hole.
func (b *Builder) InstallRoutesFull(dead DeadSet) (unreachable int) {
	re := &b.re
	re.ensure(b)
	b.freezeDead(dead)
	b.rebuildAdj(dead)
	maxID := flit.PortID(0)
	if len(b.attached) > 0 {
		maxID = b.attached[len(b.attached)-1].ID
	}
	for s, sw := range b.switches {
		if !deadAt(dead.Switches, s) {
			sw.ClearRoutes()
			sw.reserveRoutes(maxID)
		}
	}
	for ai := range b.attached {
		re.unreach[ai] = deadAt(dead.Switches, b.attached[ai].Switch.idx) || deadAt(dead.Atts, ai)
	}
	for h := range b.switches {
		if deadAt(dead.Switches, h) || len(re.homeAtts[h]) == 0 {
			continue
		}
		b.installHome(h, dead)
	}
	for ai := range b.attached {
		if re.unreach[ai] {
			unreachable++
		}
	}
	return unreachable
}

// RepairRoutes is the incremental route-around: given the current dead
// set plus the indexes of the elements that *just* died (newSw, newISL
// in topology order; newAtt by attachment ID), it recomputes only the
// destinations whose shortest-path DAG used a dead element — tracked by
// the per-destination contributing-edge bitmaps — and, within those,
// falls back to a per-home BFS only when a death actually changed
// distances. A death that leaves every affected switch with surviving
// equal-cost candidates (the common case in multi-path topologies)
// costs one candidate-list rebuild per touched switch. Recoveries are
// topology-wide events: callers must use InstallRoutesFull for those.
//
// The resulting tables are identical to what InstallRoutesFull would
// produce: removing a non-DAG edge can neither shorten any path nor
// create a new equal-cost candidate, so untouched destinations keep
// byte-identical routes (the equivalence is pinned by tests).
func (b *Builder) RepairRoutes(dead DeadSet, newSw, newISL, newAtt []int) (unreachable int) {
	re := &b.re
	re.ensure(b)
	b.freezeDead(dead)
	b.rebuildAdj(dead)

	// Newly dead endpoint links (and endpoints of newly dead switches):
	// clear their routes everywhere live and mark them severed.
	severAtt := func(ai int) {
		re.unreach[ai] = true
		id := b.attached[ai].ID
		for s, sw := range b.switches {
			if !deadAt(dead.Switches, s) {
				sw.ClearRoute(id)
			}
		}
	}
	for _, ai := range newAtt {
		severAtt(ai)
	}

	// Affected destinations: every home whose contributing-edge bitmap
	// holds a newly dead ISL, or any ISL incident to a newly dead
	// switch. A dead home's endpoints are severed rather than rerouted.
	affected := re.affected[:0]
	markHomesUsing := func(li int) {
		w, bit := li>>6, uint64(1)<<(li&63)
		for h := range b.switches {
			if !re.affMark[h] && len(re.homeAtts[h]) > 0 && re.contrib[h][w]&bit != 0 {
				re.affMark[h] = true
				affected = append(affected, int32(h))
			}
		}
	}
	for _, li := range newISL {
		markHomesUsing(li)
	}
	for _, si := range newSw {
		for li, l := range b.links {
			if l.a.idx == si || l.b.idx == si {
				markHomesUsing(li)
			}
		}
		for _, ai := range re.homeAtts[si] {
			if !re.unreach[ai] {
				severAtt(int(ai))
			}
		}
	}

	for _, h32 := range affected {
		h := int(h32)
		re.affMark[h] = false
		if deadAt(dead.Switches, h) {
			continue
		}
		b.repairHome(h, dead, newSw, newISL)
	}
	re.affected = affected[:0]

	for ai := range b.attached {
		if re.unreach[ai] {
			unreachable++
		}
	}
	return unreachable
}

// repairHome repairs one destination after a set of element deaths its
// DAG used. Fast path: when every switch that lost a candidate edge
// still has another equal-cost candidate, distances are provably
// unchanged fabric-wide, so only those switches' candidate lists are
// rebuilt. Otherwise the home is recomputed with a fresh BFS.
func (b *Builder) repairHome(h int, dead DeadSet, newSw, newISL []int) {
	re := &b.re
	dist := re.dist[h]
	bm := re.contrib[h]
	touched := re.touched[:0]
	needBFS := false

	// upperOf reports the switch whose candidate list contained the dead
	// DAG edge li (the endpoint farther from home), or -1 when neither
	// table needs fixing (endpoint dead, or edge not in this DAG).
	upperOf := func(li int) int {
		if bm[li>>6]&(1<<(li&63)) == 0 {
			return -1
		}
		bm[li>>6] &^= 1 << (li & 63)
		l := b.links[li]
		x := l.a.idx
		if dist[l.b.idx] > dist[l.a.idx] {
			x = l.b.idx
		}
		if deadAt(dead.Switches, x) {
			return -1
		}
		return x
	}
	check := func(li int) {
		x := upperOf(li)
		if x < 0 || needBFS {
			return
		}
		// Does x still have a live equal-cost candidate toward h?
		want := dist[x] - 1
		alive := false
		for e := re.adjOff[x]; e < re.adjOff[x+1]; e++ {
			if dist[re.adjTo[e]] == want {
				alive = true
				break
			}
		}
		if !alive {
			needBFS = true
			return
		}
		for _, t := range touched {
			if int(t) == x {
				return
			}
		}
		touched = append(touched, int32(x))
	}
	for _, li := range newISL {
		check(li)
	}
	for _, si := range newSw {
		for li, l := range b.links {
			if l.a.idx == si || l.b.idx == si {
				check(li)
			}
		}
	}
	re.touched = touched[:0]

	if needBFS {
		b.installHome(h, dead)
		return
	}
	// Distance-preserving: rebuild only the touched switches' candidate
	// lists, in ascending switch order for determinism.
	for i := 1; i < len(touched); i++ {
		for j := i; j > 0 && touched[j] < touched[j-1]; j-- {
			touched[j], touched[j-1] = touched[j-1], touched[j]
		}
	}
	for _, x32 := range touched {
		x := int(x32)
		outs := b.outsFor(h, x)
		for _, ai := range re.homeAtts[h] {
			if !re.unreach[ai] && !deadAt(dead.Atts, int(ai)) {
				b.switches[x].InstallRoute(b.attached[ai].ID, outs)
			}
		}
	}
}

// RouteTableDump renders every switch's PBR table deterministically —
// the witness the incremental-vs-full repair equivalence tests compare.
func (b *Builder) RouteTableDump() string {
	var sb strings.Builder
	for _, sw := range b.switches {
		fmt.Fprintf(&sb, "%s:", sw.name)
		for dst, outs := range sw.routes {
			if outs != nil {
				fmt.Fprintf(&sb, " %d->%v", dst, outs)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LinkSideDomains reports the failure domains of a link's two sides (A,
// B). Endpoint links live wholly in their switch's domain; inter-switch
// links may span two. ok is false for links the builder doesn't own.
func (b *Builder) LinkSideDomains(l *link.Link) (da, db int, ok bool) {
	for _, rec := range b.links {
		if rec.link == l {
			return rec.a.dom, rec.b.dom, true
		}
	}
	for _, att := range b.attached {
		if att.Link == l {
			return att.Domain, att.Domain, true
		}
	}
	return 0, 0, false
}

// ISLLinks lists the inter-switch links in creation order.
func (b *Builder) ISLLinks() []*link.Link {
	out := make([]*link.Link, len(b.links))
	for i, l := range b.links {
		out[i] = l.link
	}
	return out
}

// Attachments lists all endpoint attachments in ID order.
func (b *Builder) Attachments() []*Attachment { return b.attached }

// Switches lists the fabric switches.
func (b *Builder) Switches() []*Switch { return b.switches }

// Lookup finds an attachment by name.
func (b *Builder) Lookup(name string) *Attachment {
	for _, a := range b.attached {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Render draws the topology as ASCII art — the regeneration of the
// paper's Figure 1b (composable infrastructure overview).
func (b *Builder) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Composable infrastructure: %d switches, %d endpoints\n",
		len(b.switches), len(b.attached))
	for _, sw := range b.switches {
		fmt.Fprintf(&sb, "\n[FS %s] (%d ports, %v crossbar)\n", sw.name, sw.Ports(), sw.cfg.Latency)
		for _, l := range b.links {
			if l.a == sw {
				fmt.Fprintf(&sb, "  port %-2d ==== [FS %s] port %d\n", l.aPort, l.b.name, l.bPort)
			} else if l.b == sw {
				fmt.Fprintf(&sb, "  port %-2d ==== [FS %s] port %d\n", l.bPort, l.a.name, l.aPort)
			}
		}
		for _, a := range b.attached {
			if a.Switch == sw {
				adapter := "FHA"
				if a.Role == RoleFAM || a.Role == RoleFAA {
					adapter = "FEA"
				}
				fmt.Fprintf(&sb, "  port %-2d ---- [%s] %-7s %-12s (PBR %d, %s)\n",
					a.SwitchPort, adapter, a.Role, a.Name, a.ID, a.Port.Config().Phys)
			}
		}
	}
	return sb.String()
}
