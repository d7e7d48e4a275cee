package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/fabstore"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// The public calls the benchmark times in simulated time, one span
// kind each.
const (
	spanGet = iota
	spanPut
	spanScan
	spanLoad
	spanStore
	spanRequest
	numSpans
)

// hostTally is the benchmark's own record of one host's traffic. Only
// processes on that host's engine touch it, so sharded runs need no
// locking and the record is a pure function of the seed.
type hostTally struct {
	offered, committed, typed, shed, bad int64

	outstanding int
	lastDone    sim.Time
	spans       [numSpans][]sim.Time
}

// resolve books one finished operation. Errors other than the typed
// fabric failures are left uncounted on purpose: they surface as
// unaccounted operations.
func (t *hostTally) resolve(p *sim.Proc, kind int, start sim.Time, record bool, err error) {
	now := p.Now()
	if now > t.lastDone {
		t.lastDone = now
	}
	switch {
	case err == nil:
		t.committed++
		if record {
			t.spans[kind] = append(t.spans[kind], now-start)
		}
	case fabstore.Typed(err):
		t.typed++
	}
}

// instance is one built cluster with its traffic armed, ready to Run.
type instance struct {
	c     *fcc.Cluster
	store *fabstore.Store // nil unless the workload runs FabStore
	hosts []*hostTally

	setup setupTimes
}

// setupTimes are the wall spans of construction: fcc.New (which runs
// topology generation and route discovery), then the services, fault
// plan and traffic generators; and the allocations both made.
type setupTimes struct {
	build, services time.Duration
	allocs          uint64
}

// workload is one benchmark traffic shape. The benchmark owns its
// traffic: generators draw from math/rand/v2 PCG streams seeded here,
// and the program only ever receives the resulting calls.
type workload struct {
	name string
	loop string // "open" or "closed"
	size string
	why  string

	shards  int
	cluster func() fcc.Config
	// start wires the services and arms the traffic; scale shrinks the
	// per-host operation counts (the smoke test runs at 1/100).
	start func(in *instance, seed uint64, scale float64) error
}

var workloads = []*workload{
	{
		name: "oltp-hot", loop: "open",
		size:    "8 hosts x 1,250 arrivals at 2M/s/host; 90% get / 10% put; tenant Zipf 1.2 over 8, key Zipf 1.1 over 1,024 per tenant, the first 16 hot",
		why:     "shared-memory transactions: fabstore, coherence hot keys, arbiter quotas and txn do the work on single-flit traffic",
		cluster: func() fcc.Config { return ringCluster(true) },
		start: storeMix{
			arrivals: 1250, getPct: 90, putPct: 10, tenantSkew: 1.2, keySkew: 1.1,
		}.start,
	},
	{
		name: "ingest-fault", loop: "open",
		size: "8 hosts x 600 arrivals at 2M/s/host; 30% get / 60% put / 10% 16-row scan, uniform keys; a fault window 150 us in: a FAM link flap and a ring lane degrade",
		why:  "writes, WAL intents, multi-flit scans and link credit pressure under repeated fault windows: the only run of txn timeouts and retries",
		// No arbiter: its control requests are not retried, so a
		// reservation that queues past the endpoint timeout fails its
		// put, and the grant that still arrives is never reclaimed.
		cluster: func() fcc.Config { return ringCluster(false) },
		start: storeMix{
			arrivals: 600, getPct: 30, putPct: 60, scanRows: 16,
			plan: ingestPlan,
		}.start,
	},
	{
		name: "farmem-stream", loop: "closed",
		size: "4 hosts x 8 procs x 1,000 dependent Load64P/Store64P (3:1); 3/4 to an 8 MiB local region, 1/4 to a 16 MiB FAM region; caches start empty",
		why:  "the host cache, MSHR and DRAM path behind Table 2; most ops never reach flit, and the upper stack is idle",
		cluster: func() fcc.Config {
			return fcc.Config{Hosts: 4, FAMs: 2, FAMCapacity: 64 << 20}
		},
		start: stream{procs: 8, ops: 1000, localBytes: 8 << 20, farBytes: 16 << 20}.start,
	},
	{
		name: "fattree-2shard", loop: "closed", shards: 2,
		size: "3-tier fat-tree (64 switches, 448 hosts, 64 FAMs), 2 shards; 15 RequestRetry ops/host, 200-1000 ns think time",
		why:  "datacenter-scale, setup-heavy (Generate + Discover on 512 endpoints) and the only run of the sharded coordinator",
		cluster: func() fcc.Config {
			return fcc.Config{
				Hosts: 448, FAMs: 64, FAMCapacity: 1 << 22,
				Topology: &fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6},
			}
		},
		start: fatTree{ops: 15}.start,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instantiate builds w's cluster and arms its traffic, timing both.
// shards overrides the workload's shard count when positive (the serial
// cross-check of a sharded workload passes 1).
func (w *workload) instantiate(seed uint64, scale float64, shards int) (*instance, error) {
	if shards <= 0 {
		shards = w.shards
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	cfg := w.cluster()
	cfg.Shards = shards
	c, err := fcc.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	t1 := time.Now()
	in := &instance{c: c, hosts: make([]*hostTally, len(c.Hosts))}
	for i := range in.hosts {
		in.hosts[i] = &hostTally{}
	}
	if err := w.start(in, seed, scale); err != nil {
		return nil, fmt.Errorf("%s: services: %w", w.name, err)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	in.setup = setupTimes{build: t1.Sub(t0), services: t2.Sub(t1), allocs: m1.Mallocs - m0.Mallocs}
	return in, nil
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// hostRNG is the generator stream of one host (or one process: pass a
// distinct index), a function of the seed and that index alone.
func hostRNG(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)+1))
}

// --- FabStore workloads -----------------------------------------------

// ringCluster is the E11 ring: 8 hosts spread over 4 switches in a
// ring, one FAM per switch, with the coherence directories attached and
// optionally the central arbiter.
func ringCluster(arbiter bool) fcc.Config {
	return fcc.Config{
		Hosts: 8, FAMs: 4, FAMCapacity: 1 << 22,
		Switches: 4, Ring: true, SpreadHosts: true,
		Coherent: true, Arbiter: arbiter,
		LinkConfig: func() link.Config {
			lc := link.DefaultConfig()
			lc.Phys.Propagation = 10 * sim.Nanosecond
			return lc
		},
	}
}

// ingestPlan is one fault window 150 µs into the arrival stream: a FAM
// link goes down for 30 µs, and a ring link loses three of four lanes
// for 60 µs. Consecutive streams put it on the next FAM and ring link,
// so a seed's streams cover all four of each. An outage is far shorter
// than the retry budget, so requests caught in one time out and retry
// but still commit; a window in every stream makes the retried share
// of operations, and the tail it sets, steady from seed to seed.
func ingestPlan(seed uint64) []fcc.FaultEvent {
	k := int(seed % 4)
	at := 150 * sim.Microsecond
	down := fault.Fault{Kind: fault.LinkDown}
	fam := fmt.Sprintf("fam%d<->fs%d", k, k)
	isl := fmt.Sprintf("fs%d<->fs%d", k, k+1)
	if k == 3 {
		isl = "fs3<->fs0" // the ring-closing link is named in build order
	}
	return []fcc.FaultEvent{
		{At: at, Link: fam, Fault: down},
		{At: at + 30*sim.Microsecond, Link: fam, Fault: down, Heal: true},
		{At: at + 20*sim.Microsecond, Link: isl, Fault: fault.Fault{Kind: fault.LaneDegrade, Factor: 4}},
		{At: at + 80*sim.Microsecond, Link: isl, Fault: fault.Fault{Kind: fault.LaneDegrade}, Heal: true},
	}
}

const (
	arrivalRate    = 2e6 // arrivals per host per simulated second
	maxOutstanding = 64  // per host; arrivals beyond it are shed
)

// storeMix is an open-loop FabStore traffic mix.
type storeMix struct {
	arrivals            int // per host
	getPct, putPct      int // the rest are scans
	scanRows            uint64
	tenantSkew, keySkew float64                            // Zipf exponents; 0 is uniform
	plan                func(seed uint64) []fcc.FaultEvent // nil for none
}

func (m storeMix) start(in *instance, seed uint64, scale float64) error {
	c := in.c
	for hi, h := range c.Hosts {
		// Off-lattice deadlines: a response can never land on exactly
		// its own timeout, a tie serial and sharded runs may break
		// differently (DESIGN.md, "Tie discipline").
		h.Endpoint().Timeout = 25*sim.Microsecond + sim.Time(hi+1)*4241
	}
	st, err := c.NewFabStore(fabstore.Config{
		Tenants: 8, KeysPerTenant: 1024, Quota: 16 << 10, IntentSlots: 4,
		HotKeys: 16, RetryBackoff: 20*sim.Microsecond + 757,
	})
	if err != nil {
		return err
	}
	in.store = st
	if m.plan != nil {
		if err := c.SchedulePlan(m.plan(seed)); err != nil {
			return err
		}
	}
	arrivals := scaled(m.arrivals, scale)
	for hi := range c.Hosts {
		m.drive(st.Client(hi), in.hosts[hi], hostRNG(seed, hi), arrivals)
	}
	return nil
}

// drive spawns one host's Poisson arrival process. Each admitted
// arrival runs as its own process and is timed from its arrival
// instant; the first fifth are left out of the latency record.
func (m storeMix) drive(cl *fabstore.Client, t *hostTally, rng *rand.Rand, arrivals int) {
	cfg := cl.Store().Config()
	tenant := sampler(rng, cfg.Tenants, m.tenantSkew)
	key := sampler(rng, int(cfg.KeysPerTenant), m.keySkew)
	h := cl.Host()
	eng := h.Engine()
	opName := h.Name() + "/op"
	eng.Go(h.Name()+"/arrivals", func(p *sim.Proc) {
		for i := 0; i < arrivals; i++ {
			p.Sleep(sim.Time(rng.ExpFloat64() * float64(sim.Second) / arrivalRate))
			tn, k, roll := tenant(), uint64(key()), rng.IntN(100)
			t.offered++
			if t.outstanding >= maxOutstanding {
				t.shed++
				continue
			}
			t.outstanding++
			record, stamp := i >= arrivals/5, uint64(i)
			eng.Go(opName, func(op *sim.Proc) {
				start := op.Now()
				kind, err := m.issue(op, cl, t, tn, k, roll, stamp)
				t.outstanding--
				t.resolve(op, kind, start, record, err)
			})
		}
	})
}

func (m storeMix) issue(op *sim.Proc, cl *fabstore.Client, t *hostTally, tenant int, key uint64, roll int, stamp uint64) (int, error) {
	switch {
	case roll < m.getPct:
		val, err := cl.GetP(op, tenant, key)
		if err == nil && !validRow(val, rowTag(tenant, key)) {
			t.bad++
		}
		return spanGet, err
	case roll < m.getPct+m.putPct:
		val := make([]byte, cl.Store().Config().SlotSize)
		fillRow(val, rowTag(tenant, key), stamp)
		return spanPut, cl.PutP(op, tenant, key, val)
	default:
		start := min(key, cl.Store().Config().KeysPerTenant-m.scanRows)
		rows, err := cl.ScanP(op, tenant, start, m.scanRows)
		if err == nil && rows != m.scanRows {
			t.bad++
		}
		return spanScan, err
	}
}

// sampler draws from [0, n): Zipf with exponent skew (> 1), or uniform
// when skew is 0.
func sampler(rng *rand.Rand, n int, skew float64) func() int {
	if skew == 0 {
		return func() int { return rng.IntN(n) }
	}
	z := rand.NewZipf(rng, skew, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// rowTag names a (tenant, key) row inside the values the benchmark
// writes.
func rowTag(tenant int, key uint64) uint64 { return uint64(tenant)<<32 | key }

// fillRow writes the benchmark's value for a row: the stamp, the row
// tag, then a stream both determine, so any value read back can be
// checked without remembering what was written.
func fillRow(buf []byte, tag, stamp uint64) {
	binary.LittleEndian.PutUint64(buf[0:], stamp)
	binary.LittleEndian.PutUint64(buf[8:], tag)
	x := tag ^ stamp*0x9e3779b97f4a7c15
	for i := 16; i+8 <= len(buf); i += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// validRow reports whether buf is a never-written row or a value
// fillRow wrote for this row.
func validRow(buf []byte, tag uint64) bool {
	if allZero(buf) {
		return true
	}
	if len(buf) < 16 || binary.LittleEndian.Uint64(buf[8:]) != tag {
		return false
	}
	x := tag ^ binary.LittleEndian.Uint64(buf[0:])*0x9e3779b97f4a7c15
	for i := 16; i+8 <= len(buf); i += 8 {
		x = mix64(x)
		if binary.LittleEndian.Uint64(buf[i:]) != x {
			return false
		}
	}
	return true
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// wordAt is the one value the benchmark ever stores at a (device,
// address) word, so a load must return it or zero.
func wordAt(dev flit.PortID, addr uint64) uint64 {
	return mix64(uint64(dev)<<48^addr) | 1
}

// --- farmem-stream ----------------------------------------------------

const localBase = 16 << 20 // host-local region start, clear of low memory

// stream is the closed-loop far-memory workload: every process issues
// dependent 64-bit loads and stores, one at a time.
type stream struct {
	procs, ops           int // per host, per process
	localBytes, farBytes uint64
}

func (s stream) start(in *instance, seed uint64, scale float64) error {
	c := in.c
	ops := scaled(s.ops, scale)
	for hi, h := range c.Hosts {
		t := in.hosts[hi]
		// Hosts sharing a FAM use disjoint slices of it.
		far := c.FAMBase(hi%len(c.FAMs)) + uint64(hi/len(c.FAMs))*s.farBytes
		for pi := 0; pi < s.procs; pi++ {
			rng := hostRNG(seed, hi*s.procs+pi)
			h.Engine().Go(fmt.Sprintf("%s/p%d", h.Name(), pi), func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					addr := localBase + rng.Uint64N(s.localBytes/8)*8
					if rng.IntN(4) == 0 {
						addr = far + rng.Uint64N(s.farBytes/8)*8
					}
					want := wordAt(0, addr)
					t.offered++
					start := p.Now()
					kind := spanLoad
					if rng.IntN(4) == 0 {
						kind = spanStore
						h.Store64P(p, addr, want)
					} else if v := h.Load64P(p, addr); v != 0 && v != want {
						t.bad++
					}
					t.resolve(p, kind, start, i >= ops/5, nil)
				}
			})
		}
	}
	return nil
}

// --- fattree-2shard ---------------------------------------------------

// fatTree is the closed-loop datacenter workload: each host issues
// retried CXL.mem reads and writes to its near FAM, every fourth to the
// FAM halfway across the fabric, with a think time between them.
type fatTree struct{ ops int }

func (f fatTree) start(in *instance, seed uint64, scale float64) error {
	c := in.c
	ops := scaled(f.ops, scale)
	nf := len(c.FAMs)
	for hi, h := range c.Hosts {
		t := in.hosts[hi]
		ep := h.Endpoint()
		ep.Timeout = 25*sim.Microsecond + sim.Time(hi+1)*4241
		near, far := c.FAMs[hi%nf].ID(), c.FAMs[(hi+nf/2)%nf].ID()
		rng := hostRNG(seed, hi)
		h.Engine().Go(h.Name(), func(p *sim.Proc) {
			p.Sleep(sim.Time(1 + hi*7919)) // prime-staggered start, in ps
			for op := 0; op < ops; op++ {
				dst := near
				if op%4 == 3 {
					dst = far
				}
				addr := rng.Uint64N(1<<16) * 64
				pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: dst, Addr: addr, ReqLen: 64}
				write := op%3 == 2
				if write {
					pkt.Op, pkt.ReqLen, pkt.Size, pkt.Data = flit.OpMemWr, 0, 64, lineData(dst, addr)
				}
				t.offered++
				start := p.Now()
				resp, err := ep.RequestRetry(pkt, 3, 20*sim.Microsecond).Await(p)
				if err == nil && (resp.Op == flit.OpMemErr || !write && !validLine(resp.Data, dst, addr)) {
					t.bad++
				}
				t.resolve(p, spanRequest, start, true, err)
				p.Sleep(sim.Time(200_000 + rng.IntN(800_000))) // 200-1000 ns, in ps
			}
		})
	}
	return nil
}

func lineData(dev flit.PortID, addr uint64) []byte {
	b := make([]byte, 64)
	for i := 0; i < 64; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], wordAt(dev, addr+uint64(i)))
	}
	return b
}

func validLine(b []byte, dev flit.PortID, addr uint64) bool {
	if len(b) != 64 {
		return false
	}
	if allZero(b) {
		return true
	}
	for i := 0; i < 64; i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != wordAt(dev, addr+uint64(i)) {
			return false
		}
	}
	return true
}
