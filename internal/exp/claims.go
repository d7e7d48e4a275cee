package exp

import (
	"fmt"
	"math"
	"strings"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// MLPRow is one point of the C1 sweep: remote throughput vs MSHRs.
type MLPRow struct {
	MSHRs float64
	MOPS  float64
}

// ClaimMLP sweeps the host's MSHR count and measures remote 64B read
// throughput — Difference #1's claim that throughput is bounded by the
// outstanding load/store window, not the network stack.
func ClaimMLP() []MLPRow {
	var rows []MLPRow
	for _, m := range []int{1, 2, 4, 8, 16} {
		c, err := fcc.New(fcc.Config{
			Hosts: 1, FAMs: 1, FAMCapacity: 1 << 28,
			HostConfig: func(int) host.Config {
				hc := host.DefaultConfig()
				hc.MSHRs = m
				return hc
			},
		})
		if err != nil {
			panic(err)
		}
		h := c.Hosts[0]
		base := c.FAMBase(0)
		loaded := 0
		n := 100 * m
		// All n loads at once: the MSHRs, not the window, bound them.
		ClosedLoop(c.Eng, n, n, func(i int, done func()) {
			h.Load64(base + uint64(i-1)*64).OnComplete(func(uint64, error) {
				loaded++
				done()
			})
		})
		c.Run()
		rows = append(rows, MLPRow{
			MSHRs: float64(m),
			MOPS:  float64(loaded) / c.Eng.Now().Seconds() / 1e6,
		})
	}
	return rows
}

// RenderMLP prints the C1 sweep.
func RenderMLP(rows []MLPRow) string {
	var b strings.Builder
	b.WriteString("MSHRs | remote read MOPS | MOPS/MSHR\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5.0f | %16.2f | %.2f\n", r.MSHRs, r.MOPS, r.MOPS/r.MSHRs)
	}
	b.WriteString("(paper: remote throughput = outstanding ops / latency; 4 MSHRs -> 2.5 MOPS)\n")
	return b.String()
}

// ContentionResult is C2: one-way 64B write latency, solo vs contended.
type ContentionResult struct {
	SoloNs      float64
	ContendedNs float64
	AddedNs     float64
}

// ClaimContention reproduces the FabreX observation: concurrent 64B
// writes from several hosts through one switch add ≈600ns of one-way
// latency versus holding the device locally (solo, unloaded).
func ClaimContention() ContentionResult {
	oneWay := func(writers int) float64 {
		c, err := fcc.New(fcc.Config{Hosts: writers, FAMs: 1, FAMCapacity: 1 << 28})
		if err != nil {
			panic(err)
		}
		famID := c.FAMs[0].ID()
		// Background contenders: continuous windowed 64B writes.
		for i := 1; i < writers; i++ {
			ep := c.Hosts[i].Endpoint()
			ClosedLoop(c.Eng, 8, math.MaxInt, func(_ int, done func()) {
				ep.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Dst: famID, Size: 64}).OnComplete(func(*flit.Packet, error) { done() })
			})
		}
		// Probe: measure mean request->device arrival (approximated by
		// half the ack RTT minus device time; we report RTT/2 deltas,
		// which is what "one-way added latency" compares).
		lat := sim.NewHistogram()
		probe := c.Hosts[0].Endpoint()
		c.Go("probe", func(p *sim.Proc) {
			p.Sleep(5 * sim.Microsecond) // let contention build
			for i := 0; i < 100; i++ {
				start := p.Now()
				probe.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Dst: famID, Size: 64}).MustAwait(p)
				lat.ObserveTime(p.Now() - start)
				p.Sleep(time500)
			}
			c.Eng.Stop()
		})
		c.Run()
		return lat.Mean() / 2
	}
	solo := oneWay(1)
	loaded := oneWay(4)
	return ContentionResult{SoloNs: solo, ContendedNs: loaded, AddedNs: loaded - solo}
}

const time500 = 500 * sim.Nanosecond

// rig is the bare fabric C3 and E5 measure: one switch on a one-shard
// coordinator, as every cluster runs, with raw transaction endpoints
// and no host or device model behind them.
type rig struct {
	coord *sim.Coordinator
	sw    *fabric.Switch
	eps   []*txn.Endpoint
	ports []int // each endpoint's switch port
}

// oneSwitch builds a rig of switch fs0 with one endpoint per name,
// hosts first and then devices, each on an lcfg link, and discovers
// it.
func oneSwitch(lcfg link.Config, hosts, devs []string) *rig {
	coord := sim.NewCoordinator(1, max(lcfg.Phys.Propagation, 1))
	b := fabric.NewShardedBuilder(coord, 1)
	r := &rig{coord: coord, sw: b.AddSwitch("fs0", fabric.DefaultSwitchConfig())}
	attach := func(names []string, role fabric.Role) {
		for _, name := range names {
			att, err := b.AttachEndpoint(r.sw, name, role, lcfg)
			if err != nil {
				panic(err)
			}
			ep := txn.NewEndpoint(att.Eng, att.ID, att.Port, 0)
			att.Port.SetSink(ep)
			r.eps = append(r.eps, ep)
			r.ports = append(r.ports, att.SwitchPort)
		}
	}
	attach(hosts, fabric.RoleHost)
	attach(devs, fabric.RoleFAM)
	if err := b.Discover(); err != nil {
		panic(err)
	}
	return r
}

// InterleaveResult is C3: small-request latency under bulk interference.
type InterleaveResult struct {
	AloneNs         float64 // 64B writes, idle fabric
	WithBulkNs      float64 // interleaved with 16KB writes, shared VC + shared pool
	WithBulkVCSepNs float64 // same bulk, but separate VCs and per-VC credits
}

// ClaimInterleave reproduces "when interleaved with 16KB writes, the
// average latency of 64B requests can be degraded drastically", and
// shows the FCC-style mitigation (dedicated VC with its own credits).
func ClaimInterleave() InterleaveResult {
	run := func(bulk bool, sharedPool bool) float64 {
		lcfg := link.DefaultConfig()
		lcfg.SharedCreditPool = sharedPool
		r := oneSwitch(lcfg, []string{"host"}, []string{"fam"})
		eng, hostEp, dev := r.coord.Engine(0), r.eps[0], r.eps[1]
		if bulk {
			// 16KB logical writes: 32 x 512B segmented packets, windowed.
			ClosedLoop(eng, 8, math.MaxInt, func(_ int, done func()) {
				hostEp.BulkWrite(dev.ID(), 0x100000, 16384).OnComplete(func(int, error) { done() })
			})
		}
		lat := sim.NewHistogram()
		// The small requests ride CXL.mem (separate VC) by protocol; to
		// model the shared-channel pathology we issue them as CXL.io
		// when sharedPool is set (one pool == no isolation either way).
		ch, op := flit.ChMem, flit.OpMemRd
		if sharedPool {
			ch, op = flit.ChIO, flit.OpIORd
		}
		dev.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
			switch req.Op {
			case flit.OpIOWr:
				reply(req.Response(flit.OpIOAck, 0))
			case flit.OpIORd:
				reply(req.Response(flit.OpIOData, 64))
			case flit.OpMemRd:
				reply(req.Response(flit.OpMemRdData, 64))
			}
		}
		eng.Go("probe", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond)
			for i := 0; i < 200; i++ {
				start := p.Now()
				pkt := &flit.Packet{Chan: ch, Op: op, Dst: dev.ID(), ReqLen: 64}
				hostEp.Request(pkt).MustAwait(p)
				lat.ObserveTime(p.Now() - start)
				p.Sleep(time500)
			}
			eng.Stop()
		})
		r.coord.Run()
		return lat.Mean()
	}
	return InterleaveResult{
		AloneNs:         run(false, false),
		WithBulkNs:      run(true, true),
		WithBulkVCSepNs: run(true, false),
	}
}

// SwitchResult is C4: per-port switch transit latency and bandwidth.
type SwitchResult struct {
	TransitNs float64
	GBps      float64
}

// ClaimSwitch checks the <100ns-per-port, high-bandwidth switch class.
// The FAM's FEA ingest is configured wide open here so the switch and
// link — not the device — are what the bandwidth number measures.
func ClaimSwitch() SwitchResult {
	c, err := fcc.New(fcc.Config{
		Hosts: 1, FAMs: 1, FAMCapacity: 1 << 28,
		FAMConfig: func(_ int, capacity uint64) mem.FAMConfig {
			fc := mem.DefaultFAMConfig(capacity)
			fc.FEAOccBase = sim.Nanosecond
			fc.FEAOccPerLine = 0
			fc.DRAM.WriteOcc = sim.Nanosecond
			fc.DRAM.Banks = 8
			return fc
		},
	})
	if err != nil {
		panic(err)
	}
	sw := c.Builder.Switches()[0]
	ep := c.Hosts[0].Endpoint()
	famID := c.FAMs[0].ID()
	var moved int
	// Windowed 16KB bulk writes keep the wire full.
	ClosedLoop(c.Eng, 8, 200, func(i int, done func()) {
		ep.BulkWrite(famID, uint64(i)*16384, 16384).OnComplete(func(int, error) {
			moved += 16384
			done()
		})
	})
	c.Run()
	return SwitchResult{
		TransitNs: sw.Transit.Mean(),
		GBps:      float64(moved) / c.Eng.Now().Seconds() / 1e9,
	}
}

// RTTResult is C5: unloaded link-layer RTT of a 64B-class flit.
type RTTResult struct{ RTTNs float64 }

// ClaimRTT measures a single-flit request/ack round trip on a direct
// link (no switch), the paper's "up to 200ns" data-link RTT.
func ClaimRTT() RTTResult {
	eng := sim.NewEngine()
	l, err := link.New(eng, "direct", link.DefaultConfig())
	if err != nil {
		panic(err)
	}
	a := txn.NewEndpoint(eng, 1, l.A(), 0)
	bEp := txn.NewEndpoint(eng, 2, l.B(), 0)
	l.A().SetSink(a)
	l.B().SetSink(bEp)
	bEp.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		reply(req.Response(flit.OpMemWrAck, 0))
	}
	var rtt sim.Time
	eng.Go("ping", func(p *sim.Proc) {
		start := p.Now()
		a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: 2, Size: 0}).MustAwait(p)
		rtt = p.Now() - start
	})
	eng.Run()
	return RTTResult{RTTNs: rtt.Nanoseconds()}
}
