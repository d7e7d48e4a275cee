package exp

import (
	"fmt"
	"math"

	"fcc"
	"fcc/internal/arbiter"
	"fcc/internal/cfcpolicy"
	"fcc/internal/etrans"
	"fcc/internal/faa"
	"fcc/internal/fabric"
	"fcc/internal/fabstore/workload"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/task"
	"fcc/internal/txn"
	"fcc/internal/uheap"
)

// ETransResult is E1: managed data movement vs host-driven copies.
type ETransResult struct {
	SyncUs     float64 // host copies everything itself, serially
	ManagedUs  float64 // delegated to per-domain agents, in parallel
	HostFreeUs float64 // host-visible completion under OwnExecutor
}

// ETransAblation moves 16 x 64KB buffers from one FAM to another under
// three disciplines (Principle #1).
func ETransAblation() ETransResult {
	const buffers, bufSize = 16, 64 << 10
	build := func() (*fcc.Cluster, *etrans.Engine) {
		c, err := fcc.New(fcc.Config{
			Hosts: 1, FAMs: 2, FAMCapacity: 1 << 28, Agents: true,
		})
		if err != nil {
			panic(err)
		}
		for i := 0; i < buffers; i++ {
			buf := make([]byte, bufSize)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			c.FAMs[0].DRAM().Store().Write(uint64(i)*bufSize, buf)
		}
		return c, c.NewETrans(c.Hosts[0])
	}
	req := func(c *fcc.Cluster, i int, own etrans.Ownership, immediate bool) *etrans.Request {
		return &etrans.Request{
			Src:       []etrans.Segment{{Port: c.FAMs[0].ID(), Addr: uint64(i) * bufSize, Size: bufSize}},
			Dst:       []etrans.Segment{{Port: c.FAMs[1].ID(), Addr: uint64(i) * bufSize, Size: bufSize}},
			Ownership: own,
			Immediate: immediate,
		}
	}
	var res ETransResult
	{ // Synchronous: the host copies inline, one buffer at a time.
		c, e := build()
		e.InlineLimit = 1 << 30 // force inline execution at the initiator
		c.Go("sync", func(p *sim.Proc) {
			for i := 0; i < buffers; i++ {
				e.SubmitP(p, req(c, i, etrans.OwnInitiator, true))
			}
		})
		c.Run()
		res.SyncUs = c.Eng.Now().Microseconds()
	}
	{ // Managed: delegate all, await all completions.
		c, e := build()
		c.Go("managed", func(p *sim.Proc) {
			var fs []*sim.Future[*etrans.Result]
			for i := 0; i < buffers; i++ {
				fs = append(fs, e.Submit(req(c, i, etrans.OwnInitiator, false)))
			}
			sim.AwaitAll(p, fs)
		})
		c.Run()
		res.ManagedUs = c.Eng.Now().Microseconds()
	}
	{ // Executor-owned: the host is free almost immediately.
		c, e := build()
		var free sim.Time
		c.Go("handoff", func(p *sim.Proc) {
			var fs []*sim.Future[*etrans.Result]
			for i := 0; i < buffers; i++ {
				fs = append(fs, e.Submit(req(c, i, etrans.OwnExecutor, false)))
			}
			sim.AwaitAll(p, fs)
			free = p.Now()
		})
		c.Run()
		res.HostFreeUs = free.Microseconds()
	}
	return res
}

// UHeapResult is E2: static placement vs active heap.
type UHeapResult struct {
	StaticMeanNs   float64
	MigratedMeanNs float64
	Promotions     int64
}

// UHeapAblation runs a Zipf object workload over a working set 2x the
// local pool, static vs temperature migration (Principle #2).
func UHeapAblation() UHeapResult {
	run := func(migrate bool) (float64, int64) {
		hcfg := uheap.Config{Epoch: 50 * sim.Microsecond, Decay: 0.5, MaxMovesPerEpoch: 16, MinHeat: 2}
		if !migrate {
			hcfg.Epoch = 0
		}
		c, err := fcc.New(fcc.Config{
			Hosts: 1, FAMs: 1, FAMCapacity: 1 << 26,
			HostConfig: func(int) host.Config {
				hc := host.DefaultConfig()
				hc.L1.Size = 8 << 10
				hc.L2.Size = 32 << 10
				return hc
			},
		})
		if err != nil {
			panic(err)
		}
		hp, err := c.NewHeap(c.Hosts[0], hcfg, 512<<10)
		if err != nil {
			panic(err)
		}
		var objs []*uheap.Obj
		for i := 0; i < 256; i++ {
			o, err := hp.Alloc(4096, uheap.ClassFar)
			if err != nil {
				panic(err)
			}
			objs = append(objs, o)
		}
		pat := workload.NewPattern(42, len(objs), 1.2, 0) // read-only
		lat := sim.NewHistogram()
		c.Go("client", func(p *sim.Proc) {
			pat.Drive(p, 8000, 4000, 200*sim.Nanosecond, lat,
				func(p *sim.Proc, key int, _ bool) {
					objs[key].Read64P(p, uint64(pat.RNG.Intn(512))*8)
				})
		})
		c.Run()
		return lat.Mean(), hp.Promotions.Value()
	}
	static, _ := run(false)
	migrated, promos := run(true)
	return UHeapResult{StaticMeanNs: static, MigratedMeanNs: migrated, Promotions: promos}
}

// IdemResult is E3: recovery under injected failure rates.
type IdemRow struct {
	FailProb     float64
	MeanAttempts float64
	AllCorrect   bool
	OverheadPct  float64 // extra completion time vs failure-free
}

// IdemAblation sweeps engine fail-stop probability and verifies every
// task still commits the correct bytes via snapshot re-execution
// (Principle #3).
func IdemAblation() []IdemRow {
	var rows []IdemRow
	var baseUs float64
	for _, prob := range []float64{0, 0.2, 0.5} {
		c, err := fcc.New(fcc.Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 26})
		if err != nil {
			panic(err)
		}
		fam := c.FAMs[0]
		r := task.NewRunner(c.Eng, c.Hosts[0].Endpoint())
		le := task.NewLocalEngine(c.Eng, "cpu", 17)
		le.FailProb = prob
		r.AddEngine(le)
		const n = 30
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < 64; j++ {
				v := uint64(i*100 + j)
				fam.DRAM().Store().Write64(uint64(i)*512+uint64(j)*8, v)
				want[i] += v
			}
		}
		attempts := sim.NewHistogram()
		c.Go("batch", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				i := i
				res := r.SubmitP(p, &task.Task{
					Name:    fmt.Sprintf("t%d", i),
					Inputs:  []task.Region{{Port: fam.ID(), Addr: uint64(i) * 512, Size: 512}},
					Outputs: []task.Region{{Port: fam.ID(), Addr: 0x100000 + uint64(i)*64, Size: 8}},
					Body: func(ctx *task.Ctx) error {
						var s uint64
						for j := 0; j < 512; j += 8 {
							s += task.GetU64(ctx.Input(0), j)
						}
						task.PutU64(ctx.Output(0), 0, s)
						ctx.Compute(2 * sim.Microsecond)
						return nil
					},
					MaxAttempts: 100,
				})
				attempts.Observe(float64(res.Attempts))
			}
		})
		c.Run()
		ok := true
		for i := 0; i < n; i++ {
			if fam.DRAM().Store().Read64(0x100000+uint64(i)*64) != want[i] {
				ok = false
			}
		}
		us := c.Eng.Now().Microseconds()
		if prob == 0 {
			baseUs = us
		}
		rows = append(rows, IdemRow{
			FailProb:     prob,
			MeanAttempts: attempts.Mean(),
			AllCorrect:   ok,
			OverheadPct:  (us - baseUs) / baseUs * 100,
		})
	}
	return rows
}

// ArbiterResult is E4: latency protection under incast.
type ArbiterResult struct {
	LaissezFaireP99Ns float64
	ArbiterP99Ns      float64
	// BulkChangePct is the bulk goodput change under arbitration
	// (positive = faster: admission control also avoids the congestion
	// collapse that laissez-faire incast causes for the bulk flows
	// themselves).
	BulkChangePct float64
}

// ArbiterAblation: three bulk writers incast a FAM while a reader issues
// small CXL.mem reads (Principle #4).
func ArbiterAblation() ArbiterResult {
	run := func(useArb bool) (p99 float64, bulkOps float64) {
		c, err := fcc.New(fcc.Config{
			Hosts: 4, FAMs: 1, FAMCapacity: 1 << 28, Arbiter: true,
			SwitchConfig: func() fabric.SwitchConfig {
				sc := fabric.DefaultSwitchConfig()
				sc.OutQueueFlits = 512
				return sc
			},
			ArbiterConfig: func() arbiter.Config {
				ac := arbiter.DefaultConfig()
				ac.DefaultWindow = 2048
				return ac
			},
		})
		if err != nil {
			panic(err)
		}
		famID := c.FAMs[0].ID()
		bulk := 0
		for i := 1; i < 4; i++ {
			w := c.Hosts[i].Endpoint()
			cl := c.ArbiterClient(c.Hosts[i])
			send := func(fin func()) {
				w.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Dst: famID, Size: 512}).OnComplete(func(*flit.Packet, error) { fin() })
			}
			ClosedLoop(c.Eng, 32, 400, func(_ int, done func()) {
				fin := func() { bulk++; done() }
				if !useArb {
					send(fin)
					return
				}
				cl.Reserve(famID, 512).OnComplete(func(*flit.Packet, error) {
					send(func() {
						cl.Reclaim(famID, 512).OnComplete(func(*flit.Packet, error) { fin() })
					})
				})
			})
		}
		lat := sim.NewHistogram()
		rd := c.Hosts[0].Endpoint()
		c.Go("reader", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(3 * sim.Microsecond)
				start := p.Now()
				rd.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd,
					Dst: famID, ReqLen: 64}).MustAwait(p)
				lat.ObserveTime(p.Now() - start)
			}
		})
		c.Run()
		return lat.Quantile(0.99), float64(bulk) / c.Eng.Now().Seconds() / 1e6
	}
	lfP99, lfBulk := run(false)
	arbP99, arbBulk := run(true)
	return ArbiterResult{
		LaissezFaireP99Ns: lfP99,
		ArbiterP99Ns:      arbP99,
		BulkChangePct:     (arbBulk - lfBulk) / lfBulk * 100,
	}
}

// CFCRow is one E5 scheme's outcome.
type CFCRow struct {
	Scheme       string
	HeavyOps     float64
	LightOps     float64
	JainFairness float64
}

// CFCAblation compares the credit-allocation schemes under a hog +
// light-flow contention pattern (Difference #3).
func CFCAblation() []CFCRow {
	run := func(scheme cfcpolicy.Scheme) CFCRow {
		lcfg := link.DefaultConfig()
		lcfg.CreditReturnDelay = 200 * sim.Nanosecond
		r := oneSwitch(lcfg, []string{"heavy", "light"}, []string{"famH", "famL"})
		eng := r.coord.Engine(0)
		heavy, light, hDev, lDev := r.eps[0], r.eps[1], r.eps[2], r.eps[3]
		for _, dev := range []*txn.Endpoint{hDev, lDev} {
			dev.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
				reply(req.Response(flit.OpIOAck, 0))
			}
		}
		// ports[:2] are the heavy and light hosts' switch ports.
		al, err := cfcpolicy.NewAllocator(eng, r.sw, r.ports[:2], cfcpolicy.AllocatorConfig{
			Scheme: scheme, VC: flit.ChIO, TotalFlits: 64, Epoch: sim.Microsecond,
		})
		if err != nil {
			panic(err)
		}
		al.Start()
		var hDone, lDone int
		drive := func(ep *txn.Endpoint, dst *txn.Endpoint, window int, count *int) {
			ClosedLoop(eng, window, math.MaxInt, func(_ int, done func()) {
				ep.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Dst: dst.ID(), Size: 512}).OnComplete(func(*flit.Packet, error) {
					*count++
					done()
				})
			})
		}
		drive(heavy, hDev, 32, &hDone)
		drive(light, lDev, 2, &lDone)
		var h0, l0 int
		eng.At(100*sim.Microsecond, func() { h0, l0 = hDone, lDone })
		r.coord.RunUntil(400 * sim.Microsecond)
		h, l := float64(hDone-h0), float64(lDone-l0)
		return CFCRow{
			Scheme:       scheme.String(),
			HeavyOps:     h,
			LightOps:     l,
			JainFairness: cfcpolicy.JainFairness([]float64{h, l}),
		}
	}
	return []CFCRow{
		run(cfcpolicy.Static),
		run(cfcpolicy.RampUp),
		run(cfcpolicy.Adaptive),
	}
}

// MIMOResult is E7: the case-study pipeline's figures of merit.
type MIMOResult struct {
	Frames       int
	BER          float64
	MeanFrameUs  float64
	RecoveredOK  bool
	FAAFailovers int64
}

// MIMOPipeline runs the §5 case study headlessly (with optional chassis
// failure injection to show task migration across FAAs).
func MIMOPipeline(frames int, injectFailures bool) MIMOResult {
	c, err := fcc.New(fcc.Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 26, FAAs: 2})
	if err != nil {
		panic(err)
	}
	runner := task.NewRunner(c.Eng, c.Hosts[0].Endpoint())
	for _, d := range c.FAAs {
		runner.AddEngine(faa.NewEngine(d))
	}
	if injectFailures {
		// Every 35 µs from 10 µs, one FAA chassis dies for 15 µs, the two
		// taking turns.
		plan := fault.NewPlan("mimo-chassis-kills")
		for r := 0; r <= 50; r++ {
			at := 10*sim.Microsecond + sim.Time(r)*35*sim.Microsecond
			plan.KillChassis(at, c.FAAs[r%2].Name(), 15*sim.Microsecond)
		}
		if err := c.NewInjector(1).Schedule(plan); err != nil {
			panic(err)
		}
	}
	res := runMIMO(c, runner, frames)
	res.FAAFailovers = runner.Failures.Value()
	return res
}

// PrefetchRow is one point of the E8 sweep.
type PrefetchRow struct {
	Depth    int
	StreamUs float64
	Speedup  float64
}

// PrefetchSweep measures a dependent sequential remote stream across
// prefetch depths — Difference #1's observation that "CPU-assisted
// prefetching would transparently accelerate memory fabric performance".
func PrefetchSweep() []PrefetchRow {
	var rows []PrefetchRow
	var base float64
	for _, depth := range []int{0, 1, 2, 4, 8} {
		c, err := fcc.New(fcc.Config{
			Hosts: 1, FAMs: 1, FAMCapacity: 1 << 28,
			HostConfig: func(int) host.Config {
				hc := host.DefaultConfig()
				hc.PrefetchDepth = depth
				if depth > 4 {
					hc.MSHRs = depth + 2 // deep prefetch needs miss slots
				}
				return hc
			},
		})
		if err != nil {
			panic(err)
		}
		h := c.Hosts[0]
		base0 := c.FAMBase(0)
		c.Go("stream", func(p *sim.Proc) {
			for i := uint64(0); i < 1000; i++ {
				h.Load64P(p, base0+i*64)
			}
		})
		c.Run()
		us := c.Eng.Now().Microseconds()
		if depth == 0 {
			base = us
		}
		rows = append(rows, PrefetchRow{Depth: depth, StreamUs: us, Speedup: base / us})
	}
	return rows
}
