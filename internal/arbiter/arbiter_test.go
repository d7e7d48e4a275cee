package arbiter

import (
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// rig: 3 bulk writers + 1 reader + 1 FAM + the arbiter, one switch.
type rig struct {
	eng     *sim.Engine
	writers []*txn.Endpoint
	reader  []*txn.Endpoint
	fam     *mem.FAM
	arb     *Arbiter
}

func buildRig(t *testing.T, window uint64) *rig {
	t.Helper()
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	swCfg := fabric.DefaultSwitchConfig()
	swCfg.OutQueueFlits = 512 // deep queues: where bulk hurts latency
	sw := b.AddSwitch("fs0", swCfg)
	mk := func(name string, role fabric.Role) *fabric.Attachment {
		att, err := b.AttachEndpoint(sw, name, role, link.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return att
	}
	r := &rig{eng: eng}
	for i := 0; i < 3; i++ {
		att := mk("writer"+string(rune('0'+i)), fabric.RoleHost)
		ep := txn.NewEndpoint(eng, att.ID, att.Port, 0)
		att.Port.SetSink(ep)
		r.writers = append(r.writers, ep)
	}
	ratt := mk("reader", fabric.RoleHost)
	rep := txn.NewEndpoint(eng, ratt.ID, ratt.Port, 0)
	ratt.Port.SetSink(rep)
	r.reader = []*txn.Endpoint{rep}
	fatt := mk("fam0", fabric.RoleFAM)
	r.fam = mem.NewFAM(eng, fatt, mem.DefaultFAMConfig(1<<28))
	aatt := mk("arbiter", fabric.RoleManager)
	cfg := DefaultConfig()
	cfg.DefaultWindow = window
	r.arb = New(eng, aatt, cfg)
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	return r
}

// drive runs bulk writers (optionally arbitrated) plus a periodic 64B
// reader, returning the reader's p99 latency in ns.
func (r *rig) drive(useArbiter bool) float64 {
	famID := r.fam.ID()
	for _, w := range r.writers {
		w := w
		cl := NewClient(w, r.arb.ID())
		// Each writer keeps a 32-deep pipeline of 512B writes. With the
		// arbiter, every write holds a reservation around its lifetime.
		var pump func()
		inflight, sent := 0, 0
		issue := func() {
			send := func(done func()) {
				w.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Dst: famID, Size: 512}).OnComplete(func(*flit.Packet, error) { done() })
			}
			finish := func() {
				inflight--
				pump()
			}
			if !useArbiter {
				send(finish)
				return
			}
			cl.Reserve(famID, 512).OnComplete(func(*flit.Packet, error) {
				send(func() {
					cl.Reclaim(famID, 512).OnComplete(func(*flit.Packet, error) { finish() })
				})
			})
		}
		pump = func() {
			for inflight < 32 && sent < 400 {
				inflight++
				sent++
				issue()
			}
		}
		r.eng.After(0, pump)
	}
	lat := sim.NewHistogram()
	rd := r.reader[0]
	r.eng.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(3 * sim.Microsecond)
			start := p.Now()
			rd.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd,
				Dst: famID, ReqLen: 64}).MustAwait(p)
			lat.ObserveTime(p.Now() - start)
		}
	})
	r.eng.Run()
	return lat.Quantile(0.99)
}

func TestArbiterProtectsLatencyUnderIncast(t *testing.T) {
	// E4: three bulk writers incast a FAM. Laissez-faire, the reader's
	// small CXL.mem reads queue behind bulk at the device port; with
	// the arbiter's admission window they stay fast.
	without := buildRig(t, 4096).drive(false)
	with := buildRig(t, 2048).drive(true)
	if without < 2*with {
		t.Fatalf("reader p99: laissez-faire %.0fns vs arbiter %.0fns — expected ≥2x protection",
			without, with)
	}
}

func TestArbiterBulkStillCompletes(t *testing.T) {
	r := buildRig(t, 2048)
	famID := r.fam.ID()
	done := 0
	for _, w := range r.writers {
		w := w
		cl := NewClient(w, r.arb.ID())
		r.eng.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				cl.ReserveP(p, famID, 512)
				w.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Dst: famID, Size: 512}).MustAwait(p)
				cl.ReclaimP(p, famID, 512)
				done++
			}
		})
	}
	r.eng.Run()
	if done != 300 {
		t.Fatalf("bulk ops completed = %d, want 300", done)
	}
	if r.arb.Outstanding(famID) != 0 {
		t.Fatalf("outstanding = %d after all reclaims", r.arb.Outstanding(famID))
	}
}

func TestArbiterWindowEnforced(t *testing.T) {
	r := buildRig(t, 1024) // window: two 512B grants
	famID := r.fam.ID()
	var maxOut uint64
	granted := 0
	cl := NewClient(r.writers[0], r.arb.ID())
	r.eng.Go("spammer", func(p *sim.Proc) {
		fs := make([]*sim.Future[*flit.Packet], 0, 8)
		for i := 0; i < 8; i++ {
			fs = append(fs, cl.Reserve(famID, 512))
		}
		// Track outstanding as grants arrive; release one at a time.
		for _, f := range fs {
			f.MustAwait(p)
			granted++
			if r.arb.Outstanding(famID) > maxOut {
				maxOut = r.arb.Outstanding(famID)
			}
			cl.ReclaimP(p, famID, 512)
		}
	})
	r.eng.Run()
	if granted != 8 {
		t.Fatalf("granted = %d, want 8", granted)
	}
	if maxOut > 1024 {
		t.Fatalf("outstanding peaked at %d, window 1024 violated", maxOut)
	}
}

func TestArbiterQueuesWhenSaturated(t *testing.T) {
	r := buildRig(t, 512) // one grant at a time
	famID := r.fam.ID()
	cl := NewClient(r.writers[0], r.arb.ID())
	order := []int{}
	r.eng.After(0, func() {
		for i := 0; i < 3; i++ {
			i := i
			cl.Reserve(famID, 512).OnComplete(func(*flit.Packet, error) {
				order = append(order, i)
				r.eng.After(sim.Microsecond, func() { cl.Reclaim(famID, 512) })
			})
		}
	})
	r.eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want FIFO", order)
	}
	if r.arb.Queued.Value() != 2 {
		t.Fatalf("queued = %d, want 2", r.arb.Queued.Value())
	}
}

func TestArbiterQuery(t *testing.T) {
	r := buildRig(t, 4096)
	famID := r.fam.ID()
	cl := NewClient(r.writers[0], r.arb.ID())
	r.eng.Go("q", func(p *sim.Proc) {
		if avail := cl.QueryP(p, famID); avail != 4096 {
			t.Errorf("initial avail = %d", avail)
		}
		cl.ReserveP(p, famID, 1000)
		if avail := cl.QueryP(p, famID); avail != 3096 {
			t.Errorf("avail after reserve = %d", avail)
		}
		cl.ReclaimP(p, famID, 1000)
		if avail := cl.QueryP(p, famID); avail != 4096 {
			t.Errorf("avail after reclaim = %d", avail)
		}
	})
	r.eng.Run()
}

func TestArbiterOversizedReservationPanics(t *testing.T) {
	r := buildRig(t, 1024)
	cl := NewClient(r.writers[0], r.arb.ID())
	defer func() {
		if recover() == nil {
			t.Error("unsatisfiable reservation did not panic")
		}
	}()
	r.eng.After(0, func() { cl.Reserve(r.fam.ID(), 4096) })
	r.eng.Run()
}

func TestArbiterPerDestinationIsolation(t *testing.T) {
	// Saturating one destination must not block grants toward another.
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	hatt, _ := b.AttachEndpoint(sw, "h", fabric.RoleHost, link.DefaultConfig())
	ep := txn.NewEndpoint(eng, hatt.ID, hatt.Port, 0)
	hatt.Port.SetSink(ep)
	aatt, _ := b.AttachEndpoint(sw, "arb", fabric.RoleManager, link.DefaultConfig())
	arb := New(eng, aatt, Config{DefaultWindow: 512})
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ep, arb.ID())
	gotB := false
	eng.Go("driver", func(p *sim.Proc) {
		cl.ReserveP(p, 100, 512) // dst 100 now saturated
		cl.Reserve(100, 512)     // queues
		cl.ReserveP(p, 200, 512) // different dst: must grant immediately
		gotB = true
	})
	eng.RunUntil(sim.Millisecond)
	if !gotB {
		t.Fatal("reservation toward an idle destination blocked behind a saturated one")
	}
	if arb.WaitingAt(100) != 1 {
		t.Fatalf("waiting at dst 100 = %d, want 1", arb.WaitingAt(100))
	}
}

func TestAIMDWindowShrinksUnderCongestion(t *testing.T) {
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	hatt, _ := b.AttachEndpoint(sw, "h", fabric.RoleHost, link.DefaultConfig())
	ep := txn.NewEndpoint(eng, hatt.ID, hatt.Port, 0)
	hatt.Port.SetSink(ep)
	aatt, _ := b.AttachEndpoint(sw, "arb", fabric.RoleManager, link.DefaultConfig())
	arb := New(eng, aatt, Config{
		DefaultWindow: 4096, AIMD: true,
		AIMDEpoch: 2 * sim.Microsecond, MinWindow: 512, MaxWindow: 8192, AdditiveStep: 512,
	})
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	const dst = 99
	cl := NewClient(ep, arb.ID())
	// Phase 1: sustained overload — reservations held 10us each, far
	// more offered than the window admits.
	var windows []uint64
	eng.Go("load", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			cl.Reserve(dst, 512).OnComplete(func(*flit.Packet, error) {
				eng.After(10*sim.Microsecond, func() { cl.Reclaim(dst, 512) })
			})
			p.Sleep(500 * sim.Nanosecond)
		}
	})
	eng.At(30*sim.Microsecond, func() { windows = append(windows, arb.Window(dst)) })
	// Phase 2: idle — the window must recover additively.
	eng.At(250*sim.Microsecond, func() { windows = append(windows, arb.Window(dst)) })
	// Keep the engine alive through the recovery epochs.
	eng.Go("heartbeat", func(p *sim.Proc) {
		for i := 0; i < 140; i++ {
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.Run()
	if len(windows) != 2 {
		t.Fatalf("sampled %d windows", len(windows))
	}
	if windows[0] >= 4096 {
		t.Fatalf("window under congestion = %d, want < initial 4096", windows[0])
	}
	if windows[1] <= windows[0] {
		t.Fatalf("window did not recover: %d -> %d", windows[0], windows[1])
	}
}

func TestAIMDFloorsAtMinWindow(t *testing.T) {
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	hatt, _ := b.AttachEndpoint(sw, "h", fabric.RoleHost, link.DefaultConfig())
	ep := txn.NewEndpoint(eng, hatt.ID, hatt.Port, 0)
	hatt.Port.SetSink(ep)
	aatt, _ := b.AttachEndpoint(sw, "arb", fabric.RoleManager, link.DefaultConfig())
	arb := New(eng, aatt, Config{
		DefaultWindow: 2048, AIMD: true,
		AIMDEpoch: sim.Microsecond, MinWindow: 512, MaxWindow: 4096, AdditiveStep: 256,
	})
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ep, arb.ID())
	// Permanent overload: reservations never reclaimed.
	eng.Go("hog", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			cl.Reserve(77, 512)
			p.Sleep(300 * sim.Nanosecond)
		}
		p.Sleep(20 * sim.Microsecond)
	})
	eng.Run()
	if w := arb.Window(77); w != 512 {
		t.Fatalf("window = %d, want floor 512", w)
	}
}
