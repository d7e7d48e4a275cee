package etrans

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"fcc/internal/arbiter"
	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// rig: initiator host endpoint, two FAMs, one agent per FAM, and an
// arbiter no client uses until a test gives the engine one.
type rig struct {
	eng    *sim.Engine
	init   *txn.Endpoint
	famA   *mem.FAM
	famB   *mem.FAM
	agentA *Agent
	agentB *Agent
	engine *Engine
	arb    *fabric.Attachment
}

func buildRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	att := func(name string, role fabric.Role) *fabric.Attachment {
		a, err := b.AttachEndpoint(sw, name, role, link.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ha := att("init", fabric.RoleHost)
	init := txn.NewEndpoint(eng, ha.ID, ha.Port, 0)
	ha.Port.SetSink(init)
	famA := mem.NewFAM(eng, att("famA", fabric.RoleFAM), mem.DefaultFAMConfig(1<<24))
	famB := mem.NewFAM(eng, att("famB", fabric.RoleFAM), mem.DefaultFAMConfig(1<<24))
	agentA := NewAgent(eng, att("agentA", fabric.RoleFAA))
	agentB := NewAgent(eng, att("agentB", fabric.RoleFAA))
	arb := att("arbiter", fabric.RoleManager)
	arbiter.New(eng, arb, arbiter.DefaultConfig())
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(eng, init)
	e.AddAgent(agentA.ID(), famA.ID())
	e.AddAgent(agentB.ID(), famB.ID())
	return &rig{eng: eng, init: init, famA: famA, famB: famB,
		agentA: agentA, agentB: agentB, engine: e, arb: arb}
}

func fill(f *mem.FAM, addr uint64, n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)*7 + seed
	}
	f.DRAM().Store().Write(addr, data)
	return data
}

func TestDelegatedCopyMovesBytes(t *testing.T) {
	r := buildRig(t)
	want := fill(r.famA, 0x1000, 4096, 1)
	var res *Result
	r.eng.Go("driver", func(p *sim.Proc) {
		res = r.engine.SubmitP(p, &Request{
			Src: []Segment{{Port: r.famA.ID(), Addr: 0x1000, Size: 4096}},
			Dst: []Segment{{Port: r.famB.ID(), Addr: 0x2000, Size: 4096}},
		})
	})
	r.eng.Run()
	if res == nil || res.Bytes != 4096 {
		t.Fatalf("result = %+v", res)
	}
	got := make([]byte, 4096)
	r.famB.DRAM().Store().Read(0x2000, got)
	if !bytes.Equal(got, want) {
		t.Fatal("bytes corrupted in flight")
	}
	if res.Executor != r.agentB.ID() {
		t.Fatalf("executor = %d, want domain agent of famB (%d)", res.Executor, r.agentB.ID())
	}
}

func TestScatterGather(t *testing.T) {
	r := buildRig(t)
	a := fill(r.famA, 0, 600, 3)
	b := fill(r.famA, 0x5000, 424, 9)
	r.eng.Go("driver", func(p *sim.Proc) {
		r.engine.SubmitP(p, &Request{
			Src: []Segment{
				{Port: r.famA.ID(), Addr: 0, Size: 600},
				{Port: r.famA.ID(), Addr: 0x5000, Size: 424},
			},
			Dst: []Segment{{Port: r.famB.ID(), Addr: 0x100, Size: 1024}},
		})
	})
	r.eng.Run()
	got := make([]byte, 1024)
	r.famB.DRAM().Store().Read(0x100, got)
	want := append(append([]byte(nil), a...), b...)
	if !bytes.Equal(got, want) {
		t.Fatal("scatter-gather reassembly wrong")
	}
}

func TestInlineImmediateSmall(t *testing.T) {
	r := buildRig(t)
	fill(r.famA, 0, 256, 5)
	var res *Result
	r.eng.Go("driver", func(p *sim.Proc) {
		res = r.engine.SubmitP(p, &Request{
			Src:       []Segment{{Port: r.famA.ID(), Addr: 0, Size: 256}},
			Dst:       []Segment{{Port: r.famB.ID(), Addr: 0, Size: 256}},
			Immediate: true,
		})
	})
	r.eng.Run()
	if res.Executor != r.init.ID() {
		t.Fatalf("executor = %d, want initiator (inline)", res.Executor)
	}
	if r.engine.Inline.Value() != 1 || r.engine.Delegated.Value() != 0 {
		t.Fatalf("inline=%d delegated=%d", r.engine.Inline.Value(), r.engine.Delegated.Value())
	}
}

func TestImmediateLargeStillDelegates(t *testing.T) {
	r := buildRig(t)
	fill(r.famA, 0, 8192, 5)
	r.eng.Go("driver", func(p *sim.Proc) {
		res := r.engine.SubmitP(p, &Request{
			Src:       []Segment{{Port: r.famA.ID(), Addr: 0, Size: 8192}},
			Dst:       []Segment{{Port: r.famB.ID(), Addr: 0, Size: 8192}},
			Immediate: true, // above InlineLimit -> delegated anyway
		})
		if res.Executor == r.init.ID() {
			t.Error("large immediate ran inline")
		}
	})
	r.eng.Run()
}

func TestOwnershipExecutorReturnsEarly(t *testing.T) {
	r := buildRig(t)
	fill(r.famA, 0, 16384, 2)
	req := func(own Ownership) sim.Time {
		var done sim.Time
		r.eng.Go("driver", func(p *sim.Proc) {
			start := p.Now()
			r.engine.SubmitP(p, &Request{
				Src:       []Segment{{Port: r.famA.ID(), Addr: 0, Size: 16384}},
				Dst:       []Segment{{Port: r.famB.ID(), Addr: 0x8000, Size: 16384}},
				Ownership: own,
			})
			done = p.Now() - start
		})
		r.eng.Run()
		return done
	}
	full := req(OwnInitiator)
	early := req(OwnExecutor)
	if early >= full/2 {
		t.Fatalf("OwnExecutor returned in %v, OwnInitiator %v — expected much earlier", early, full)
	}
	// And the data still arrives.
	got := make([]byte, 16384)
	r.famB.DRAM().Store().Read(0x8000, got)
	want := make([]byte, 16384)
	r.famA.DRAM().Store().Read(0, want)
	if !bytes.Equal(got, want) {
		t.Fatal("fire-and-forget transfer lost data")
	}
}

func TestDelegationFreesInitiator(t *testing.T) {
	// P#1's point: the initiator should not stall for the copy. Compare
	// initiator-busy time: inline (initiator does every chunk) vs
	// delegated with OwnInitiator (initiator waits but could overlap).
	r := buildRig(t)
	fill(r.famA, 0, 65536, 7)
	segsSrc := []Segment{{Port: r.famA.ID(), Addr: 0, Size: 65536}}
	segsDst := []Segment{{Port: r.famB.ID(), Addr: 0, Size: 65536}}
	var overlapWork int
	r.eng.Go("driver", func(p *sim.Proc) {
		f := r.engine.Submit(&Request{Src: segsSrc, Dst: segsDst})
		// While the agent copies, the initiator does other work.
		for !f.Done() {
			p.Sleep(500 * sim.Nanosecond)
			overlapWork++
		}
	})
	r.eng.Run()
	if overlapWork < 10 {
		t.Fatalf("initiator overlapped only %d work units during a 64KB delegated copy", overlapWork)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	r := buildRig(t)
	bad := []*Request{
		{Src: []Segment{{Port: 1, Size: 100}}, Dst: []Segment{{Port: 2, Size: 99}}},
		{},
	}
	for i, req := range bad {
		f := r.engine.Submit(req)
		if !f.Done() || f.Err() == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	// Oversized segment list.
	var segs []Segment
	for i := 0; i < 30; i++ {
		segs = append(segs, Segment{Port: 1, Addr: uint64(i * 64), Size: 64})
	}
	f := r.engine.Submit(&Request{Src: segs,
		Dst: []Segment{{Port: 2, Size: 30 * 64}}})
	if f.Err() == nil {
		t.Error("oversized descriptor accepted")
	}
}

func TestDescriptorRoundTripProperty(t *testing.T) {
	prop := func(srcPort, dstPort uint16, addr uint64, size uint32, own bool, prio uint8) bool {
		if size == 0 {
			size = 1
		}
		o := OwnInitiator
		if own {
			o = OwnExecutor
		}
		r := &Request{
			Src:       []Segment{{Port: flit.PortID(srcPort & 0xFFF), Addr: addr, Size: uint64(size)}},
			Dst:       []Segment{{Port: flit.PortID(dstPort & 0xFFF), Addr: addr ^ 0xABC, Size: uint64(size)}},
			Ownership: o,
			Priority:  prio,
		}
		q, err := decodeDescriptor(encodeDescriptor(r))
		if err != nil {
			return false
		}
		return q.Ownership == r.Ownership && q.Priority == r.Priority &&
			len(q.Src) == 1 && len(q.Dst) == 1 &&
			q.Src[0] == r.Src[0] && q.Dst[0] == r.Dst[0]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDescriptorRejectsTruncation(t *testing.T) {
	r := &Request{
		Src: []Segment{{Port: 1, Size: 64}},
		Dst: []Segment{{Port: 2, Size: 64}},
	}
	enc := encodeDescriptor(r)
	if _, err := decodeDescriptor(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated descriptor accepted")
	}
	if _, err := decodeDescriptor(nil); err == nil {
		t.Fatal("nil descriptor accepted")
	}
}

func TestRoundRobinWithoutAffinity(t *testing.T) {
	r := buildRig(t)
	// A destination with no registered domain agent round-robins.
	e := NewEngine(r.eng, r.init)
	e.AddAgent(r.agentA.ID())
	e.AddAgent(r.agentB.ID())
	fill(r.famA, 0, 2048, 1)
	var execs []flit.PortID
	r.eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			res := e.SubmitP(p, &Request{
				Src: []Segment{{Port: r.famA.ID(), Addr: 0, Size: 2048}},
				Dst: []Segment{{Port: r.famB.ID(), Addr: uint64(i) * 4096, Size: 2048}},
			})
			execs = append(execs, res.Executor)
		}
	})
	r.eng.Run()
	if execs[0] == execs[1] || execs[0] != execs[2] {
		t.Fatalf("executors = %v, want alternating", execs)
	}
}

// TestRefusedCopyFailsTyped partitions famB away from everyone, so its
// FAM refuses every write. A delegated copy fails when its agent
// refuses the transaction, and an inline copy when the FAM refuses the
// initiator's write: both with ErrExecutorFailed wrapping
// txn.ErrRefused, which txn.Typed accepts.
func TestRefusedCopyFailsTyped(t *testing.T) {
	r := buildRig(t)
	fill(r.famA, 0, 4096, 3)
	if err := r.famB.Partition(flit.MaxPortID, 0, 1<<24); err != nil {
		t.Fatal(err)
	}
	var errs [2]error
	r.eng.Go("copier", func(p *sim.Proc) {
		for i, size := range []uint64{4096, 256} {
			_, errs[i] = r.engine.Submit(&Request{
				Src:       []Segment{{Port: r.famA.ID(), Addr: 0, Size: size}},
				Dst:       []Segment{{Port: r.famB.ID(), Addr: 0, Size: size}},
				Immediate: size == 256,
			}).Await(p)
		}
	})
	r.eng.Run()
	for i, how := range []string{"delegated", "inline"} {
		err := errs[i]
		if !errors.Is(err, ErrExecutorFailed) || !errors.Is(err, txn.ErrRefused) || !txn.Typed(err) {
			t.Errorf("%s copy to a refusing FAM ended with %v, want %v wrapping %v",
				how, err, ErrExecutorFailed, txn.ErrRefused)
		}
	}
	if r.agentB.Failed.Value() != 1 || r.engine.Inline.Value() != 1 {
		t.Errorf("agent failures %d, inline runs %d; want 1 and 1",
			r.agentB.Failed.Value(), r.engine.Inline.Value())
	}
}

// TestInlineReservationTimeoutFailsTyped takes the arbiter's link down
// under an initiator whose requests time out after 5 µs. The inline
// copy's reservation never gets an answer, so the transfer must fail
// with ErrExecutorFailed wrapping txn.ErrTimeout rather than panic.
func TestInlineReservationTimeoutFailsTyped(t *testing.T) {
	r := buildRig(t)
	fill(r.famA, 0, 256, 5)
	r.init.Timeout = 5 * sim.Microsecond
	r.engine.SetArbiter(arbiter.NewClient(r.init, r.arb.ID))
	if err := r.arb.Link.InjectFault(fault.Fault{Kind: fault.LinkDown}); err != nil {
		t.Fatal(err)
	}
	var err error
	r.eng.Go("copier", func(p *sim.Proc) {
		_, err = r.engine.Submit(&Request{
			Src:       []Segment{{Port: r.famA.ID(), Addr: 0, Size: 256}},
			Dst:       []Segment{{Port: r.famB.ID(), Addr: 0, Size: 256}},
			Immediate: true,
		}).Await(p)
	})
	r.eng.Run()
	if !errors.Is(err, ErrExecutorFailed) || !errors.Is(err, txn.ErrTimeout) || !txn.Typed(err) {
		t.Fatalf("inline copy with the arbiter unreachable ended with %v, want %v wrapping %v",
			err, ErrExecutorFailed, txn.ErrTimeout)
	}
}
