package task

import (
	"bytes"
	"errors"
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// rig: a submitting endpoint + one FAM holding task data.
func rig(t *testing.T) (*sim.Engine, *Runner, *mem.FAM) {
	t.Helper()
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	ha, err := b.AttachEndpoint(sw, "host0", fabric.RoleHost, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ep := txn.NewEndpoint(eng, ha.ID, ha.Port, 0)
	ha.Port.SetSink(ep)
	fa, err := b.AttachEndpoint(sw, "fam0", fabric.RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<24))
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	return eng, NewRunner(eng, ep), f
}

// sumTask reads n u64s at in and writes their sum (and a checksum of
// the raw input) to out — inputs and outputs disjoint.
func sumTask(f *mem.FAM, in, out uint64, n int) *Task {
	return &Task{
		Name:    "sum",
		Inputs:  []Region{{Port: f.ID(), Addr: in, Size: uint64(n * 8)}},
		Outputs: []Region{{Port: f.ID(), Addr: out, Size: 16}},
		Body: func(c *Ctx) error {
			var sum uint64
			data := c.Input(0)
			for i := 0; i < len(data); i += 8 {
				sum += GetU64(data, i)
			}
			PutU64(c.Output(0), 0, sum)
			PutU64(c.Output(0), 8, Checksum64(data))
			c.Compute(500 * sim.Nanosecond)
			return nil
		},
	}
}

func seed(f *mem.FAM, addr uint64, n int) uint64 {
	var want uint64
	for i := 0; i < n; i++ {
		f.DRAM().Store().Write64(addr+uint64(i*8), uint64(i*3+1))
		want += uint64(i*3 + 1)
	}
	return want
}

func TestTaskRunsAndCommits(t *testing.T) {
	eng, r, f := rig(t)
	r.AddEngine(NewLocalEngine(eng, "cpu0", 1))
	want := seed(f, 0x1000, 64)
	var res *Result
	eng.Go("driver", func(p *sim.Proc) {
		res = r.SubmitP(p, sumTask(f, 0x1000, 0x8000, 64))
	})
	eng.Run()
	if res == nil || res.Attempts != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := f.DRAM().Store().Read64(0x8000); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestTaskRecoversFromEngineFailures(t *testing.T) {
	eng, r, f := rig(t)
	le := NewLocalEngine(eng, "flaky", 7)
	le.FailProb = 0.6
	r.AddEngine(le)
	want := seed(f, 0x1000, 64)
	results := make([]*Result, 0, 20)
	eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			out := 0x8000 + uint64(i*64)
			tk := sumTask(f, 0x1000, out, 64)
			tk.MaxAttempts = 50
			results = append(results, r.SubmitP(p, tk))
		}
	})
	eng.Run()
	if len(results) != 20 {
		t.Fatalf("completed %d of 20", len(results))
	}
	retried := 0
	for i, res := range results {
		if res.Attempts > 1 {
			retried++
		}
		if got := f.DRAM().Store().Read64(0x8000 + uint64(i*64)); got != want {
			t.Fatalf("task %d committed %d, want %d despite failures", i, got, want)
		}
	}
	if retried == 0 {
		t.Fatal("FailProb 0.6 produced no retries — not exercising recovery")
	}
	if le.Crashes.Value() == 0 {
		t.Fatal("no crashes injected")
	}
}

func TestOverlappingTaskIsSafeViaSnapshot(t *testing.T) {
	// In-place increment: output overlaps input. The snapshot taken at
	// submit makes re-execution compute from the original bytes, so
	// even many failed attempts leave exactly old+1.
	eng, r, f := rig(t)
	le := NewLocalEngine(eng, "flaky", 99)
	le.FailProb = 0.7
	r.AddEngine(le)
	f.DRAM().Store().Write64(0x4000, 1000)
	inc := &Task{
		Name:    "inc",
		Inputs:  []Region{{Port: f.ID(), Addr: 0x4000, Size: 8}},
		Outputs: []Region{{Port: f.ID(), Addr: 0x4000, Size: 8}},
		Body: func(c *Ctx) error {
			PutU64(c.Output(0), 0, GetU64(c.Input(0), 0)+1)
			return nil
		},
		MaxAttempts: 100,
	}
	if direct, err := inc.Verify(); err != nil || direct {
		t.Fatalf("verify: direct=%v err=%v, want overlap detected", direct, err)
	}
	var res *Result
	eng.Go("driver", func(p *sim.Proc) { res = r.SubmitP(p, inc) })
	eng.Run()
	if res.Attempts < 2 {
		t.Skip("no failures sampled; cannot exercise the hazard")
	}
	if got := f.DRAM().Store().Read64(0x4000); got != 1001 {
		t.Fatalf("value = %d after %d attempts, want exactly 1001", got, res.Attempts)
	}
}

func TestVerifyDetectsOverlapAndErrors(t *testing.T) {
	mk := func(in, out Region) *Task {
		return &Task{Name: "t", Inputs: []Region{in}, Outputs: []Region{out},
			Body: func(*Ctx) error { return nil }}
	}
	direct, err := mk(Region{Port: 1, Addr: 0, Size: 64}, Region{Port: 1, Addr: 64, Size: 64}).Verify()
	if err != nil || !direct {
		t.Fatalf("disjoint task: direct=%v err=%v", direct, err)
	}
	direct, err = mk(Region{Port: 1, Addr: 0, Size: 64}, Region{Port: 1, Addr: 32, Size: 64}).Verify()
	if err != nil || direct {
		t.Fatalf("overlapping task: direct=%v err=%v", direct, err)
	}
	// Same addresses on different ports do not overlap.
	direct, _ = mk(Region{Port: 1, Addr: 0, Size: 64}, Region{Port: 2, Addr: 0, Size: 64}).Verify()
	if !direct {
		t.Fatal("cross-port regions flagged as overlapping")
	}
	if _, err := (&Task{Name: "nobody", Outputs: []Region{{Size: 8}}}).Verify(); err == nil {
		t.Fatal("nil body accepted")
	}
	if _, err := (&Task{Name: "noout", Body: func(*Ctx) error { return nil }}).Verify(); err == nil {
		t.Fatal("no outputs accepted")
	}
	dup := &Task{Name: "dup", Body: func(*Ctx) error { return nil },
		Outputs: []Region{{Port: 1, Addr: 0, Size: 64}, {Port: 1, Addr: 32, Size: 8}}}
	if _, err := dup.Verify(); err == nil {
		t.Fatal("overlapping outputs accepted")
	}
}

func TestTaskFailsAfterMaxAttempts(t *testing.T) {
	eng, r, f := rig(t)
	le := NewLocalEngine(eng, "dead", 3)
	le.FailProb = 1.0
	r.AddEngine(le)
	seed(f, 0, 8)
	tk := sumTask(f, 0, 0x8000, 8)
	tk.MaxAttempts = 3
	var err error
	eng.Go("driver", func(p *sim.Proc) {
		_, err = r.Submit(tk).Await(p)
	})
	eng.Run()
	if err == nil {
		t.Fatal("task succeeded on an always-failing engine")
	}
	if r.Attempts.Value() != 3 {
		t.Fatalf("attempts = %d, want 3", r.Attempts.Value())
	}
}

// TestRefusedRegionsFailTheTask runs sumTask against a FAM that
// refuses the submitter: first with the whole device partitioned away,
// so the input snapshot is refused, then with only the output outside
// the submitter's partition, so the commit is refused after the body
// ran. Each task must fail with the refusal, which txn.Typed accepts,
// and commit nothing.
func TestRefusedRegionsFailTheTask(t *testing.T) {
	for _, c := range []struct {
		name     string
		part     func(f *mem.FAM, host flit.PortID) error
		bodyRuns int
	}{
		{"input refused", func(f *mem.FAM, _ flit.PortID) error {
			return f.Partition(flit.MaxPortID, 0, 1<<24)
		}, 0},
		{"output refused", func(f *mem.FAM, host flit.PortID) error {
			return f.Partition(host, 0, 0x4000)
		}, 1},
	} {
		eng, r, f := rig(t)
		r.AddEngine(NewLocalEngine(eng, "cpu0", 1))
		seed(f, 0x1000, 64)
		if err := c.part(f, r.ep.ID()); err != nil {
			t.Fatal(err)
		}
		tk := sumTask(f, 0x1000, 0x8000, 64)
		body, runs := tk.Body, 0
		tk.Body = func(ctx *Ctx) error { runs++; return body(ctx) }
		var err error
		eng.Go("submitter", func(p *sim.Proc) { _, err = r.Submit(tk).Await(p) })
		eng.Run()
		if !errors.Is(err, txn.ErrRefused) || !txn.Typed(err) {
			t.Errorf("%s: task ended with %v, want %v", c.name, err, txn.ErrRefused)
		}
		if runs != c.bodyRuns || r.Committed.Value() != 0 {
			t.Errorf("%s: body ran %d times and %d tasks committed; want %d and 0",
				c.name, runs, r.Committed.Value(), c.bodyRuns)
		}
	}
}

func TestMultiEngineRoundRobin(t *testing.T) {
	eng, r, f := rig(t)
	r.AddEngine(NewLocalEngine(eng, "e0", 1))
	r.AddEngine(NewLocalEngine(eng, "e1", 2))
	seed(f, 0, 8)
	var engines []string
	eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			res := r.SubmitP(p, sumTask(f, 0, 0x8000+uint64(i*64), 8))
			engines = append(engines, res.Engine)
		}
	})
	eng.Run()
	if engines[0] == engines[1] || engines[0] != engines[2] {
		t.Fatalf("engines = %v, want alternating", engines)
	}
}

func TestTaskBodyErrorPropagates(t *testing.T) {
	eng, r, f := rig(t)
	r.AddEngine(NewLocalEngine(eng, "cpu", 1))
	bad := &Task{
		Name:        "bad",
		Outputs:     []Region{{Port: f.ID(), Addr: 0x100, Size: 8}},
		Body:        func(*Ctx) error { return errBody },
		MaxAttempts: 2,
	}
	var err error
	eng.Go("driver", func(p *sim.Proc) { _, err = r.Submit(bad).Await(p) })
	eng.Run()
	if err == nil {
		t.Fatal("body error swallowed")
	}
}

var errBody = errTest("body error")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestSnapshotIsolatesConcurrentMutation(t *testing.T) {
	// Once submitted, a task computes on the snapshot even if the
	// source region changes mid-flight.
	eng, r, f := rig(t)
	le := NewLocalEngine(eng, "slow", 1)
	le.PerByte = 10 * sim.Nanosecond // slow execution window
	r.AddEngine(le)
	want := seed(f, 0x1000, 64)
	var res *Result
	eng.Go("driver", func(p *sim.Proc) {
		fut := r.Submit(sumTask(f, 0x1000, 0x8000, 64))
		p.Sleep(2 * sim.Microsecond) // after snapshot, during execution
		f.DRAM().Store().Write64(0x1000, 999999)
		res, _ = fut.Await(p)
	})
	eng.Run()
	if res == nil {
		t.Fatal("task did not finish")
	}
	if got := f.DRAM().Store().Read64(0x8000); got != want {
		t.Fatalf("sum = %d, want snapshot-time %d", got, want)
	}
}

func TestChecksumAndU64Helpers(t *testing.T) {
	if Checksum64([]byte("abc")) == Checksum64([]byte("abd")) {
		t.Fatal("checksum collisions on trivial input")
	}
	buf := make([]byte, 16)
	PutU64(buf, 8, 0xCAFEBABE)
	if GetU64(buf, 8) != 0xCAFEBABE {
		t.Fatal("PutU64/GetU64 mismatch")
	}
	if !bytes.Equal(buf[:8], make([]byte, 8)) {
		t.Fatal("PutU64 wrote outside its slot")
	}
}

// Property-ish check: a pipeline of dependent tasks (B reads A's
// output) composes correctly under failures.
func TestTaskPipelineUnderFailures(t *testing.T) {
	eng, r, f := rig(t)
	le := NewLocalEngine(eng, "flaky", 11)
	le.FailProb = 0.4
	r.AddEngine(le)
	want := seed(f, 0, 32) // sum of inputs
	stage1 := sumTask(f, 0, 0x8000, 32)
	stage1.MaxAttempts = 50
	stage2 := &Task{
		Name:    "double",
		Inputs:  []Region{{Port: f.ID(), Addr: 0x8000, Size: 8}},
		Outputs: []Region{{Port: f.ID(), Addr: 0x9000, Size: 8}},
		Body: func(c *Ctx) error {
			PutU64(c.Output(0), 0, GetU64(c.Input(0), 0)*2)
			return nil
		},
		MaxAttempts: 50,
	}
	eng.Go("driver", func(p *sim.Proc) {
		r.SubmitP(p, stage1)
		r.SubmitP(p, stage2) // snapshot happens after stage1 committed
	})
	eng.Run()
	if got := f.DRAM().Store().Read64(0x9000); got != want*2 {
		t.Fatalf("pipeline result = %d, want %d", got, want*2)
	}
}
