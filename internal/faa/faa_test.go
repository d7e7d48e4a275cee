package faa

import (
	"errors"
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/task"
	"fcc/internal/txn"
)

// rig: one caller endpoint + one FAA (+ optionally a FAM for tasks).
func rig(t *testing.T, cfg Config) (*sim.Engine, *txn.Endpoint, *Device, *mem.FAM) {
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
	da, err := b.AttachEndpoint(sw, "faa0", fabric.RoleFAA, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := New(eng, da, cfg)
	fa, err := b.AttachEndpoint(sw, "fam0", fabric.RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<24))
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	return eng, ep, dev, fam
}

// registerDoubler installs function 1 with a msg-0 handler that doubles
// every byte.
func registerDoubler(dev *Device) *Function {
	return dev.NewFunction(1, "doubler").On(0, func(c *HandlerCtx, in []byte) ([]byte, error) {
		c.Compute(100 * sim.Nanosecond)
		out := make([]byte, len(in))
		for i, b := range in {
			out[i] = b * 2
		}
		return out, nil
	})
}

func TestInvokeRoundTrip(t *testing.T) {
	eng, ep, dev, _ := rig(t, DefaultConfig())
	registerDoubler(dev)
	var got []byte
	eng.Go("driver", func(p *sim.Proc) {
		out, err := InvokeP(p, ep, dev.ID(), 1, 0, []byte{1, 2, 3})
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
		got = out
	})
	eng.Run()
	if len(got) != 3 || got[0] != 2 || got[2] != 6 {
		t.Fatalf("got %v", got)
	}
}

func TestInvokeUnknownFunctionFails(t *testing.T) {
	eng, ep, dev, _ := rig(t, DefaultConfig())
	var err error
	eng.Go("driver", func(p *sim.Proc) {
		_, err = InvokeP(p, ep, dev.ID(), 42, 0, nil)
	})
	eng.Run()
	if !errors.Is(err, txn.ErrRefused) || !txn.Typed(err) {
		t.Fatalf("invoking an unknown function ended with %v, want %v", err, txn.ErrRefused)
	}
}

func TestActorStatePersistsAcrossInvocations(t *testing.T) {
	eng, ep, dev, _ := rig(t, DefaultConfig())
	dev.NewFunction(2, "counter").On(0, func(c *HandlerCtx, in []byte) ([]byte, error) {
		n := byte(0)
		if v, ok := c.State["count"]; ok {
			n = v[0]
		}
		n++
		c.State["count"] = []byte{n}
		return []byte{n}, nil
	})
	var last byte
	eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			out, err := InvokeP(p, ep, dev.ID(), 2, 0, nil)
			if err != nil {
				t.Errorf("invoke %d: %v", i, err)
				return
			}
			last = out[0]
		}
	})
	eng.Run()
	if last != 5 {
		t.Fatalf("counter = %d, want 5 (actor state lost)", last)
	}
}

func TestCoordinationSublayerCallsCoLocatedFunction(t *testing.T) {
	eng, ep, dev, _ := rig(t, DefaultConfig())
	registerDoubler(dev)
	// Function 3 pipelines through function 1 locally.
	dev.NewFunction(3, "pipeline").On(0, func(c *HandlerCtx, in []byte) ([]byte, error) {
		mid, err := c.Call(1, 0, in)
		if err != nil {
			return nil, err
		}
		out, err := c.Call(1, 0, mid)
		return out, err
	})
	var got []byte
	eng.Go("driver", func(p *sim.Proc) {
		got, _ = InvokeP(p, ep, dev.ID(), 3, 0, []byte{5})
	})
	eng.Run()
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("pipeline result %v, want [20]", got)
	}
}

func TestCoresBoundConcurrency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	eng, ep, dev, _ := rig(t, cfg)
	inFlight, maxIn := 0, 0
	dev.NewFunction(1, "slow").On(0, func(c *HandlerCtx, in []byte) ([]byte, error) {
		inFlight++
		if inFlight > maxIn {
			maxIn = inFlight
		}
		c.Compute(1 * sim.Microsecond)
		inFlight--
		return nil, nil
	})
	done := 0
	eng.After(0, func() {
		for i := 0; i < 8; i++ {
			Invoke(ep, dev.ID(), 1, 0, nil).OnComplete(func([]byte, error) { done++ })
		}
	})
	eng.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	if maxIn > 2 {
		t.Fatalf("max concurrent handlers = %d, cores = 2", maxIn)
	}
}

func TestDeviceFailureRejectsAndKillsInFlight(t *testing.T) {
	eng, ep, dev, _ := rig(t, DefaultConfig())
	dev.NewFunction(1, "slow").On(0, func(c *HandlerCtx, in []byte) ([]byte, error) {
		c.Compute(10 * sim.Microsecond)
		return []byte{1}, nil
	})
	var inflightErr, afterErr error
	var inflightOut []byte
	eng.Go("driver", func(p *sim.Proc) {
		f := Invoke(ep, dev.ID(), 1, 0, nil)
		p.Sleep(2 * sim.Microsecond)
		dev.Fail() // chassis dies mid-execution
		inflightOut, inflightErr = f.Await(p)
		_, afterErr = InvokeP(p, ep, dev.ID(), 1, 0, nil)
	})
	eng.Run()
	if !errors.Is(inflightErr, txn.ErrRefused) || inflightOut != nil {
		t.Fatalf("in-flight work across a chassis failure ended with %v, want %v", inflightErr, txn.ErrRefused)
	}
	if !errors.Is(afterErr, txn.ErrRefused) || !txn.Typed(afterErr) {
		t.Fatalf("invocation on a down device ended with %v, want %v", afterErr, txn.ErrRefused)
	}
	if dev.Rejected.Value() < 2 {
		t.Fatalf("rejected = %d", dev.Rejected.Value())
	}
}

func TestRecoverClearsVolatileState(t *testing.T) {
	eng, ep, dev, _ := rig(t, DefaultConfig())
	dev.NewFunction(2, "counter").On(0, func(c *HandlerCtx, in []byte) ([]byte, error) {
		n := byte(0)
		if v, ok := c.State["count"]; ok {
			n = v[0]
		}
		n++
		c.State["count"] = []byte{n}
		return []byte{n}, nil
	})
	var after []byte
	eng.Go("driver", func(p *sim.Proc) {
		InvokeP(p, ep, dev.ID(), 2, 0, nil)
		InvokeP(p, ep, dev.ID(), 2, 0, nil)
		dev.Fail()
		dev.Recover()
		after, _ = InvokeP(p, ep, dev.ID(), 2, 0, nil)
	})
	eng.Run()
	if len(after) != 1 || after[0] != 1 {
		t.Fatalf("state after recover = %v, want reset to 1", after)
	}
}

func TestFAAEngineRunsIdempotentTasks(t *testing.T) {
	eng, ep, dev, fam := rig(t, DefaultConfig())
	runner := task.NewRunner(eng, ep)
	runner.AddEngine(NewEngine(dev))
	for i := 0; i < 8; i++ {
		fam.DRAM().Store().Write64(uint64(i*8), uint64(i))
	}
	tk := &task.Task{
		Name:    "sum",
		Inputs:  []task.Region{{Port: fam.ID(), Addr: 0, Size: 64}},
		Outputs: []task.Region{{Port: fam.ID(), Addr: 0x100, Size: 8}},
		Body: func(c *task.Ctx) error {
			var s uint64
			for i := 0; i < 64; i += 8 {
				s += task.GetU64(c.Input(0), i)
			}
			task.PutU64(c.Output(0), 0, s)
			c.Compute(200 * sim.Nanosecond)
			return nil
		},
	}
	var res *task.Result
	eng.Go("driver", func(p *sim.Proc) { res = runner.SubmitP(p, tk) })
	eng.Run()
	if res == nil || res.Engine != "faa0" {
		t.Fatalf("result = %+v", res)
	}
	if got := fam.DRAM().Store().Read64(0x100); got != 28 {
		t.Fatalf("sum = %d, want 28", got)
	}
}

func TestFAAEngineFailureRetriedByRunner(t *testing.T) {
	eng, ep, dev, fam := rig(t, DefaultConfig())
	runner := task.NewRunner(eng, ep)
	runner.AddEngine(NewEngine(dev))
	fam.DRAM().Store().Write64(0, 7)
	tk := &task.Task{
		Name:    "t",
		Inputs:  []task.Region{{Port: fam.ID(), Addr: 0, Size: 8}},
		Outputs: []task.Region{{Port: fam.ID(), Addr: 0x40, Size: 8}},
		Body: func(c *task.Ctx) error {
			task.PutU64(c.Output(0), 0, task.GetU64(c.Input(0), 0)*3)
			c.Compute(5 * sim.Microsecond)
			return nil
		},
		MaxAttempts: 10,
	}
	var res *task.Result
	eng.Go("driver", func(p *sim.Proc) { res = runner.SubmitP(p, tk) })
	// Crash the chassis during the first attempt, recover soon after.
	eng.At(3*sim.Microsecond, func() { dev.Fail() })
	eng.At(6*sim.Microsecond, func() { dev.Recover() })
	eng.Run()
	if res == nil {
		t.Fatal("task never completed")
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want retry after chassis failure", res.Attempts)
	}
	if got := fam.DRAM().Store().Read64(0x40); got != 21 {
		t.Fatalf("output = %d, want 21", got)
	}
}

func TestDuplicateFunctionIDPanics(t *testing.T) {
	_, _, dev, _ := rig(t, DefaultConfig())
	dev.NewFunction(1, "a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate function id accepted")
		}
	}()
	dev.NewFunction(1, "b")
}
