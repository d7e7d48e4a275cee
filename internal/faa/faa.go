// Package faa models fabric-attached accelerators and FCC's *hardware
// cooperative scalable functions* (Design Principle #3, second half):
// an FAA hosts many lightweight functions, each with dedicated queueing
// resources, a domain-specific processing budget, actor-style message
// handlers, and an execution-coordination sublayer for talking to
// co-located functions cheaply (the TAM / active-messages lineage the
// paper cites). Functions are the hardware execution substrate for
// idempotent tasks.
//
// The accelerator is also a passive failure domain: Fail() models a
// chassis power loss — in-flight work dies and later invocations are
// rejected until Recover() — which is what the idempotent-task runtime
// recovers from.
package faa

import (
	"fmt"

	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/task"
	"fcc/internal/txn"
)

// MsgType distinguishes handler entry points within a function.
type MsgType uint8

// HandlerCtx is what a message handler executes with.
type HandlerCtx struct {
	dev *Device
	p   *sim.Proc
	// State is the function's private actor state.
	State map[string][]byte
}

// Compute charges d of accelerator core time.
func (c *HandlerCtx) Compute(d sim.Time) { c.p.Sleep(d) }

// Call invokes a co-located function synchronously through the
// coordination sublayer (no fabric crossing, only dispatch latency).
func (c *HandlerCtx) Call(fn uint16, mt MsgType, payload []byte) ([]byte, error) {
	f := c.dev.funcs[fn]
	if f == nil {
		return nil, fmt.Errorf("faa: no co-located function %d", fn)
	}
	c.p.Sleep(c.dev.cfg.LocalDispatch)
	return c.dev.runHandler(c.p, f, mt, payload)
}

// Handler processes one message and returns the reply payload.
type Handler func(c *HandlerCtx, payload []byte) ([]byte, error)

// Function is one scalable function: dedicated queue, handlers, state.
type Function struct {
	ID       uint16
	Name     string
	handlers map[MsgType]Handler
	state    map[string][]byte
	queue    *sim.Semaphore

	Invocations sim.Counter
}

// On registers a handler for a message type.
func (f *Function) On(mt MsgType, h Handler) *Function {
	f.handlers[mt] = h
	return f
}

// Config sizes a device.
type Config struct {
	// Cores is the number of concurrent handler executions.
	Cores int
	// QueueDepth bounds per-function pending invocations.
	QueueDepth int
	// InvokeLat is the device-side dispatch cost per fabric invocation.
	InvokeLat sim.Time
	// LocalDispatch is the coordination-sublayer cost for co-located
	// function calls.
	LocalDispatch sim.Time
	// PerByte is the default compute cost per payload byte for the
	// task-engine adapter.
	PerByte sim.Time
}

// DefaultConfig is a modest SmartNIC-class accelerator.
func DefaultConfig() Config {
	return Config{
		Cores:         4,
		QueueDepth:    16,
		InvokeLat:     150 * sim.Nanosecond,
		LocalDispatch: 40 * sim.Nanosecond,
		PerByte:       sim.Nanosecond / 8,
	}
}

// Device is one FAA chassis on the fabric.
type Device struct {
	eng   *sim.Engine
	name  string
	cfg   Config
	ep    *txn.Endpoint
	funcs map[uint16]*Function
	cores *sim.Semaphore
	down  bool
	epoch int // incremented on every failure; stale work is discarded

	Invokes  sim.Counter
	Rejected sim.Counter
}

// New attaches an FAA at att.
func New(eng *sim.Engine, att *fabric.Attachment, cfg Config) *Device {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	d := &Device{
		eng:   eng,
		name:  att.Name,
		cfg:   cfg,
		funcs: make(map[uint16]*Function),
		cores: sim.NewSemaphore(cfg.Cores),
	}
	d.ep = txn.NewEndpoint(eng, att.ID, att.Port, 0)
	d.ep.Handler = d.handle
	att.Port.SetSink(d.ep)
	return d
}

// ID reports the device's fabric port.
func (d *Device) ID() flit.PortID { return d.ep.ID() }

// Name reports the chassis name.
func (d *Device) Name() string { return d.name }

// Endpoint exposes the device endpoint (to invoke other nodes).
func (d *Device) Endpoint() *txn.Endpoint { return d.ep }

// Down reports whether the chassis is failed.
func (d *Device) Down() bool { return d.down }

// NewFunction registers a scalable function on the device.
func (d *Device) NewFunction(id uint16, name string) *Function {
	if _, dup := d.funcs[id]; dup {
		panic(fmt.Sprintf("faa: duplicate function id %d", id))
	}
	f := &Function{
		ID:       id,
		Name:     name,
		handlers: make(map[MsgType]Handler),
		state:    make(map[string][]byte),
		queue:    sim.NewSemaphore(d.cfg.QueueDepth),
	}
	d.funcs[id] = f
	return f
}

// Fail models a chassis/power-domain failure: all in-flight handler
// work is lost and new invocations are rejected until Recover.
func (d *Device) Fail() {
	d.down = true
	d.epoch++
}

// Recover restores the chassis (volatile function state is gone).
func (d *Device) Recover() {
	d.down = false
	for _, f := range d.funcs {
		f.state = make(map[string][]byte)
	}
}

// FaultID implements fault.Injectable: the chassis name.
func (d *Device) FaultID() string { return d.name }

// Supports reports that an FAA chassis can be killed.
func (d *Device) Supports(k fault.Kind) bool { return k == fault.ChassisKill }

// InjectFault implements fault.Injectable.
func (d *Device) InjectFault(f fault.Fault) error {
	if f.Kind != fault.ChassisKill {
		return fmt.Errorf("faa: %s does not support %v", d.name, f.Kind)
	}
	d.Fail()
	return nil
}

// HealFault implements fault.Injectable.
func (d *Device) HealFault(k fault.Kind) error {
	if k != fault.ChassisKill {
		return fmt.Errorf("faa: %s does not support %v", d.name, k)
	}
	d.Recover()
	return nil
}

// encodeTarget packs function id and message type into a packet Addr.
func encodeTarget(fn uint16, mt MsgType) uint64 { return uint64(fn)<<8 | uint64(mt) }

func decodeTarget(addr uint64) (uint16, MsgType) {
	return uint16(addr >> 8), MsgType(addr & 0xFF)
}

// handle serves fabric invocations (OpFAAInvoke).
func (d *Device) handle(req *flit.Packet, reply func(*flit.Packet)) {
	if req.Op != flit.OpFAAInvoke {
		panic("faa: device got " + req.Op.String())
	}
	d.Invokes.Inc()
	fail := func() {
		d.Rejected.Inc()
		reply(req.Response(flit.OpMemErr, 0))
	}
	if d.down {
		fail()
		return
	}
	fn, mt := decodeTarget(req.Addr)
	f, ok := d.funcs[fn]
	if !ok {
		fail()
		return
	}
	epoch := d.epoch
	f.queue.Acquire(func() {
		d.eng.Go(fmt.Sprintf("faa-%s-f%d", d.name, fn), func(p *sim.Proc) {
			defer f.queue.Release()
			p.Sleep(d.cfg.InvokeLat)
			if d.down || d.epoch != epoch {
				fail()
				return
			}
			out, err := d.runHandler(p, f, mt, req.Data)
			if d.down || d.epoch != epoch {
				// The chassis died while we were computing: the work is
				// lost with it; the caller sees a failure domain crash.
				fail()
				return
			}
			if err != nil {
				fail()
				return
			}
			resp := req.Response(flit.OpFAAReply, uint32(len(out)))
			resp.Data = out
			reply(resp)
		})
	})
}

// runHandler executes one handler on a device core.
func (d *Device) runHandler(p *sim.Proc, f *Function, mt MsgType, payload []byte) ([]byte, error) {
	h, ok := f.handlers[mt]
	if !ok {
		return nil, fmt.Errorf("faa: function %s has no handler for msg %d", f.Name, mt)
	}
	d.cores.AcquireProc(p)
	defer d.cores.Release()
	f.Invocations.Inc()
	ctx := &HandlerCtx{dev: d, p: p, State: f.state}
	return h(ctx, payload)
}

// Invoke calls a function on a (possibly remote) FAA from any endpoint.
// A dead chassis, a missing function or a failed handler refuses the
// call: the future fails with txn.ErrRefused.
func Invoke(ep *txn.Endpoint, dev flit.PortID, fn uint16, mt MsgType, payload []byte) *sim.Future[[]byte] {
	f := sim.NewFuture[[]byte]()
	ep.Request(&flit.Packet{
		Chan: flit.ChIO, Op: flit.OpFAAInvoke, Dst: dev,
		Addr: encodeTarget(fn, mt),
		Size: uint32(len(payload)), Data: payload,
	}).OnComplete(func(resp *flit.Packet, err error) {
		if err != nil {
			f.Fail(err)
			return
		}
		f.Complete(resp.Data)
	})
	return f
}

// InvokeP is the blocking form of Invoke.
func InvokeP(p *sim.Proc, ep *txn.Endpoint, dev flit.PortID, fn uint16, mt MsgType, payload []byte) ([]byte, error) {
	return Invoke(ep, dev, fn, mt, payload).Await(p)
}

// Engine adapts a Device into a task.Engine: idempotent task bodies run
// on the accelerator's cores, and chassis failures surface as engine
// failures the task runtime retries through.
type Engine struct {
	dev *Device
}

// NewEngine wraps dev as an idempotent-task execution engine.
func NewEngine(dev *Device) *Engine { return &Engine{dev: dev} }

// Name implements task.Engine.
func (e *Engine) Name() string { return e.dev.name }

// Execute implements task.Engine.
func (e *Engine) Execute(t *task.Task, ctx *task.Ctx) *sim.Future[struct{}] {
	f := sim.NewFuture[struct{}]()
	d := e.dev
	if d.down {
		f.Fail(task.ErrEngineFailed)
		return f
	}
	epoch := d.epoch
	d.eng.Go("faa-task-"+t.Name, func(p *sim.Proc) {
		d.cores.AcquireProc(p)
		defer d.cores.Release()
		var inBytes int
		for i := range t.Inputs {
			inBytes += len(ctx.Input(i))
		}
		p.Sleep(d.cfg.InvokeLat + sim.Time(inBytes)*d.cfg.PerByte)
		if d.down || d.epoch != epoch {
			f.Fail(task.ErrEngineFailed)
			return
		}
		task.BindCompute(ctx, func(dur sim.Time) { p.Sleep(dur) })
		if err := t.Body(ctx); err != nil {
			f.Fail(err)
			return
		}
		if d.down || d.epoch != epoch {
			f.Fail(task.ErrEngineFailed)
			return
		}
		f.Complete(struct{}{})
	})
	return f
}

// RegisterStats attaches the chassis counters and endpoint to a registry.
func (d *Device) RegisterStats(s *sim.Stats) {
	s.Register("invokes", &d.Invokes)
	s.Register("rejected", &d.Rejected)
	s.Gauge("cores_in_use", func() int64 { return int64(d.cores.InUse()) })
	d.ep.RegisterStats(s.Child("ep"))
}
