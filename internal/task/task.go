// Package task implements FCC Design Principle #3's first half and
// UniFabric §5(3): idempotent tasks for composable infrastructures with
// passive failure domains.
//
// A Task declares its input and output regions in fabric memory. The
// "compilation framework" of the paper is realised as a verifier: a
// task whose outputs are disjoint from its inputs is directly
// idempotent; overlapping tasks are made idempotent by the runtime
// through input snapshotting — the top half snapshots every input into
// a runtime-owned staging area once, at submission, so every execution
// attempt computes from identical bytes, and the commit (outputs plus a
// final done-flag write) rewrites identical data on re-execution.
//
// The runtime is split (top-half / bottom-half, after the kernel
// tasklet architecture): the top half on the submitting node snapshots,
// dispatches, detects failures, and retries; the bottom half runs on an
// execution engine — a host process or a hardware cooperative scalable
// function on an FAA — against the snapshot.
package task

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// Region is a contiguous range in some fabric node's memory.
type Region struct {
	Port flit.PortID
	Addr uint64
	Size uint64
}

func (r Region) overlaps(o Region) bool {
	return r.Port == o.Port && r.Addr < o.Addr+o.Size && o.Addr < r.Addr+r.Size
}

// Ctx is what a task body sees: its input bytes (from the snapshot) and
// an output writer. Bodies are pure functions of their inputs — that is
// what the idempotence contract means.
type Ctx struct {
	inputs  [][]byte
	outputs [][]byte
	// Compute charges simulated execution time.
	compute func(d sim.Time)
}

// Input returns the bytes of the i-th declared input region.
func (c *Ctx) Input(i int) []byte { return c.inputs[i] }

// Output returns the writable buffer for the i-th declared output
// region (len == region size).
func (c *Ctx) Output(i int) []byte { return c.outputs[i] }

// Compute advances simulated time to model the body's execution cost.
func (c *Ctx) Compute(d sim.Time) { c.compute(d) }

// Body is a task's computation. It must be deterministic in its inputs.
type Body func(c *Ctx) error

// Task is one idempotent unit of work.
type Task struct {
	Name    string
	Inputs  []Region
	Outputs []Region
	Body    Body
	// MaxAttempts bounds re-execution (0 = default 5).
	MaxAttempts int
}

// Verify checks the declaration: non-empty outputs, no two outputs
// overlapping (double-write would make commit order-dependent). It also
// reports whether the task is *directly* idempotent (inputs and outputs
// disjoint); the runtime snapshots either way, so overlap is legal.
func (t *Task) Verify() (directlyIdempotent bool, err error) {
	if t.Body == nil {
		return false, errors.New("task: nil body")
	}
	if len(t.Outputs) == 0 {
		return false, errors.New("task: no outputs (side-effect-free tasks need none of this machinery)")
	}
	for i := range t.Outputs {
		for j := i + 1; j < len(t.Outputs); j++ {
			if t.Outputs[i].overlaps(t.Outputs[j]) {
				return false, fmt.Errorf("task: outputs %d and %d overlap", i, j)
			}
		}
	}
	direct := true
	for _, in := range t.Inputs {
		for _, out := range t.Outputs {
			if in.overlaps(out) {
				direct = false
			}
		}
	}
	return direct, nil
}

// Engine executes task attempts. Execution may fail (crash of the
// engine's node, a passive failure domain) — the future then fails and
// the runtime retries, possibly on a different engine.
type Engine interface {
	Name() string
	// Execute runs the body against the given context; the future
	// resolves when outputs are ready in ctx (not yet committed).
	Execute(t *Task, ctx *Ctx) *sim.Future[struct{}]
}

// ErrEngineFailed marks a failure-domain crash during execution.
var ErrEngineFailed = errors.New("task: execution engine failed")

// Runner is the top-half runtime on a submitting node.
type Runner struct {
	eng     *sim.Engine
	ep      *txn.Endpoint
	engines []Engine
	rr      int

	// Metrics.
	Submitted sim.Counter
	Attempts  sim.Counter
	Failures  sim.Counter
	Committed sim.Counter
}

// NewRunner builds a runner that snapshots and commits through ep.
func NewRunner(eng *sim.Engine, ep *txn.Endpoint) *Runner {
	return &Runner{eng: eng, ep: ep}
}

// AddEngine registers an execution engine.
func (r *Runner) AddEngine(e Engine) { r.engines = append(r.engines, e) }

// Result describes a finished task.
type Result struct {
	Attempts int
	Engine   string
}

// Submit runs the task to completion (with retries) and resolves with
// the attempt count. The done-flag protocol makes commit exactly-once
// effective: attempts recompute identical bytes from the snapshot, so
// replayed commits are harmless. A region the fabric fails to read or
// write fails the future with that request's txn error.
func (r *Runner) Submit(t *Task) *sim.Future[*Result] {
	f := sim.NewFuture[*Result]()
	if _, err := t.Verify(); err != nil {
		f.Fail(err)
		return f
	}
	if len(r.engines) == 0 {
		f.Fail(errors.New("task: no execution engines"))
		return f
	}
	r.Submitted.Inc()
	max := t.MaxAttempts
	if max <= 0 {
		max = 5
	}
	r.eng.Go("task-"+t.Name, func(p *sim.Proc) {
		// Top half: snapshot every input ONCE, before any attempt.
		snap := make([][]byte, len(t.Inputs))
		for i, in := range t.Inputs {
			b, err := r.readRegion(p, in)
			if err != nil {
				f.Fail(fmt.Errorf("task %s: input %d: %w", t.Name, i, err))
				return
			}
			snap[i] = b
		}
		for attempt := 1; attempt <= max; attempt++ {
			r.Attempts.Inc()
			eng := r.engines[r.rr%len(r.engines)]
			r.rr++
			ctx := &Ctx{inputs: snap}
			for _, out := range t.Outputs {
				ctx.outputs = append(ctx.outputs, make([]byte, out.Size))
			}
			_, err := eng.Execute(t, ctx).Await(p)
			if err != nil {
				r.Failures.Inc()
				continue // re-execute: safe by construction
			}
			// Commit: write outputs, then the task is done. A crash
			// mid-commit just means the next attempt rewrites the same
			// bytes. A region the fabric fails to write fails the task.
			for i, out := range t.Outputs {
				if err := r.writeRegion(p, out, ctx.outputs[i]); err != nil {
					f.Fail(fmt.Errorf("task %s: output %d: %w", t.Name, i, err))
					return
				}
			}
			r.Committed.Inc()
			f.Complete(&Result{Attempts: attempt, Engine: eng.Name()})
			return
		}
		f.Fail(fmt.Errorf("task %s: %w after %d attempts", t.Name, ErrEngineFailed, max))
	})
	return f
}

// SubmitP is the blocking form of Submit.
func (r *Runner) SubmitP(p *sim.Proc, t *Task) *Result {
	return r.Submit(t).MustAwait(p)
}

// readRegion pulls a region's bytes over the fabric in MPS chunks. It
// stops at the first chunk that fails, with that chunk's txn error.
func (r *Runner) readRegion(p *sim.Proc, reg Region) ([]byte, error) {
	out := make([]byte, 0, reg.Size)
	var off uint64
	for off < reg.Size {
		chunk := uint64(link.MaxPacketPayload)
		if rem := reg.Size - off; rem < chunk {
			chunk = rem
		}
		resp, err := r.ep.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd,
			Dst: reg.Port, Addr: reg.Addr + off, ReqLen: uint32(chunk)}).Await(p)
		if err != nil {
			return nil, err
		}
		out = append(out, resp.Data...)
		off += chunk
	}
	return out, nil
}

// writeRegion pushes data into a region in MPS chunks, stopping at the
// first chunk that fails.
func (r *Runner) writeRegion(p *sim.Proc, reg Region, data []byte) error {
	var off uint64
	for off < reg.Size {
		chunk := uint64(link.MaxPacketPayload)
		if rem := reg.Size - off; rem < chunk {
			chunk = rem
		}
		_, err := r.ep.Request(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
			Dst: reg.Port, Addr: reg.Addr + off, Size: uint32(chunk),
			Data: append([]byte(nil), data[off:off+chunk]...)}).Await(p)
		if err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// LocalEngine runs task bodies as processes on the submitting node with
// optional fail-stop injection — the baseline execution engine.
type LocalEngine struct {
	eng  *sim.Engine
	name string
	// FailProb is the probability an attempt crashes mid-execution.
	FailProb float64
	rng      *sim.RNG
	// PerByte models compute speed: execution time added per input byte
	// on top of whatever the body charges via ctx.Compute.
	PerByte sim.Time

	Crashes sim.Counter
}

// NewLocalEngine builds a host-process engine.
func NewLocalEngine(eng *sim.Engine, name string, seed uint64) *LocalEngine {
	return &LocalEngine{eng: eng, name: name, rng: sim.NewRNG(seed),
		PerByte: sim.Nanosecond / 4}
}

// Name implements Engine.
func (e *LocalEngine) Name() string { return e.name }

// Execute implements Engine.
func (e *LocalEngine) Execute(t *Task, ctx *Ctx) *sim.Future[struct{}] {
	f := sim.NewFuture[struct{}]()
	e.eng.Go("exec-"+t.Name, func(p *sim.Proc) {
		var inBytes int
		for _, in := range ctx.inputs {
			inBytes += len(in)
		}
		base := sim.Time(inBytes) * e.PerByte
		fail := e.FailProb > 0 && e.rng.Float64() < e.FailProb
		if fail {
			// Crash partway: time passes, partial (discarded) work, no
			// result. The scratch outputs die with the engine.
			p.Sleep(base / 2)
			e.Crashes.Inc()
			f.Fail(ErrEngineFailed)
			return
		}
		ctx.compute = func(d sim.Time) { p.Sleep(d) }
		p.Sleep(base)
		if err := t.Body(ctx); err != nil {
			f.Fail(err)
			return
		}
		f.Complete(struct{}{})
	})
	return f
}

// Checksum64 is a convenience helper tasks use to build verifiable
// outputs (FNV-1a over a buffer).
func Checksum64(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// PutU64 writes v little-endian at out[off:].
func PutU64(out []byte, off int, v uint64) { binary.LittleEndian.PutUint64(out[off:], v) }

// GetU64 reads a little-endian u64 at in[off:].
func GetU64(in []byte, off int) uint64 { return binary.LittleEndian.Uint64(in[off:]) }

// BindCompute attaches the time-charging function an execution engine
// uses to honour ctx.Compute. Engines outside this package (e.g. FAA
// adapters) call it before running the body.
func BindCompute(c *Ctx, fn func(d sim.Time)) { c.compute = fn }

// RegisterStats attaches the runner's retry/commit counters to a registry.
func (r *Runner) RegisterStats(s *sim.Stats) {
	s.Register("submitted", &r.Submitted)
	s.Register("attempts", &r.Attempts)
	s.Register("failures", &r.Failures)
	s.Register("committed", &r.Committed)
}
