package sim

// Semaphore is a counted resource with FIFO waiters, used to model finite
// hardware structures: MSHR entries, buffer slots, DMA engines, pipeline
// issue slots. Acquisition is callback-based so protocol state machines
// can use it directly; AcquireProc adapts it for process code.
type Semaphore struct {
	capacity int
	inUse    int
	waiters  Queue[func()]
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(capacity int) *Semaphore {
	if capacity <= 0 {
		panic("sim: semaphore capacity must be positive")
	}
	return &Semaphore{capacity: capacity}
}

// Capacity reports the total number of slots.
func (s *Semaphore) Capacity() int { return s.capacity }

// InUse reports the number of currently held slots.
func (s *Semaphore) InUse() int { return s.inUse }

// Available reports the number of free slots.
func (s *Semaphore) Available() int { return s.capacity - s.inUse }

// QueueLen reports the number of blocked acquirers.
func (s *Semaphore) QueueLen() int { return s.waiters.Len() }

// Acquire grants a slot to granted immediately if one is free, otherwise
// queues the request FIFO.
func (s *Semaphore) Acquire(granted func()) {
	if s.inUse < s.capacity {
		s.inUse++
		granted()
		return
	}
	s.waiters.Push(granted)
}

// TryAcquire takes a slot if one is free and reports whether it did.
func (s *Semaphore) TryAcquire() bool {
	if s.inUse < s.capacity {
		s.inUse++
		return true
	}
	return false
}

// Release returns a slot; the oldest waiter, if any, is granted in place.
func (s *Semaphore) Release() {
	if s.inUse <= 0 {
		panic("sim: semaphore released below zero")
	}
	if s.waiters.Len() > 0 {
		s.waiters.Pop()()
		return
	}
	s.inUse--
}

// AcquireProc blocks the process until a slot is granted.
func (s *Semaphore) AcquireProc(p *Proc) {
	p.Suspend(func(wake func()) { s.Acquire(wake) })
}

// Pipe models a serial resource with a fixed per-item occupancy: a link
// lane, a DMA engine, a DRAM data bus. Use schedules work back-to-back in
// FIFO order and returns the completion time of the new item.
type Pipe struct {
	eng  *Engine
	busy Time // time at which the pipe becomes free
}

// NewPipe returns a pipe bound to eng.
func NewPipe(eng *Engine) *Pipe { return &Pipe{eng: eng} }

// Use occupies the pipe for hold starting no earlier than now and
// returns the time the item's occupancy ends.
func (p *Pipe) Use(hold Time) Time {
	start := p.eng.Now()
	if p.busy > start {
		start = p.busy
	}
	p.busy = start + hold
	return p.busy
}

// Enter queues work on the pipe FIFO: start runs at the moment service
// begins (after any backlog), and the pipe stays occupied for hold
// beyond that. Unlike Use, the caller's work proceeds at service START,
// modelling a pipelined station whose service overlaps downstream
// latency.
func (p *Pipe) Enter(hold Time, start func()) {
	at := p.eng.Now()
	if p.busy > at {
		at = p.busy
	}
	p.busy = at + hold
	p.eng.At(at, start)
}
