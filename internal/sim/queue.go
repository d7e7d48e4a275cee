package sim

// Queue is a FIFO on a ring buffer. Every model component that hands
// out items one at a time in arrival order uses it, so a FIFO's storage
// policy is decided here alone. The ring starts at one slot and doubles
// when full, keeping the items in order; it never shrinks, so a queue
// that has reached its working size allocates nothing more. Pop zeroes
// the slot it empties, so the queue never keeps a popped item
// reachable. The zero value is an empty queue.
//
// The header is kept at 32 bytes (a slice and two int32s): queues are
// embedded per VC, per port and per line, thousands to a cluster.
type Queue[T any] struct {
	buf  []T // len is a power of two, or zero before the first Push
	head int32
	n    int32
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return int(q.n) }

// Push appends v at the back of the queue.
func (q *Queue[T]) Push(v T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[(int(q.head)+int(q.n))&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest item without removing it. It panics on an
// empty queue.
func (q *Queue[T]) Front() T {
	if q.n == 0 {
		panic("sim: Front of an empty Queue")
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest item. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty Queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = int32((int(q.head) + 1) & (len(q.buf) - 1))
	q.n--
	return v
}

// grow doubles a full ring, unwrapping it so the oldest item lands in
// slot 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(1, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
