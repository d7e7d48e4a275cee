package sim

import (
	"testing"
	"unsafe"
)

// FuzzQueue drives a Queue and a reference FIFO, a slice consumed with
// q = q[1:], through the same fuzzer-chosen sequence of calls: each
// input byte is a Push (b%3 == 0), a Pop (1) or a Front (2). After every
// step the two must agree on Len and on the item popped or read, Pop and
// Front on an empty queue must panic, and every ring slot outside the
// live window must be nil, so the queue keeps no popped item reachable.
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[*int]
		var ref []*int
		for step, b := range ops {
			switch b % 3 {
			case 0:
				v := new(int)
				*v = step
				q.Push(v)
				ref = append(ref, v)
			case 1:
				if len(ref) == 0 {
					if !panics(func() { q.Pop() }) {
						t.Fatalf("step %d: Pop on an empty queue did not panic", step)
					}
					break
				}
				got, want := q.Pop(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("step %d: Pop = item %d, want item %d", step, item(got), item(want))
				}
			case 2:
				if len(ref) == 0 {
					if !panics(func() { q.Front() }) {
						t.Fatalf("step %d: Front on an empty queue did not panic", step)
					}
					break
				}
				if got, want := q.Front(), ref[0]; got != want {
					t.Fatalf("step %d: Front = item %d, want item %d", step, item(got), item(want))
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
			}
			size := len(q.buf)
			if size&(size-1) != 0 || q.Len() > size || size > 0 && int(q.head) >= size {
				t.Fatalf("step %d: %d items from head %d on a ring of %d slots", step, q.Len(), q.head, size)
			}
			for i := q.Len(); i < size; i++ {
				if p := q.buf[(int(q.head)+i)&(size-1)]; p != nil {
					t.Fatalf("step %d: slot %d outside the live window still holds item %d",
						step, (int(q.head)+i)&(size-1), *p)
				}
			}
		}
	})
}

// item names a fuzzed item by the step that pushed it, -1 for nil.
func item(p *int) int {
	if p == nil {
		return -1
	}
	return *p
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestQueueWarmZeroAlloc pins a queue's memory cost: a 32-byte header,
// and no allocation once the ring has grown to the queue's working
// length, however often it wraps.
func TestQueueWarmZeroAlloc(t *testing.T) {
	if n := unsafe.Sizeof(Queue[func()]{}); n != 32 {
		t.Fatalf("Queue header is %d bytes, want 32", n)
	}
	var q Queue[*int]
	v := new(int)
	for i := 0; i < 8; i++ {
		q.Push(v)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 5; i++ {
			q.Push(v)
		}
		for i := 0; i < 5; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm cycle of 5 pushes and 5 pops on an 8-slot ring allocates %v times, want 0", allocs)
	}
}
