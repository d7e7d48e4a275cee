package sim

// Future is a single-assignment cell carrying the eventual result of an
// asynchronous simulated operation (a memory access, an elastic
// transaction, a task execution). Callbacks registered before completion
// fire synchronously, in registration order, when Complete is called;
// callbacks registered afterwards fire immediately.
//
// Futures are the glue between callback-driven protocol state machines
// and blocking Proc-style model code (via Await).
type Future[T any] struct {
	done bool
	val  T
	err  error
	// cb0 is the inline slot for the first callback: the overwhelmingly
	// common case is exactly one consumer, which must not cost a slice
	// allocation on the transaction hot path.
	cb0 func(T, error)
	cbs []func(T, error)
	// wp is a process parked in Await. Waking it needs no closure at
	// all — finish resumes it directly — so the blocking consumption
	// style is allocation-free.
	wp *Proc
}

// NewFuture returns an incomplete future.
func NewFuture[T any]() *Future[T] { return &Future[T]{} }

// Done reports whether the future has completed (successfully or not).
func (f *Future[T]) Done() bool { return f.done }

// Value returns the result; it is only meaningful once Done.
func (f *Future[T]) Value() T { return f.val }

// Err returns the failure, if any; it is only meaningful once Done.
func (f *Future[T]) Err() error { return f.err }

// Complete resolves the future with v. Completing twice panics: a
// simulated operation must have exactly one outcome.
func (f *Future[T]) Complete(v T) { f.finish(v, nil) }

// Fail resolves the future with err.
func (f *Future[T]) Fail(err error) {
	var zero T
	f.finish(zero, err)
}

func (f *Future[T]) finish(v T, err error) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val, f.err = v, err
	if cb := f.cb0; cb != nil {
		f.cb0 = nil
		cb(v, err)
	}
	cbs := f.cbs
	f.cbs = nil
	for _, cb := range cbs {
		cb(v, err)
	}
	if p := f.wp; p != nil {
		f.wp = nil
		p.resumeBlocking()
	}
}

// OnComplete registers cb to run when the future resolves.
func (f *Future[T]) OnComplete(cb func(T, error)) {
	if f.done {
		cb(f.val, f.err)
		return
	}
	if f.cb0 == nil && f.cbs == nil {
		f.cb0 = cb
		return
	}
	f.cbs = append(f.cbs, cb)
}

// Await suspends the process until the future resolves, then returns its
// result.
func (f *Future[T]) Await(p *Proc) (T, error) {
	if !f.done {
		if f.wp == nil {
			// Direct park: finish resumes this process in completion
			// order with no callback machinery and no allocation.
			f.wp = p
			p.pause()
		} else {
			// A second process awaiting the same future takes the
			// (allocating) callback path.
			p.Suspend(func(wake func()) {
				f.OnComplete(func(T, error) { wake() })
			})
		}
	}
	return f.val, f.err
}

// MustAwait is Await for operations the caller knows cannot fail; it
// panics on error.
func (f *Future[T]) MustAwait(p *Proc) T {
	v, err := f.Await(p)
	if err != nil {
		panic("sim: MustAwait: " + err.Error())
	}
	return v
}

// AwaitAll suspends the process until every future in fs resolves and
// returns the first error encountered (in slice order), if any.
func AwaitAll[T any](p *Proc, fs []*Future[T]) error {
	for _, f := range fs {
		if _, err := f.Await(p); err != nil {
			return err
		}
	}
	return nil
}
