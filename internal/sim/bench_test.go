package sim

import "testing"

// BenchmarkEngineEventThroughput measures raw event dispatch rate —
// the floor under every simulation in this repository.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	e.Run()
}

// chainState drives the closure-free self-rescheduling chain used by the
// schedule/fire benchmarks: the canonical flit-path pattern (every fired
// event schedules its successor a few ns out).
type chainState struct {
	e     *Engine
	n     int
	limit int
	d     Time
}

func chainFire(a any) {
	s := a.(*chainState)
	s.n++
	if s.n < s.limit {
		s.e.After2(s.d, chainFire, s)
	}
}

// BenchmarkEngineScheduleFire is the headline scheduler number: one
// schedule + one dispatch per iteration through the closure-free ladder
// path. Compare against BenchmarkEngineScheduleFireHeap (the pre-ladder
// container/heap executive) for the speedup, and against allocs/op = 0
// for the pooling contract.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	st := &chainState{e: e, limit: b.N, d: Nanosecond}
	b.ReportAllocs()
	b.ResetTimer()
	e.After2(0, chainFire, st)
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineScheduleFireFanout stresses bucket occupancy: a fixed
// population of 1024 in-flight events circulates with delays spread over
// ~100 buckets, so every dispatch list holds multiple events and refill
// has to sort, unlike the single-event chain above.
func BenchmarkEngineScheduleFireFanout(b *testing.B) {
	e := NewEngine()
	fired := 0
	var fan func()
	fan = func() {
		fired++
		if fired+1024 <= b.N {
			e.After(Time(1+(fired%97))*Nanosecond, fan)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 1024 && i < b.N; i++ {
		e.After(Time(1+(i%97))*Nanosecond, fan)
	}
	e.Run()
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineScheduleFireHeap runs the identical chain on the
// preserved pre-PR container/heap executive (see engine_equiv_test.go).
// The acceptance bar for the ladder rewrite is >= 2x the events/sec of
// this baseline.
func BenchmarkEngineScheduleFireHeap(b *testing.B) {
	e := &heapEngine{}
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.At(e.Now()+Nanosecond, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.At(0, step)
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcSwitch measures coroutine process handoff cost. In the
// steady state the sleeping process's own wake-up is the next pending
// event, so the fast path consumes it in place: no goroutine switch and
// no allocation per yield.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSwitchPair measures handoff between two alternating
// processes — the genuine goroutine-switch path (each yield hands the
// dispatch token directly to the peer).
func BenchmarkProcSwitchPair(b *testing.B) {
	e := NewEngine()
	spin := func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Sleep(Nanosecond)
		}
	}
	e.Go("a", spin)
	e.Go("b", spin)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSpawn measures spawn-to-completion of short-lived
// processes. The runner free list makes the steady state cost one Proc
// allocation — no goroutine or channel construction per spawn.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEngine()
	body := func(p *Proc) {}
	n := 0
	var spawn func()
	spawn = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, spawn)
		}
		e.Go("w", body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(0, spawn)
	e.Run()
}

// BenchmarkProcWakeMany measures the nested wake every model built on
// futures makes: 64 processes parked in Future.Await, completed one at a
// time from callback events. Each completion resumes its waiter inside
// the callback, which parks again on a fresh future: two goroutine
// switches per op, with 63 other runners parked throughout.
func BenchmarkProcWakeMany(b *testing.B) {
	const procs = 64
	e := NewEngine()
	futs := make([]*Future[int], procs)
	for i := range futs {
		futs[i] = NewFuture[int]()
		e.Go("waiter", func(p *Proc) {
			for {
				if _, err := futs[i].Await(p); err != nil {
					return
				}
				futs[i] = NewFuture[int]()
			}
		})
	}
	n := 0
	var wake func()
	wake = func() {
		if n == b.N {
			for _, f := range futs {
				f.Fail(errSentinel)
			}
			return
		}
		futs[n%procs].Complete(n)
		n++
		e.After(Nanosecond, wake)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Nanosecond, wake)
	e.Run()
}

// BenchmarkHistogramObserve measures the stats hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

// BenchmarkRNG measures the seeded generator.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
