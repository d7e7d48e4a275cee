package main

import (
	"runtime"
	"time"
)

// Host time is read against a reference loop. On a shared VM the
// machine's speed drifts with other tenants' load: the same repetition
// reads up to twice as slow from one second to the next, and the median
// of a 25-second window ranged from 0.78 to 1.29 times its typical value
// over twenty minutes. So the loop is timed right before every
// repetition and every set-up sample, and each host time is divided by
// the loop's time next to it and multiplied by the loop's time on the
// reference machine (referenceNs): what the program would take there.
// The benchmark reports the median of those.
//
// The loop is two goroutines handing a value back and forth through
// unbuffered channels, the handoff the simulator's processes make on
// every resume. It uses nothing from the simulator, so no change to the
// simulator moves it. Of the loops tried (this one, a table-driven CRC,
// a pointer chase over 8 MiB, small allocations, and a mix), it alone
// drifted as much as the workloads did: over 25-second windows, each
// workload's log time moved 0.9-1.05 times the loop's (correlation
// 0.87-0.96). The workloads moved about 2.2 times as much as the CRC
// and 0.7 times as much as the allocating loops; the pointer chase
// correlated at 0.5-0.7.
const (
	// referenceRoundTrips sizes the loop to about 40 ms.
	referenceRoundTrips = 64_000
	// referenceNs is the loop's time, in nanoseconds, on the reference
	// machine: the median over forty 25-second runs on a 2-vCPU Intel
	// Xeon VM, Go 1.24, GOMAXPROCS=1, whose own medians ranged from 32 to
	// 45 ms. It is the unit of every host time the benchmark reports;
	// changing it rescales all of them.
	referenceNs = 37e6
)

// refSample is one timing of the reference loop.
type refSample struct{ wall, cpu time.Duration }

// measureReference times the reference loop once, after a collection so
// that no earlier garbage is swept on its time.
func measureReference() refSample {
	runtime.GC()
	cpu0 := cpuTime()
	t0 := time.Now()
	referenceLoop(referenceRoundTrips)
	wall := time.Since(t0)
	return refSample{wall: wall, cpu: cpuTime() - cpu0}
}

// referenceLoop makes n round trips between two goroutines and returns
// once the second has ended.
func referenceLoop(n int) {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	x := 0
	for i := 0; i < n; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	for range pong {
	}
}

// onReference converts a wall time measured next to s to the reference
// machine's.
func (s refSample) onReference(d time.Duration) time.Duration {
	return time.Duration(float64(d) * referenceNs / float64(s.wall))
}

// cpuOnReference does the same for a CPU time.
func (s refSample) cpuOnReference(d time.Duration) time.Duration {
	return time.Duration(float64(d) * referenceNs / float64(s.cpu))
}
