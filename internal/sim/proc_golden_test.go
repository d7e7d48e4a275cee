package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// interleave is a seeded random program of processes, callbacks and
// futures. Between them they take every route control can follow
// between goroutines (proc.go "Handoff structure"):
//
//   - a process's own wake-up consumed in place (Sleep, Yield);
//   - a direct handoff to the process whose wake-up is next;
//   - a return to the goroutine that called Run, RunUntil or Step;
//   - nested wakes from Future.Complete, both in a callback and in a
//     process, and from the Run caller after Run returns;
//   - Suspend with a synchronous wake, and a second waiter on a future;
//   - spawns from callbacks and from processes;
//   - Kill of sleeping and of parked processes;
//   - Step and RunUntil boundaries driving the engine.
//
// Every decision comes from one RNG, and only one goroutine runs at a
// time, so the log is a pure function of the seed.
type interleave struct {
	e      *Engine
	rng    *RNG
	h      []byte // running SHA-256 chain over the log lines
	lines  int
	procs  []*ilProc
	open   []*Future[int] // futures with a process parked on them
	spawns int            // spawn budget left
	counts [ilActions]int
}

type ilProc struct {
	p     *Proc
	name  string
	state int
}

// Process states the harness tracks, so it kills only processes that are
// sleeping or parked.
const (
	ilUnstarted = iota
	ilRunning
	ilSleeping
	ilParked
	ilKilled
	ilDone
)

// Actions the harness counts, so the test can insist every route ran.
const (
	ilSleep = iota
	ilYield
	ilAwaitFirst
	ilAwaitSecond
	ilSuspendSync
	ilCompleteInProc
	ilCompleteInCallback
	ilCompleteInMain
	ilSpawnInMain
	ilSpawnInProc
	ilSpawnInCallback
	ilKillSleeping
	ilKillParked
	ilStep
	ilRunUntil
	ilActions
)

func (il *interleave) log(format string, args ...any) {
	line := fmt.Sprintf("%d ", int64(il.e.Now())) + fmt.Sprintf(format, args...)
	sum := sha256.Sum256(append(il.h, line...))
	il.h = sum[:]
	il.lines++
}

// delay draws from a mix of same-instant, sub-nanosecond and short
// delays, so wake-ups tie, interleave and cross ladder buckets.
func (il *interleave) delay() Time {
	switch il.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return Time(il.rng.Intn(2000))
	default:
		return Time(1+il.rng.Intn(40)) * Nanosecond
	}
}

func (il *interleave) spawn(by string, action int) {
	if il.spawns == 0 {
		return
	}
	il.spawns--
	il.counts[action]++
	ip := &ilProc{name: fmt.Sprintf("p%d", len(il.procs))}
	il.procs = append(il.procs, ip)
	il.log("%s spawns %s", by, ip.name)
	ip.p = il.e.Go(ip.name, func(p *Proc) { il.body(ip) })
}

// kill picks a sleeping or parked process other than self, if any.
func (il *interleave) kill(by string, self *ilProc) {
	var victims []*ilProc
	for _, ip := range il.procs {
		if ip != self && (ip.state == ilSleeping || ip.state == ilParked) {
			victims = append(victims, ip)
		}
	}
	if len(victims) == 0 {
		return
	}
	v := victims[il.rng.Intn(len(victims))]
	if v.state == ilSleeping {
		il.counts[ilKillSleeping]++
	} else {
		il.counts[ilKillParked]++
	}
	v.state = ilKilled
	il.log("%s kills %s", by, v.name)
	v.p.Kill()
}

// complete resolves a random open future; its waiters run nested inside
// this call.
func (il *interleave) complete(by string, action int) {
	if len(il.open) == 0 {
		return
	}
	i := il.rng.Intn(len(il.open))
	f := il.open[i]
	il.open[i] = il.open[len(il.open)-1]
	il.open = il.open[:len(il.open)-1]
	il.counts[action]++
	v := il.rng.Intn(1000)
	il.log("%s completes with %d", by, v)
	f.Complete(v)
	il.log("%s resumes after complete", by)
}

// callback schedules one plain event that acts on the program.
func (il *interleave) callback(by string) {
	d := il.delay()
	il.log("%s schedules callback +%d", by, int64(d))
	il.e.After(d, func() {
		il.log("callback fires")
		switch il.rng.Intn(5) {
		case 0, 1:
			il.complete("callback", ilCompleteInCallback)
		case 2:
			il.spawn("callback", ilSpawnInCallback)
		case 3:
			if il.rng.Intn(3) == 0 {
				il.kill("callback", nil)
			}
		default:
			if il.rng.Intn(2) == 0 {
				il.callback("callback")
			}
		}
	})
}

func (il *interleave) body(ip *ilProc) {
	p := ip.p
	ip.state = ilRunning
	il.log("%s starts", ip.name)
	defer func() {
		if ip.state == ilKilled {
			il.log("%s unwinds", ip.name)
		}
	}()
	steps := 8 + il.rng.Intn(40)
	for i := 0; i < steps; i++ {
		switch il.rng.Intn(12) {
		case 0, 1, 2:
			d := il.delay()
			il.counts[ilSleep]++
			il.log("%s sleeps %d", ip.name, int64(d))
			ip.state = ilSleeping
			p.Sleep(d)
		case 3:
			il.counts[ilYield]++
			il.log("%s yields", ip.name)
			ip.state = ilSleeping
			p.Yield()
		case 4:
			f := NewFuture[int]()
			il.open = append(il.open, f)
			il.counts[ilAwaitFirst]++
			il.log("%s awaits", ip.name)
			ip.state = ilParked
			v, _ := f.Await(p)
			ip.state = ilRunning
			il.log("%s got %d", ip.name, v)
		case 5:
			if len(il.open) == 0 {
				continue
			}
			f := il.open[il.rng.Intn(len(il.open))]
			il.counts[ilAwaitSecond]++
			il.log("%s awaits too", ip.name)
			ip.state = ilParked
			v, _ := f.Await(p)
			ip.state = ilRunning
			il.log("%s got %d too", ip.name, v)
		case 6:
			il.counts[ilSuspendSync]++
			p.Suspend(func(wake func()) { wake() })
			il.log("%s suspends synchronously", ip.name)
		case 7:
			il.complete(ip.name, ilCompleteInProc)
		case 8:
			il.spawn(ip.name, ilSpawnInProc)
		case 9:
			if il.rng.Intn(3) == 0 {
				il.kill(ip.name, ip)
			}
		default:
			il.callback(ip.name)
		}
		ip.state = ilRunning
	}
	ip.state = ilDone
	il.log("%s ends", ip.name)
}

// run drives the program to completion: a random mix of Step and
// RunUntil, then Run, then every still-open future completed from the
// Run caller until nothing is left.
func (il *interleave) run() {
	e := il.e
	for i := 0; i < 12; i++ {
		il.spawn("main", ilSpawnInMain)
	}
	for i := 0; i < 300 && e.Pending() > 0; i++ {
		if il.rng.Intn(3) == 0 {
			il.counts[ilStep]++
			e.Step()
			il.log("main stepped")
		} else {
			il.counts[ilRunUntil]++
			e.RunUntil(e.Now() + Time(il.rng.Intn(8000)))
			il.log("main ran until")
		}
	}
	for {
		e.Run()
		if len(il.open) == 0 {
			break
		}
		il.complete("main", ilCompleteInMain)
	}
	il.log("main done, %d events", e.Events())
}

func interleaveDigest(t *testing.T, seed uint64) (string, *interleave) {
	t.Helper()
	il := &interleave{e: NewEngine(), rng: NewRNG(seed), spawns: 64}
	il.run()
	for _, ip := range il.procs {
		if !ip.p.Done() {
			t.Fatalf("seed %d: %s never finished (state %d)", seed, ip.name, ip.state)
		}
	}
	if il.e.procs != 0 {
		t.Fatalf("seed %d: %d live processes after the run", seed, il.e.procs)
	}
	return hex.EncodeToString(il.h), il
}

// interleaveGolden holds the log digests of seeds 1–3, recorded before
// the park-only handoff replaced a spinning one. How a goroutine waits
// for the token must never change which goroutine runs next.
var interleaveGolden = [...]string{
	1: "af3e7ee8f674b38f8b5dc8a14ff76c9f8c78ea1bc4a811e547ed7ddbf558a988",
	2: "d1f26c685301d1aee5310df65b62922f0edb78d5cfe58fd3eb7d9575230e9fd9",
	3: "8dd557ddec42e83b8f9f4cdcd573ab872f164e0413ff7099081b24d2a677bffc",
}

// TestProcInterleavingGolden pins the order of every process step,
// callback and wake in a random program that takes every handoff route,
// at GOMAXPROCS 1 and 4.
func TestProcInterleavingGolden(t *testing.T) {
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		var total [ilActions]int
		for seed := uint64(1); seed < uint64(len(interleaveGolden)); seed++ {
			got, il := interleaveDigest(t, seed)
			t.Logf("GOMAXPROCS=%d seed %d: %d lines, %d events, digest %s", procs, seed, il.lines, il.e.Events(), got)
			if want := interleaveGolden[seed]; got != want {
				t.Errorf("GOMAXPROCS=%d seed %d: digest %s, want %s", procs, seed, got, want)
			}
			for a, n := range il.counts {
				total[a] += n
			}
		}
		runtime.GOMAXPROCS(old)
		for a, n := range total {
			if n == 0 {
				t.Errorf("GOMAXPROCS=%d: action %d never ran", procs, a)
			}
		}
	}
}
