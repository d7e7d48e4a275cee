package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"fcc/internal/sim"
)

// rep is one repetition: a fresh cluster built, run to completion and
// measured. Everything host-dependent lives here; the simulated results
// live in out and must repeat exactly.
type rep struct {
	wall, cpu      time.Duration // of Cluster.Run
	mallocs, bytes uint64        // allocated during Cluster.Run
	heap           uint64        // live heap after Run, cluster still live
	profile        []byte        // gzipped profile.proto; traced repetitions only
	stream         int           // which of the seed's traffic streams
	ref            refSample     // the reference loop, timed right before
	out            outcome
	slowest        []sim.Time // see bench.tails
}

// outcome is what one repetition simulated. It is comparable, so "the
// same seed simulates the same thing" is a single == between
// repetitions.
type outcome struct {
	sha string // SHA-256 of the marshalled stats snapshot

	offered, shed, committed, typed, bad, unaccounted int64

	simEnd               sim.Time // last operation resolved
	events               uint64   // simulator events, all engines
	windows, xmsgs       uint64   // coordinator rounds, cross-shard messages
	spanP50, spanP999    [numSpans]sim.Time
	counts               layerCounts
	queueP99, transitP99 float64 // ns, merged over every switch

	latN   int64    // recorded latencies
	latSum sim.Time // and their sum
}

func (o *outcome) failed() int64 { return o.shed + o.typed + o.unaccounted + o.bad }

// per divides a count by the committed operations.
func (o *outcome) per(n int64) float64 { return float64(n) / float64(o.committed) }

// streams is how many traffic streams one seed stands for. A run cycles
// its repetitions over them and reports the simulated metrics over all
// of them, so one stream's luck (how many arrivals a fault window
// catches, say) moves the result a sixteenth as much. Each stream is
// short, so that a run makes many repetitions for the fast quantile
// (reference.go).
const streams = 16

// streamSeed is the generator seed of stream j of seed: distinct for
// every (seed, stream) pair.
func streamSeed(seed uint64, j int) uint64 { return seed*streams + uint64(j) }

// bench is everything one workload's run measured.
type bench struct {
	w     *workload
	seed  uint64
	scale float64 // of the workload's size; 1 in every benchmark run
	calib float64

	setups []setupSample
	warmup *rep   // untimed, run first
	traced []*rep // CPU-profiled
	timed  []*rep // tracing off
	serial *rep   // the serial cross-check of a sharded workload

	// tails are the slowest tailKeep recorded latencies of each stream's
	// first repetition, for the streams' pooled tail. Later repetitions drop theirs, so the heap
	// does not grow with the repetitions measured.
	tails [streams][]sim.Time
}

// tailKeep is how many of each stream's slowest latencies are kept. The
// slowest 0.1% of all the streams' latencies together is at most 409
// long at the benchmark's sizes (farmem-stream's), so it is always among
// what the streams keep.
const tailKeep = 512

// setupSample is one timed build and the reference loop timed right
// after it.
type setupSample struct {
	setupTimes
	ref refSample
}

// run makes one repetition of traffic stream j. Once the warm-up has
// run, it first times one build and the reference loop, which both the
// build and the repetition are read against.
func (b *bench) run(j int, traced bool) (*rep, error) {
	var ref refSample
	if b.warmup != nil {
		s, err := b.sampleSetup()
		if err != nil {
			return nil, err
		}
		ref = measureReference()
		b.setups = append(b.setups, setupSample{s, ref})
	}
	r, err := run(b.w, streamSeed(b.seed, j), b.scale, 0, traced)
	if err != nil {
		return nil, err
	}
	r.stream, r.ref = j, ref
	if b.tails[j] == nil {
		b.tails[j] = r.slowest
	}
	r.slowest = nil
	return r, nil
}

// all lists every repetition that simulated the workload as configured.
func (b *bench) all() []*rep {
	rs := append([]*rep{b.warmup}, b.traced...)
	return append(rs, b.timed...)
}

// outcomes is the first outcome of each stream the run simulated.
func (b *bench) outcomes() []*outcome {
	var outs []*outcome
	seen := map[int]bool{}
	for _, r := range b.all() {
		if !seen[r.stream] {
			seen[r.stream] = true
			outs = append(outs, &r.out)
		}
	}
	return outs
}

// overStreams averages f over the simulated streams.
func (b *bench) overStreams(f func(o *outcome) float64) float64 {
	outs := b.outcomes()
	sum := 0.0
	for _, o := range outs {
		sum += f(o)
	}
	return sum / float64(len(outs))
}

// prepare runs the untimed warm-up.
func (b *bench) prepare() error {
	var err error
	b.warmup, err = b.run(0, false)
	return err
}

// sampleSetup times one build of the workload without running it,
// after a collection so that earlier garbage does not bill it.
func (b *bench) sampleSetup() (setupTimes, error) {
	runtime.GC()
	in, err := b.w.instantiate(streamSeed(b.seed, 0), b.scale, 0)
	if err != nil {
		return setupTimes{}, err
	}
	return in.setup, nil
}

// crossCheck runs stream 0 of a sharded workload once more on a single
// engine: the sharded snapshot must match it byte for byte.
func (b *bench) crossCheck() error {
	if b.w.shards <= 1 {
		return nil
	}
	var err error
	b.serial, err = run(b.w, streamSeed(b.seed, 0), b.scale, 1, false)
	return err
}

// run builds one instance of w and runs it, with a CPU profile of the
// Run when traced.
func run(w *workload, seed uint64, scale float64, shards int, traced bool) (*rep, error) {
	in, err := w.instantiate(seed, scale, shards)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		// The default 100 Hz: runtime.SetCPUProfileRate cannot be
		// combined with StartCPUProfile, and a rate set that way loses
		// about half the samples. Tracing several repetitions makes up
		// the count.
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	in.c.Run()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r := &rep{
		wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		heap:    m2.HeapAlloc,
		profile: prof.Bytes(),
	}
	r.out, r.slowest = observe(in)
	runtime.KeepAlive(in)
	return r, nil
}

// observe reads what the finished instance simulated: the benchmark's
// own tallies, the stats snapshot and the engine counters; and the
// slowest tailKeep recorded latencies.
func observe(in *instance) (outcome, []sim.Time) {
	var o outcome
	var spans [numSpans][]sim.Time
	for _, t := range in.hosts {
		o.offered += t.offered
		o.shed += t.shed
		o.committed += t.committed
		o.typed += t.typed
		o.bad += t.bad
		o.simEnd = max(o.simEnd, t.lastDone)
		for k := range t.spans {
			spans[k] = append(spans[k], t.spans[k]...)
		}
	}
	// Whatever was admitted but neither committed nor failed typed.
	o.unaccounted = o.offered - o.shed - o.committed - o.typed
	var all []sim.Time
	for k := range spans {
		slices.Sort(spans[k])
		o.spanP50[k], o.spanP999[k] = quantile(spans[k], 0.5), quantile(spans[k], 0.999)
		all = append(all, spans[k]...)
	}
	slices.Sort(all)
	o.latN = int64(len(all))
	for _, t := range all {
		o.latSum += t
	}
	slowest := slices.Clone(all[len(all)-min(len(all), tailKeep):])

	c := in.c
	root := c.Stats()
	if in.store != nil {
		in.store.RegisterStats(root.Child("fabstore"))
	}
	snap := root.Snapshot()
	raw, err := snap.MarshalJSONIndent()
	if err != nil {
		panic(err) // a tree of integer counters and finite summaries always marshals
	}
	sum := sha256.Sum256(raw)
	o.sha = hex.EncodeToString(sum[:])
	o.counts = sumLayers(snap)

	if c.Coord == nil {
		o.events = c.Eng.Events()
	} else {
		for i := 0; i < c.Coord.Shards(); i++ {
			o.events += c.Coord.Engine(i).Events()
		}
		o.windows, o.xmsgs = c.Coord.Windows(), c.Coord.Messages()
	}
	queue, transit := sim.NewHistogram(), sim.NewHistogram()
	for _, sw := range c.Builder.Switches() {
		transit.Merge(sw.Transit)
		for i := 0; i < sw.Ports(); i++ {
			queue.Merge(sw.Port(i).QueueLat)
		}
	}
	o.queueP99, o.transitP99 = queue.Quantile(0.99), transit.Quantile(0.99)
	return o, slowest
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile[T float64 | sim.Time](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// summary is a metric over repetitions: median, quartiles and count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(vs []float64) summary {
	s := slices.Clone(vs)
	slices.Sort(s)
	return summary{Median: median(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// median of sorted values, averaging the middle pair.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
