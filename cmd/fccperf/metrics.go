package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"fcc/internal/exp"
	"fcc/internal/sim"
)

// metric is one reported number. The two catalogs below are the
// benchmark's contract and must match BENCHMARK.json (the smoke test
// checks that they do).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the simulator sees, measured with tracing
// off: host time (wall and CPU time, on the reference machine), host
// memory, and the model's simulated ("sim") results. Bounds are the
// share of the parent's median by which a metric may worsen before a
// change counts as a regression, each at least three times the spread
// of ten runs on ten seeds in a quiet period and over twice the widest
// spread seen in a busy one (README.md, "Noise"). The simulated metrics
// are exact for a seed and differ only between seeds; set-up time has
// the widest bound.
var endToEnd = []metric{
	{"host_ops_per_s", "ops/s", "higher", 0.24},
	{"cpu_us_per_op", "us", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.04},
	{"alloc_bytes_per_op", "B", "lower", 0.04},
	{"heap_mb", "MiB", "lower", 0.06},
	{"sim_mean_us", "sim_us", "lower", 0.20},
	{"sim_tail_us", "sim_us", "lower", 0.20},
	{"sim_ops_per_sim_ms", "ops/sim_ms", "higher", 0.06},
	{"calib_err_pct", "%", "lower", 0.05},
}

// perLayer are the traced repetitions' numbers, split by the
// simulator's modules. They carry no bound.
var perLayer = func() []metric {
	var ms []metric
	add := func(name, unit, better string) { ms = append(ms, metric{Name: name, Unit: unit, Better: better}) }
	for _, l := range profileLayers {
		add(hostNsName(l), "ns/op", "lower")
	}
	add("trace.overhead_pct", "%", "lower")
	for _, n := range []string{
		"sim.events_per_op", "sim.windows_per_op", "sim.xmsgs_per_op",
		"flit.flits_per_op",
		"link.pkts_per_op", "link.stall_picks_per_op", "link.retransmits_per_op",
		"fabric.pkts_routed_per_op", "fabric.hol_stalls_per_op", "fabric.pkts_dropped_per_op",
		"txn.reqs_per_op", "txn.retries_per_op", "txn.timeouts_per_op",
		"mem.dram_reads_per_op", "mem.dram_writes_per_op",
		"host.writebacks_per_op",
		"coherence.snoops_per_op", "coherence.read_misses_per_op", "coherence.forwards_per_op",
		"arbiter.reserves_per_op", "arbiter.queued_per_reserve",
		"fabstore.quota_stalls_per_op", "fabstore.wal_stalls_per_op",
	} {
		add(n, "count/op", "lower")
	}
	add("sim.host_ns_per_event", "ns", "lower")
	add("link.queue_lat_p99_ns", "sim_ns", "lower")
	add("fabric.transit_p99_ns", "sim_ns", "lower")
	add("host.l1_hit_ratio", "ratio", "higher")
	add("host.l2_hit_ratio", "ratio", "higher")
	add("host.mshr_merges_per_op", "count/op", "higher")
	for _, n := range []string{
		"fabstore.get_sim_us_p50", "fabstore.get_sim_us_p999",
		"fabstore.put_sim_us_p50", "fabstore.put_sim_us_p999",
		"fabstore.scan_sim_us_p999",
	} {
		add(n, "sim_us", "lower")
	}
	for _, n := range []string{
		"host.load_sim_ns_p50", "host.load_sim_ns_p999",
		"host.store_sim_ns_p50", "host.store_sim_ns_p999",
		"txn.request_sim_ns_p50", "txn.request_sim_ns_p999",
	} {
		add(n, "sim_ns", "lower")
	}
	add("setup.build_ms", "ms", "lower")
	add("setup.services_ms", "ms", "lower")
	add("setup.allocs", "allocs", "lower")
	return ms
}()

// hostNsName names a profile layer's host-time metric.
func hostNsName(layer string) string {
	if l, ok := strings.CutPrefix(layer, "runtime."); ok {
		return "runtime." + l + "_ns_per_op"
	}
	return layer + ".host_ns_per_op"
}

// endToEndValues summarizes every end-to-end metric: host metrics over
// the timed repetitions and setup_s over the set-up samples, host times
// on the reference machine (reference.go); the simulated metrics over
// the streams.
func (b *bench) endToEndValues() map[string]summary {
	perRep := func(f func(r *rep, ops float64) float64) summary {
		var vs []float64
		for _, r := range b.timed {
			vs = append(vs, f(r, float64(r.out.committed)))
		}
		return summarize(vs)
	}
	var setup []float64
	for _, s := range b.setups {
		setup = append(setup, s.ref.onReference(s.build+s.services).Seconds())
	}
	latMean, latTail := b.pooledLatency()
	exact := func(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: len(b.outcomes())} }
	return map[string]summary{
		"host_ops_per_s":     perRep(func(r *rep, ops float64) float64 { return ops / r.ref.onReference(r.wall).Seconds() }),
		"cpu_us_per_op":      perRep(func(r *rep, ops float64) float64 { return us(r.ref.cpuOnReference(r.cpu)) / ops }),
		"allocs_per_op":      perRep(func(r *rep, ops float64) float64 { return float64(r.mallocs) / ops }),
		"alloc_bytes_per_op": perRep(func(r *rep, ops float64) float64 { return float64(r.bytes) / ops }),
		"heap_mb":            perRep(func(r *rep, _ float64) float64 { return float64(r.heap) / (1 << 20) }),
		"setup_s":            summarize(setup),
		"sim_mean_us":        exact(latMean),
		"sim_tail_us":        exact(latTail),
		"sim_ops_per_sim_ms": exact(b.overStreams(func(o *outcome) float64 {
			return float64(o.committed) / (o.simEnd.Seconds() * 1e3)
		})),
		"calib_err_pct": {Median: b.calib, Q1: b.calib, Q3: b.calib, N: 1},
	}
}

// pooledLatency is the simulated latency of every stream's recorded
// operations together, in µs: the mean, and the mean of the slowest 0.1%.
func (b *bench) pooledLatency() (mean, tail float64) {
	var n int64
	var sum sim.Time
	var slowest []sim.Time
	for _, o := range b.outcomes() {
		n += o.latN
		sum += o.latSum
	}
	for _, t := range b.tails {
		slowest = append(slowest, t...)
	}
	if n == 0 {
		return 0, 0
	}
	slices.Sort(slowest)
	slices.Reverse(slowest)
	slowest = slowest[:min(int64(len(slowest)), max(1, n/1000))]
	var tailSum sim.Time
	for _, t := range slowest {
		tailSum += t
	}
	unit := float64(sim.Microsecond)
	return float64(sum) / float64(n) / unit, float64(tailSum) / float64(len(slowest)) / unit
}

// ledger is the traced repetitions' CPU time split by layer, checked
// against the process CPU time getrusage measured over the same Runs.
type ledger struct {
	Samples      int     `json:"samples"`
	LayerNsPerOp float64 `json:"layer_ns_per_op"` // sum over every layer
	CPUNsPerOp   float64 `json:"cpu_ns_per_op"`
	ResidualPct  float64 `json:"residual_pct"`
}

// The ledger check: with at least ledgerMinSamples profile samples (100
// per CPU second), the layers must sum to within ledgerTolerancePct of
// the measured CPU time, or the ledger is lying. Fewer samples only
// report the residual.
const (
	ledgerMinSamples   = 300
	ledgerTolerancePct = 5
)

// perLayerValues reads the per-layer metrics: host time per layer from
// the traced repetitions' profiles, everything simulated averaged over
// the streams.
func (b *bench) perLayerValues() (map[string]float64, ledger, error) {
	// CPU times on the reference machine, like the end-to-end ones; each
	// repetition is read against its own reference sample, which cancels
	// out of the ledger's residual.
	charged := map[string]time.Duration{}
	var led ledger
	var cpu time.Duration
	var ops int64
	for _, r := range b.traced {
		samples, err := readProfile(r.profile)
		if err != nil {
			return nil, ledger{}, err
		}
		ns := chargeProfile(samples)
		for _, l := range profileLayers {
			charged[l] += r.ref.cpuOnReference(time.Duration(ns[l]))
		}
		led.Samples += len(samples)
		cpu += r.ref.cpuOnReference(r.cpu)
		ops += r.out.committed
	}
	v := make(map[string]float64, len(perLayer))
	var total time.Duration
	for _, l := range profileLayers {
		total += charged[l]
		v[hostNsName(l)] = float64(charged[l]) / float64(ops)
	}
	led.LayerNsPerOp, led.CPUNsPerOp = float64(total)/float64(ops), float64(cpu)/float64(ops)
	led.ResidualPct = (led.LayerNsPerOp/led.CPUNsPerOp - 1) * 100

	v["trace.overhead_pct"] = (medianOf(b.traced, wallNsPerOp)/medianOf(b.timed, wallNsPerOp) - 1) * 100
	v["sim.host_ns_per_event"] = medianOf(b.timed, func(r *rep) float64 { return wallNs(r) / float64(r.out.events) })
	for _, m := range simulatedLayers {
		v[m.name] = b.overStreams(m.f)
	}

	var build, services, allocs []float64
	for _, s := range b.setups {
		build = append(build, ms(s.ref.onReference(s.build)))
		services = append(services, ms(s.ref.onReference(s.services)))
		allocs = append(allocs, float64(s.allocs))
	}
	v["setup.build_ms"] = summarize(build).Median
	v["setup.services_ms"] = summarize(services).Median
	v["setup.allocs"] = summarize(allocs).Median
	return v, led, nil
}

// wallNs is a repetition's wall time on the reference machine.
func wallNs(r *rep) float64      { return float64(r.ref.onReference(r.wall)) }
func wallNsPerOp(r *rep) float64 { return wallNs(r) / float64(r.out.committed) }

// simulatedLayers are the per-layer metrics one stream's outcome gives:
// counters summed by layer, per committed operation, and the simulated
// spans the benchmark records around its own calls.
var simulatedLayers = []struct {
	name string
	f    func(o *outcome) float64
}{
	{"sim.events_per_op", func(o *outcome) float64 { return o.per(int64(o.events)) }},
	{"sim.windows_per_op", func(o *outcome) float64 { return o.per(int64(o.windows)) }},
	{"sim.xmsgs_per_op", func(o *outcome) float64 { return o.per(int64(o.xmsgs)) }},
	{"flit.flits_per_op", func(o *outcome) float64 { return o.per(o.counts.flits) }},
	{"link.pkts_per_op", func(o *outcome) float64 { return o.per(o.counts.pkts) }},
	{"link.stall_picks_per_op", func(o *outcome) float64 { return o.per(o.counts.stallPicks) }},
	{"link.retransmits_per_op", func(o *outcome) float64 { return o.per(o.counts.retransmits) }},
	{"link.queue_lat_p99_ns", func(o *outcome) float64 { return o.queueP99 }},
	{"fabric.pkts_routed_per_op", func(o *outcome) float64 { return o.per(o.counts.routed) }},
	{"fabric.hol_stalls_per_op", func(o *outcome) float64 { return o.per(o.counts.holStalls) }},
	{"fabric.pkts_dropped_per_op", func(o *outcome) float64 { return o.per(o.counts.dropped) }},
	{"fabric.transit_p99_ns", func(o *outcome) float64 { return o.transitP99 }},
	{"txn.reqs_per_op", func(o *outcome) float64 { return o.per(o.counts.reqs) }},
	{"txn.retries_per_op", func(o *outcome) float64 { return o.per(o.counts.retries) }},
	{"txn.timeouts_per_op", func(o *outcome) float64 { return o.per(o.counts.timeouts) }},
	{"mem.dram_reads_per_op", func(o *outcome) float64 { return o.per(o.counts.dramReads) }},
	{"mem.dram_writes_per_op", func(o *outcome) float64 { return o.per(o.counts.dramWrites) }},
	{"host.l1_hit_ratio", func(o *outcome) float64 { return ratio(o.counts.l1Hits, o.counts.l1Hits+o.counts.l1Misses) }},
	{"host.l2_hit_ratio", func(o *outcome) float64 { return ratio(o.counts.l2Hits, o.counts.l2Hits+o.counts.l2Misses) }},
	{"host.mshr_merges_per_op", func(o *outcome) float64 { return o.per(o.counts.mshrMerges) }},
	{"host.writebacks_per_op", func(o *outcome) float64 { return o.per(o.counts.writebacks) }},
	{"coherence.snoops_per_op", func(o *outcome) float64 { return o.per(o.counts.snoops) }},
	{"coherence.read_misses_per_op", func(o *outcome) float64 { return o.per(o.counts.readMisses) }},
	{"coherence.forwards_per_op", func(o *outcome) float64 { return o.per(o.counts.forwards) }},
	{"arbiter.reserves_per_op", func(o *outcome) float64 { return o.per(o.counts.reserves) }},
	{"arbiter.queued_per_reserve", func(o *outcome) float64 { return ratio(o.counts.queued, o.counts.reserves) }},
	{"fabstore.quota_stalls_per_op", func(o *outcome) float64 { return o.per(o.counts.quotaStalls) }},
	{"fabstore.wal_stalls_per_op", func(o *outcome) float64 { return o.per(o.counts.walStalls) }},
	{"fabstore.get_sim_us_p50", func(o *outcome) float64 { return o.spanP50[spanGet].Microseconds() }},
	{"fabstore.get_sim_us_p999", func(o *outcome) float64 { return o.spanP999[spanGet].Microseconds() }},
	{"fabstore.put_sim_us_p50", func(o *outcome) float64 { return o.spanP50[spanPut].Microseconds() }},
	{"fabstore.put_sim_us_p999", func(o *outcome) float64 { return o.spanP999[spanPut].Microseconds() }},
	{"fabstore.scan_sim_us_p999", func(o *outcome) float64 { return o.spanP999[spanScan].Microseconds() }},
	{"host.load_sim_ns_p50", func(o *outcome) float64 { return o.spanP50[spanLoad].Nanoseconds() }},
	{"host.load_sim_ns_p999", func(o *outcome) float64 { return o.spanP999[spanLoad].Nanoseconds() }},
	{"host.store_sim_ns_p50", func(o *outcome) float64 { return o.spanP50[spanStore].Nanoseconds() }},
	{"host.store_sim_ns_p999", func(o *outcome) float64 { return o.spanP999[spanStore].Nanoseconds() }},
	{"txn.request_sim_ns_p50", func(o *outcome) float64 { return o.spanP50[spanRequest].Nanoseconds() }},
	{"txn.request_sim_ns_p999", func(o *outcome) float64 { return o.spanP999[spanRequest].Nanoseconds() }},
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// medianOf is the median of f over rs.
func medianOf(rs []*rep, f func(r *rep) float64) float64 {
	var vs []float64
	for _, r := range rs {
		vs = append(vs, f(r))
	}
	return summarize(vs).Median
}

// checks are the correctness gates; each failure names what broke.
func (b *bench) checks(led *ledger) []string {
	var bad []string
	first := map[int]*outcome{}
	for i, r := range b.all() {
		o := &r.out
		if o.unaccounted != 0 {
			bad = append(bad, fmt.Sprintf("repetition %d: %d operations unaccounted", i, o.unaccounted))
		}
		if o.bad != 0 {
			bad = append(bad, fmt.Sprintf("repetition %d: %d reads returned data no write produced", i, o.bad))
		}
		if f, ok := first[r.stream]; !ok {
			first[r.stream] = o
		} else if *o != *f {
			bad = append(bad, fmt.Sprintf("repetition %d simulated stream %d differently (snapshot %s, first %s)", i, r.stream, o.sha, f.sha))
		}
	}
	if b.serial != nil && b.serial.out.sha != b.warmup.out.sha {
		bad = append(bad, fmt.Sprintf("%d-shard snapshot %s differs from the serial run's %s", b.w.shards, b.warmup.out.sha, b.serial.out.sha))
	}
	if b.calib > 10 {
		bad = append(bad, fmt.Sprintf("Table 2 calibration error %.2f%% exceeds 10%%", b.calib))
	}
	if led != nil && led.Samples >= ledgerMinSamples && math.Abs(led.ResidualPct) > ledgerTolerancePct {
		bad = append(bad, fmt.Sprintf("layer ledger sums to %.0f ns/op against %.0f ns/op of CPU (%+.1f%%)",
			led.LayerNsPerOp, led.CPUNsPerOp, led.ResidualPct))
	}
	return bad
}

// calibrationError is the largest relative error, in percent, of the
// Table 2 regeneration against the paper over all 16 cells.
func calibrationError() float64 {
	worst := 0.0
	for i, r := range exp.Table2() {
		p := exp.Table2Paper[i]
		for _, c := range [][2]float64{
			{r.ReadLatNs, p.ReadLatNs}, {r.WriteLatNs, p.WriteLatNs},
			{r.ReadMOPS, p.ReadMOPS}, {r.WriteMOPS, p.WriteMOPS},
		} {
			worst = max(worst, math.Abs(c[0]-c[1])/c[1]*100)
		}
	}
	return worst
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
