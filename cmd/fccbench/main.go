// fccbench regenerates every table, figure, claim, and ablation of the
// Fabric-Centric Computing reproduction. Run with -exp all (default) or
// a specific experiment id from DESIGN.md's experiment index. With
// -json <path>, every executed experiment's result struct plus the
// fabric-wide stats tree of a representative run are written as a
// machine-readable document (see EXPERIMENTS.md, "JSON export").
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"fcc"
	"fcc/internal/exp"
	"fcc/internal/fabric"
	"fcc/internal/sim"
)

// experiment is one reproducible unit: run returns the machine-readable
// result (exported under the experiment id in -json mode) and the
// human-readable rendering printed to stdout. run receives the seed of
// the enclosing seed-run; experiments whose outcome is seed-independent
// ignore it.
type experiment struct {
	id   string
	desc string
	run  func(seed uint64) (result any, text string)
}

// seedRun collects one seed's results. Every seed builds its own
// engines, links, and RNGs inside the exp functions, so seed runs share
// no mutable state and can execute on worker goroutines; text is
// buffered so stdout order is by seed regardless of -parallel.
type seedRun struct {
	Seed        uint64         `json:"seed"`
	Experiments map[string]any `json:"experiments"`
	text        bytes.Buffer
}

// jsonOutput is the -json document: schema-versioned experiment results
// plus the full stats tree from a representative workload. Experiments
// always holds the base seed's results; Seeds is present (and includes
// the base seed) only for multi-seed runs.
type jsonOutput struct {
	Schema      int                `json:"schema"`
	Experiments map[string]any     `json:"experiments"`
	Seeds       []*seedRun         `json:"seeds,omitempty"`
	Stats       *sim.StatsSnapshot `json:"stats"`
}

func main() {
	which := flag.String("exp", "all", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiments")
	jsonPath := flag.String("json", "", "write results + stats tree as JSON to this path")
	seed := flag.Uint64("seed", 1, "base RNG seed for seeded experiments (blast-radius)")
	seeds := flag.Int("seeds", 1, "run seeds seed..seed+N-1 (merged output, ordered by seed)")
	parallel := flag.Int("parallel", 1, "worker goroutines for multi-seed runs (each seed owns private engines)")
	traffic := flag.Bool("traffic", false, "with -exp scale: render the cluster-scale traffic heatmap")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this path")
	memprofile := flag.String("memprofile", "", "write an allocation (heap) profile taken after the runs to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuprofile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush in-flight garbage so alloc_* totals are settled
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			}
		}()
	}

	exps := []experiment{
		{"table1", "Table 1: commodity memory fabrics", func(uint64) (any, string) {
			t := exp.Table1()
			return t, t
		}},
		{"table2", "Table 2: memory hierarchy latency/throughput", func(uint64) (any, string) {
			rows := exp.Table2()
			return rows, exp.RenderTable2(rows)
		}},
		{"figure1", "Figure 1b: composable infrastructure topology", func(uint64) (any, string) {
			f := exp.Figure1()
			return f, f
		}},
		{"claim-mlp", "C1: remote throughput is MLP-bound", func(uint64) (any, string) {
			rows := exp.ClaimMLP()
			return rows, exp.RenderMLP(rows)
		}},
		{"claim-contention", "C2: concurrent 64B writes add one-way latency", func(uint64) (any, string) {
			r := exp.ClaimContention()
			return r, fmt.Sprintf("64B write one-way: solo %.0fns, under 3-host contention %.0fns (+%.0fns)\n"+
				"(paper: concurrent 64B PCIe writes can add 600ns one-way)\n",
				r.SoloNs, r.ContendedNs, r.AddedNs)
		}},
		{"claim-interleave", "C3: 64B latency under 16KB bulk interference", func(uint64) (any, string) {
			r := exp.ClaimInterleave()
			return r, fmt.Sprintf("64B request mean latency:\n"+
				"  idle fabric:                  %8.0fns\n"+
				"  with 16KB bulk, shared pool:  %8.0fns (%.1fx)\n"+
				"  with 16KB bulk, dedicated VC: %8.0fns (%.1fx)\n"+
				"(paper: interleaved with 16KB writes, 64B latency degrades drastically)\n",
				r.AloneNs, r.WithBulkNs, r.WithBulkNs/r.AloneNs,
				r.WithBulkVCSepNs, r.WithBulkVCSepNs/r.AloneNs)
		}},
		{"claim-switch", "C4: switch transit <100ns/port at high bandwidth", func(uint64) (any, string) {
			r := exp.ClaimSwitch()
			return r, fmt.Sprintf("switch transit: %.0fns mean; sustained %.1f GB/s through one port\n"+
				"(paper/FabreX: <100ns non-blocking per port, up to 512 Gbit/s)\n",
				r.TransitNs, r.GBps)
		}},
		{"claim-rtt", "C5: unloaded link-layer RTT of a small flit", func(uint64) (any, string) {
			r := exp.ClaimRTT()
			return r, fmt.Sprintf("64B-class flit RTT on a direct link: %.0fns\n"+
				"(paper: end-to-end RTT of a 64B flit can be up to 200ns unloaded)\n", r.RTTNs)
		}},
		{"etrans", "E1: data movement as a managed service", func(uint64) (any, string) {
			r := exp.ETransAblation()
			return r, fmt.Sprintf("move 16 x 64KB FAM->FAM:\n"+
				"  host-driven synchronous copies: %8.1fus\n"+
				"  managed (delegated to agents):  %8.1fus (%.1fx faster)\n"+
				"  host-visible cost, OwnExecutor: %8.1fus\n",
				r.SyncUs, r.ManagedUs, r.SyncUs/r.ManagedUs, r.HostFreeUs)
		}},
		{"uheap", "E2: active unified heap vs static placement", func(uint64) (any, string) {
			r := exp.UHeapAblation()
			return r, fmt.Sprintf("Zipf object access, working set 2x local pool:\n"+
				"  static placement: mean %7.1fns\n"+
				"  active heap:      mean %7.1fns (%.2fx, %d promotions)\n",
				r.StaticMeanNs, r.MigratedMeanNs, r.StaticMeanNs/r.MigratedMeanNs, r.Promotions)
		}},
		{"idem", "E3: idempotent tasks under failure injection", func(uint64) (any, string) {
			rows := exp.IdemAblation()
			var b strings.Builder
			fmt.Fprintf(&b, "%8s | %13s | %11s | %s\n", "failProb", "mean attempts", "all correct", "time overhead")
			for _, r := range rows {
				fmt.Fprintf(&b, "%8.1f | %13.2f | %11v | %+.0f%%\n",
					r.FailProb, r.MeanAttempts, r.AllCorrect, r.OverheadPct)
			}
			return rows, b.String()
		}},
		{"arbiter", "E4: central arbiter protects small-request latency", func(uint64) (any, string) {
			r := exp.ArbiterAblation()
			return r, fmt.Sprintf("reader p99 under 3-writer incast:\n"+
				"  laissez-faire: %8.0fns\n"+
				"  with arbiter:  %8.0fns (%.1fx better; bulk goodput %+.0f%%)\n",
				r.LaissezFaireP99Ns, r.ArbiterP99Ns,
				r.LaissezFaireP99Ns/r.ArbiterP99Ns, r.BulkChangePct)
		}},
		{"cfc", "E5: credit allocation schemes", func(uint64) (any, string) {
			rows := exp.CFCAblation()
			var b strings.Builder
			fmt.Fprintf(&b, "%-18s | %9s | %9s | %s\n", "scheme", "heavy ops", "light ops", "Jain fairness")
			for _, r := range rows {
				fmt.Fprintf(&b, "%-18s | %9.0f | %9.0f | %.3f\n",
					r.Scheme, r.HeavyOps, r.LightOps, r.JainFairness)
			}
			return rows, b.String()
		}},
		{"nodes", "E6: memory node types under sharing patterns", func(uint64) (any, string) {
			rows := exp.NodeTypes()
			var b strings.Builder
			fmt.Fprintf(&b, "%-14s | %14s | %13s | %s\n", "node type",
				"read-shared ns", "ping-pong ns", "big-set ns")
			for _, r := range rows {
				fmt.Fprintf(&b, "%-14s | %14.0f | %13.0f | %10.0f\n",
					r.Kind, r.ReadShared, r.PingPong, r.BigSet)
			}
			return rows, b.String()
		}},
		{"prefetch", "E8: prefetching accelerates fabric memory", func(uint64) (any, string) {
			rows := exp.PrefetchSweep()
			var b strings.Builder
			fmt.Fprintf(&b, "%5s | %10s | %s\n", "depth", "stream us", "speedup")
			for _, r := range rows {
				fmt.Fprintf(&b, "%5d | %10.1f | %.2fx\n", r.Depth, r.StreamUs, r.Speedup)
			}
			return rows, b.String()
		}},
		{"blast-radius", "E9: fault injection, route-around, blast radius", func(seed uint64) (any, string) {
			r := exp.BlastRadius(seed)
			return r, exp.RenderBlastRadius(r)
		}},
		{"shard-equiv", "E10: sharded PDES equivalence", func(seed uint64) (any, string) {
			return shardEquiv(seed)
		}},
		{"fabstore", "E11: FabStore multi-tenant transactional KV macro-benchmark", func(seed uint64) (any, string) {
			return fabStoreBench(seed)
		}},
		{"shard-speedup", "E12: multi-pod rack-scale scaling, sharded vs serial", func(seed uint64) (any, string) {
			return shardSpeedup(seed)
		}},
		{"scale", "E13: datacenter-scale boot, route repair, and throughput", func(seed uint64) (any, string) {
			return scaleSweep(seed, *traffic)
		}},
		{"mimo", "E7: MIMO baseband case study", func(uint64) (any, string) {
			clean := exp.MIMOPipeline(8, false)
			failed := exp.MIMOPipeline(8, true)
			text := fmt.Sprintf("clean run:   %d frames, BER %.4f, mean frame latency %.1fus\n",
				clean.Frames, clean.BER, clean.MeanFrameUs) +
				fmt.Sprintf("w/ failures: %d frames, BER %.4f, mean frame latency %.1fus (%d failovers)\n",
					failed.Frames, failed.BER, failed.MeanFrameUs, failed.FAAFailovers)
			return map[string]any{"clean": clean, "failures": failed}, text
		}},
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("%-18s %s\n", e.id, e.desc)
		}
		return
	}
	selected := exps[:0:0]
	for _, e := range exps {
		if *which == "all" || *which == e.id {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all, %s\n",
			*which, strings.Join(ids(exps), ", "))
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "-seeds must be >= 1")
		os.Exit(2)
	}

	// Each seed runs on its own worker with wholly private simulation
	// state; text and results are buffered per seed and emitted in seed
	// order, so the output is byte-identical for any -parallel value.
	runs := make([]*seedRun, *seeds)
	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range runs {
		r := &seedRun{Seed: *seed + uint64(i), Experiments: make(map[string]any)}
		runs[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, e := range selected {
				fmt.Fprintf(&r.text, "=== %s — %s ===\n", e.id, e.desc)
				result, text := e.run(r.Seed)
				fmt.Fprint(&r.text, text)
				fmt.Fprintln(&r.text)
				r.Experiments[e.id] = result
			}
		}()
	}
	wg.Wait()
	for _, r := range runs {
		if *seeds > 1 {
			fmt.Printf("──── seed %d ────\n", r.Seed)
		}
		os.Stdout.Write(r.text.Bytes())
	}

	if *jsonPath != "" {
		out := jsonOutput{
			Schema:      sim.SnapshotSchemaVersion,
			Experiments: runs[0].Experiments,
			Stats:       exp.StatsWorkload(),
		}
		if *seeds > 1 {
			out.Seeds = runs
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote results + stats tree to %s\n", *jsonPath)
	}
}

// shards is the shard count of E10's ring and E11's equivalence runs:
// one switch per failure domain on their 4-switch rings.
const shards = 4

// shardTimedRun is one E12 run at a given shard count. Its wall clock
// prints in the human-readable table only: the document must be
// byte-identical across identical runs, and wall clock never is.
type shardTimedRun struct {
	Shards int  `json:"shards"`
	Match  bool `json:"match"`
}

// fabStoreResult is the E11 result: throughput/tail tables for the
// tenant mixes (clean and under the fault plan), the crash-recovery
// check, and byte-equivalence of serial vs sharded runs.
type fabStoreResult struct {
	Seed        uint64                     `json:"seed"`
	Shards      int                        `json:"shards"`
	Clean       []exp.FabStoreMixRow       `json:"clean"`
	Faulted     []exp.FabStoreMixRow       `json:"faulted"`
	Recovery    exp.FabStoreRecoveryResult `json:"recovery"`
	Match       bool                       `json:"match"`
	FaultMatch  bool                       `json:"fault_match"`
	Committed   int64                      `json:"committed"`
	SerialMs    float64                    `json:"-"`
	ShardedMs   float64                    `json:"-"`
	EquivWallUp float64                    `json:"-"`
}

// fabStoreBench runs E11: the FabStore macro-benchmark. Two tenant
// mixes run clean and under the fault plan on the full-service cluster
// (coherent hot keys, arbiter QoS); a crashed writer's WAL intents are
// swept and replayed by a survivor; and the same seed must produce
// byte-identical snapshots serial vs sharded. Wall-clock timing lives
// here in cmd/ — the exp package stays free of nondeterminism sources.
func fabStoreBench(seed uint64) (any, string) {
	r := &fabStoreResult{Seed: seed, Shards: shards}
	r.Clean = exp.FabStoreMixes(seed, false)
	r.Faulted = exp.FabStoreMixes(seed, true)
	r.Recovery = exp.FabStoreRecovery(seed)

	start := time.Now()
	serial, committed := exp.FabStoreEquiv(seed, 1, false)
	r.SerialMs = float64(time.Since(start).Microseconds()) / 1e3
	start = time.Now()
	sharded, _ := exp.FabStoreEquiv(seed, shards, false)
	r.ShardedMs = float64(time.Since(start).Microseconds()) / 1e3
	r.Committed = committed
	r.Match = bytes.Equal(serial, sharded)
	if r.ShardedMs > 0 {
		r.EquivWallUp = r.SerialMs / r.ShardedMs
	}
	serialF, _ := exp.FabStoreEquiv(seed, 1, true)
	shardedF, _ := exp.FabStoreEquiv(seed, shards, true)
	r.FaultMatch = bytes.Equal(serialF, shardedF)

	var b strings.Builder
	b.WriteString("clean fabric:\n")
	b.WriteString(exp.RenderFabStoreMixes(r.Clean))
	b.WriteString("under fault plan (ISL down 40-100us, lanes degraded 60-160us):\n")
	b.WriteString(exp.RenderFabStoreMixes(r.Faulted))
	fmt.Fprintf(&b, "crash recovery: %d in-flight puts abandoned, %d WAL intents swept, %d replayed, verified %v\n",
		r.Recovery.AbandonedPuts, r.Recovery.Pending, r.Recovery.Replayed, r.Recovery.Verified)
	fmt.Fprintf(&b, "serial vs %d-shard equivalence: clean %v, fault plan %v (%d txns committed; wall %.1fms vs %.1fms, %.2fx)\n",
		r.Shards, r.Match, r.FaultMatch, r.Committed, r.SerialMs, r.ShardedMs, r.EquivWallUp)
	return r, b.String()
}

// shardEquivResult is the E10 result: byte-equivalence of serial vs
// sharded snapshots on the blast ring, with and without a fault plan.
type shardEquivResult struct {
	Seed           uint64 `json:"seed"`
	RingShards     int    `json:"ring_shards"`
	RingMatch      bool   `json:"ring_match"`
	RingFaultMatch bool   `json:"ring_fault_match"`
	Committed      int    `json:"committed"`
}

// shardEquiv runs E10: the equivalence check on the 4-switch ring at
// 4 shards, clean and under its fault plan. E12 measures wall clock.
func shardEquiv(seed uint64) (any, string) {
	r := &shardEquivResult{Seed: seed, RingShards: shards}

	ringCfg := exp.ScaleRingConfig()
	serial, v, _ := exp.ScaleRun(seed, 1, ringCfg)
	sharded, _, _ := exp.ScaleRun(seed, shards, ringCfg)
	r.Committed = v.Committed
	r.RingMatch = bytes.Equal(serial, sharded)
	ringCfg.Faults = true
	serialF, _, _ := exp.ScaleRun(seed, 1, ringCfg)
	shardedF, _, _ := exp.ScaleRun(seed, shards, ringCfg)
	r.RingFaultMatch = bytes.Equal(serialF, shardedF)
	text := fmt.Sprintf("ring equivalence (4 switches, %d shards): clean %v, fault plan %v (%d ops committed)\n",
		r.RingShards, r.RingMatch, r.RingFaultMatch, r.Committed)
	return r, text
}

// shardSpeedupResult is the E12 result: wall-clock scaling of the
// multi-pod workload with the equivalence check inline at every shard
// count. GOMAXPROCS is recorded because it decides what the numbers
// mean: with one P the coordinator runs its sequential path and the
// ratios are coordination overhead; with more they are real speedup.
type shardSpeedupResult struct {
	Seed       uint64          `json:"seed"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Committed  int             `json:"committed"`
	Runs       []shardTimedRun `json:"runs"`
}

// shardSpeedup runs E12: the ScalePodsConfig multi-pod workload (8
// pods of 2 switches, long-haul pod ring, mostly pod-local traffic)
// timed at 1/2/4/8 shards, checking each run's snapshot byte for byte
// against the serial run's.
func shardSpeedup(seed uint64) (any, string) {
	cfg := exp.ScalePodsConfig()
	spec := cfg.Cluster.Topology
	r := &shardSpeedupResult{Seed: seed, GoMaxProcs: runtime.GOMAXPROCS(0)}

	var b strings.Builder
	fmt.Fprintf(&b, "multi-pod scaling (%d pods x %d switches, %d hosts, %v pod links, GOMAXPROCS=%d):\n",
		spec.Groups, spec.Pods, cfg.Cluster.Hosts, spec.LongHaulConfig().Phys.Propagation, r.GoMaxProcs)
	fmt.Fprintf(&b, "  %6s | %9s | %7s | %s\n", "shards", "wall ms", "speedup", "snapshot match")
	var serial []byte
	var serialMs float64
	for _, n := range []int{1, 2, 4, 8} {
		start := time.Now()
		raw, v, _ := exp.ScaleRun(seed, n, cfg)
		ms := float64(time.Since(start).Microseconds()) / 1e3
		if n == 1 {
			serial, serialMs, r.Committed = raw, ms, v.Committed
		}
		run := shardTimedRun{Shards: n, Match: bytes.Equal(serial, raw)}
		r.Runs = append(r.Runs, run)
		fmt.Fprintf(&b, "  %6d | %9.1f | %6.2fx | %v\n", n, ms, serialMs/ms, run.Match)
	}
	if r.GoMaxProcs == 1 {
		b.WriteString("  (single-P runtime: coordinator ran its sequential path; ratios measure\n" +
			"   coordination cost + per-engine locality, not parallel overlap)\n")
	}
	return r, b.String()
}

// scaleRow is one E13 cluster size: boot and route-repair wall clock,
// steady-state throughput serial and sharded, and the equivalence
// verdicts. Wall-clock fields stay out of the JSON export (the
// document must be byte-identical across identical runs).
type scaleRow struct {
	Name       string  `json:"name"`
	Switches   int     `json:"switches"`
	ISLs       int     `json:"isls"`
	Endpoints  int     `json:"endpoints"`
	Shards     int     `json:"shards"`
	Committed  int     `json:"committed"`
	ShardMatch bool    `json:"shard_match"`
	BootMs     float64 `json:"-"`
	RepairUs   float64 `json:"-"`
	FullUs     float64 `json:"-"`
	RepairX    float64 `json:"-"`
	SerialMs   float64 `json:"-"`
	ShardedMs  float64 `json:"-"`
	SerialEvS  float64 `json:"-"` // simulator events/sec of wall time
	ShardedEvS float64 `json:"-"`
}

// scaleResult is the E13 result document.
type scaleResult struct {
	Seed uint64     `json:"seed"`
	Rows []scaleRow `json:"rows"`
}

// measureRepair times the route engine directly on a booted cluster:
// kill one inter-switch link and repair incrementally, vs handle the
// same death with a full recompute; the table is restored between
// iterations outside the timed windows.
func measureRepair(c *fcc.Cluster) (repairUs, fullUs float64) {
	b := c.Builder
	dead := fabric.DeadSet{
		Switches: make([]bool, len(b.Switches())),
		ISLs:     make([]bool, len(b.ISLLinks())),
		Atts:     make([]bool, len(b.Attachments())),
	}
	b.InstallRoutesFull(dead) // warm the engine's scratch
	k := len(dead.ISLs) / 3
	const reps = 50
	var repairNs, fullNs int64
	for i := 0; i < reps; i++ {
		dead.ISLs[k] = true
		t0 := time.Now()
		b.RepairRoutes(dead, nil, []int{k}, nil)
		repairNs += time.Since(t0).Nanoseconds()
		dead.ISLs[k] = false
		b.InstallRoutesFull(dead)
	}
	for i := 0; i < reps; i++ {
		dead.ISLs[k] = true
		t0 := time.Now()
		b.InstallRoutesFull(dead)
		fullNs += time.Since(t0).Nanoseconds()
		dead.ISLs[k] = false
		b.InstallRoutesFull(dead)
	}
	return float64(repairNs) / reps / 1e3, float64(fullNs) / reps / 1e3
}

// scaleSweep runs E13: for each generated topology, wall-clock boot
// time, single-ISL route-repair time (incremental vs full recompute),
// and steady-state events/sec serial and sharded with the
// byte-equivalence check inline. Wall-clock timing lives here in cmd/ —
// the exp package stays free of nondeterminism sources.
func scaleSweep(seed uint64, traffic bool) (any, string) {
	r := &scaleResult{Seed: seed}
	for _, cfg := range exp.ScaleScenarios() {
		row := scaleRow{Name: cfg.Name, Shards: cfg.Shards}

		start := time.Now()
		c := exp.ScaleBuild(cfg, 1)
		row.BootMs = float64(time.Since(start).Microseconds()) / 1e3
		row.Switches = len(c.Builder.Switches())
		row.ISLs = len(c.Builder.ISLLinks())
		row.Endpoints = len(c.Builder.Attachments())
		row.RepairUs, row.FullUs = measureRepair(c)
		if row.RepairUs > 0 {
			row.RepairX = row.FullUs / row.RepairUs
		}

		start = time.Now()
		serial, v, events := exp.ScaleRun(seed, 1, cfg)
		row.SerialMs = float64(time.Since(start).Microseconds()) / 1e3
		row.Committed = v.Committed
		if row.SerialMs > 0 {
			row.SerialEvS = float64(events) / (row.SerialMs / 1e3)
		}
		start = time.Now()
		sharded, _, sevents := exp.ScaleRun(seed, cfg.Shards, cfg)
		row.ShardedMs = float64(time.Since(start).Microseconds()) / 1e3
		if row.ShardedMs > 0 {
			row.ShardedEvS = float64(sevents) / (row.ShardedMs / 1e3)
		}
		row.ShardMatch = bytes.Equal(serial, sharded)
		r.Rows = append(r.Rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "  %-14s | %3s sw | %4s ep | %7s | %13s | %8s | %11s | %11s | %s\n",
		"topology", "", "", "boot ms", "repair us", "repair x", "serial ev/s", "shard ev/s", "match")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s | %3d sw | %4d ep | %7.1f | %5.1f vs %5.0f | %7.1fx | %11.2e | %11.2e | %v (%d shards)\n",
			row.Name, row.Switches, row.Endpoints, row.BootMs,
			row.RepairUs, row.FullUs, row.RepairX,
			row.SerialEvS, row.ShardedEvS, row.ShardMatch, row.Shards)
	}
	if traffic {
		b.WriteString("\n")
		b.WriteString(exp.ScaleTraffic(seed, exp.ScaleScenarios()[0]))
	}
	return r, b.String()
}

func ids(exps []experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.id
	}
	return out
}
