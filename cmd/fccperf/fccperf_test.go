package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fcc/internal/lint"
	"fcc/internal/sim"
)

// smokeScale runs every workload at about 1/100 of its benchmark size.
const smokeScale = 0.01

// smoke measures w the way a traced run does, with a traced
// repetition of stream 0 (whose warm-up it must repeat exactly) and an
// untraced one of stream 1, and evaluates it.
func smoke(t *testing.T, w *workload, seed uint64, calib float64) (*workloadResult, *bench) {
	t.Helper()
	b := &bench{w: w, seed: seed, scale: smokeScale, calib: calib}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	r, err := b.run(0, true)
	if err != nil {
		t.Fatal(err)
	}
	b.traced = append(b.traced, r)
	if r, err = b.run(1, false); err != nil {
		t.Fatal(err)
	}
	b.timed = append(b.timed, r)
	if err := b.crossCheck(); err != nil {
		t.Fatal(err)
	}
	res, err := b.evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

// benchmarkFile is the part of BENCHMARK.json the catalogs must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestCatalogsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end metrics in BENCHMARK.json differ from the catalog:\nfile    %v\ncatalog %v", bf.EndToEnd, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("per_layer metrics in BENCHMARK.json differ from the catalog:\nfile    %v\ncatalog %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", names, want)
	}
}

// TestWorkloadsSmoke runs every workload small, twice: every check
// passes, every cataloged metric is emitted and no other, and what was
// simulated repeats exactly.
func TestWorkloadsSmoke(t *testing.T) {
	calib := calibrationError()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, b := smoke(t, w, 7, calib)
			if len(res.Failures) > 0 {
				t.Fatalf("checks failed: %v", res.Failures)
			}
			if got := b.warmup.out; got.committed == 0 || got.failed() != 0 {
				t.Fatalf("committed %d, failed %d; want all offered operations committed", got.committed, got.failed())
			}
			for _, m := range endToEnd {
				if _, ok := res.EndToEnd[m.Name]; !ok {
					t.Errorf("end-to-end metric %s not emitted", m.Name)
				}
			}
			if len(res.EndToEnd) != len(endToEnd) {
				t.Errorf("emitted %d end-to-end metrics, catalog has %d", len(res.EndToEnd), len(endToEnd))
			}
			for _, m := range perLayer {
				if _, ok := res.Layers[m.Name]; !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
			}
			if len(res.Layers) != len(perLayer) {
				t.Errorf("emitted %d per-layer metrics, catalog has %d", len(res.Layers), len(perLayer))
			}

			again, b2 := smoke(t, w, 7, calib)
			if b2.warmup.out != b.warmup.out {
				t.Errorf("same seed simulated differently:\n%+v\n%+v", b.warmup.out, b2.warmup.out)
			}
			for _, m := range []string{"sim_mean_us", "sim_tail_us", "sim_ops_per_sim_ms"} {
				if a, b := res.EndToEnd[m], again.EndToEnd[m]; a != b {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
		})
	}
}

// TestSeedsDiffer guards the generators: another seed is other traffic.
func TestSeedsDiffer(t *testing.T) {
	w, err := workloadByName("oltp-hot")
	if err != nil {
		t.Fatal(err)
	}
	a, err := run(w, 1, smokeScale, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(w, 2, smokeScale, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.out.sha == b.out.sha {
		t.Error("seeds 1 and 2 simulated identical snapshots")
	}
}

// TestLintClean holds the benchmark to the simulator invariants under
// the repository's allowlist. This is a module of its own, so the root
// module's TestRepoIsClean does not reach it; paths are taken relative
// to the repository root so the allowlist's cmd/ rules apply.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads export data for every dependency; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		p.ModuleDir = root
	}
	allow, err := lint.ParseAllowlist(filepath.Join(root, ".fcclint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range lint.Run(pkgs, lint.Analyzers(), allow) {
		msgs = append(msgs, d.String())
	}
	if len(msgs) > 0 {
		t.Fatalf("fcclint violations:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestPooledLatency checks the streams' pooled latency against all
// their latencies together, with the whole tail in one stream.
func TestPooledLatency(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	b := &bench{}
	var all []sim.Time
	for j := 0; j < 3; j++ {
		lats := make([]sim.Time, 20000+j*7000)
		for i := range lats {
			lats[i] = sim.Time(rng.ExpFloat64() * float64(sim.Microsecond))
			if j == 0 {
				lats[i] *= 10
			}
		}
		all = append(all, lats...)
		slices.Sort(lats)
		r := &rep{stream: j, out: outcome{latN: int64(len(lats))}}
		for _, v := range lats {
			r.out.latSum += v
		}
		b.tails[j] = lats[len(lats)-tailKeep:]
		if j == 0 {
			b.warmup = r
		} else {
			b.timed = append(b.timed, r)
		}
	}
	slices.Sort(all)
	var sum, tailSum sim.Time
	for _, v := range all {
		sum += v
	}
	tail := all[len(all)-len(all)/1000:]
	for _, v := range tail {
		tailSum += v
	}
	us := float64(sim.Microsecond)
	wantMean, wantTail := float64(sum)/float64(len(all))/us, float64(tailSum)/float64(len(tail))/us
	if mean, tail := b.pooledLatency(); math.Abs(mean-wantMean) > 1e-9 || math.Abs(tail-wantTail) > 1e-9 {
		t.Errorf("pooled mean %v tail %v, want %v and %v", mean, tail, wantMean, wantTail)
	}
}

func TestProfileLayers(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "fcc/internal/flit.(*Pool).Get", "fcc/internal/link.(*Port).send"}, "flit"},
		{[]string{"fcc/internal/phys.(*Lane).Serialize", "fcc/internal/sim.(*Engine).Run"}, "link"},
		{[]string{"fcc/internal/fault.Fault.String", "fcc/internal/link.(*Link).InjectFaultSide"}, "link"},
		{[]string{"fcc/internal/fabstore/workload.(*Driver).Start"}, "fabstore"},
		{[]string{"main.stream.start.func1", "fcc/internal/sim.(*Proc).run"}, "bench"},
		{[]string{"fcc.(*Cluster).Run", "main.run"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
	} {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("%v: charged to %s, want %s", c.frames, got, c.want)
		}
	}
}
