package exp

import (
	"fmt"
	"testing"
)

// BenchmarkCoordinatorScaling measures wall-clock scaling of the
// multi-pod workload (ScalePodsConfig, E12) across shard counts —
// the number the barrier/lookahead overhaul exists to move. Each
// iteration is one complete run: build the 8-pod cluster, stream the
// host workload, drain.
//
// Interpretation depends on GOMAXPROCS (recorded in the benchmark name
// suffix and in BENCH_*.json): with one P the coordinator falls back to
// its sequential path, so shards=N vs shards=1 reports pure
// coordination overhead — rounds, exchanges, frontier bookkeeping;
// with GOMAXPROCS > 1 the shards genuinely overlap and the ratio is
// real speedup.
func BenchmarkCoordinatorScaling(b *testing.B) {
	cfg := ScalePodsConfig()
	cfg.OpsPerHost = 12 // bench-smoke runs 100 iterations; keep a run light
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			committed := 0
			for i := 0; i < b.N; i++ {
				_, v, _ := ScaleRun(1, shards, cfg)
				committed = v.Committed
			}
			if committed == 0 {
				b.Fatal("workload committed nothing")
			}
			perRun := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(committed)/perRun, "simops/s")
		})
	}
}
