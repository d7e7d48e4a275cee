package exp

import (
	"bytes"
	"testing"

	"fcc/internal/fabric"
)

// scaleTestConfigs are the generated topologies the sharded-equivalence
// check runs: the E13 fat-tree plus a small dragonfly, both modest
// enough for the test cross-product seeds x shard counts.
func scaleTestConfigs() []ScaleConfig {
	return []ScaleConfig{
		ScaleScenarios()[0], // fat-tree-16sw
		{
			Name:  "dragonfly-20sw",
			Spec:  fabric.TopoSpec{Kind: fabric.TopoDragonfly, Radix: 8, Pods: 4},
			Hosts: 20, FAMs: 10, OpsPerHost: 30, LocalEvery: 4,
		},
	}
}

// TestShardedScaleEquivalence proves sharded execution on generated
// datacenter topologies: same seed, same workload, byte-identical
// stats snapshot whether the fat-tree or dragonfly runs on one engine
// or partitioned across failure-domain shards. (The TestSharded name
// prefix puts this under `make shard-equiv`.)
func TestShardedScaleEquivalence(t *testing.T) {
	for _, cfg := range scaleTestConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				serial, committed, _ := ScaleRun(seed, 1, cfg)
				if committed == 0 {
					t.Fatalf("seed %d: no operations committed", seed)
				}
				for _, shards := range []int{2, 4} {
					sharded, scommitted, _ := ScaleRun(seed, shards, cfg)
					if scommitted != committed {
						t.Errorf("seed %d, %d shards: committed %d, serial %d",
							seed, shards, scommitted, committed)
					}
					if !bytes.Equal(serial, sharded) {
						t.Errorf("seed %d, %d shards: snapshot diverged from serial", seed, shards)
					}
				}
			}
		})
	}
}

// TestScaleIncrementalMatchesFull runs the pod-0 failure storm with the
// manager in incremental-repair mode and again in FullRecompute mode:
// the observable outcome — every stat, every route, every packet fate —
// must be byte-identical; only the repair-path split may differ, and
// the incremental run must actually have taken the incremental path.
func TestScaleIncrementalMatchesFull(t *testing.T) {
	for _, seed := range []uint64{7, 8} {
		inc := ScaleStorm(seed, ScaleStormConfig(), false)
		full := ScaleStorm(seed, ScaleStormConfig(), true)
		if inc.Repairs == 0 {
			t.Errorf("seed %d: incremental mode performed no incremental repairs", seed)
		}
		if full.Repairs != 0 {
			t.Errorf("seed %d: FullRecompute mode took %d incremental repairs", seed, full.Repairs)
		}
		if inc.Variant != full.Variant {
			t.Errorf("seed %d: accounting diverged\nincremental: %+v\nfull:        %+v",
				seed, inc.Variant, full.Variant)
		}
		if inc.Variant.Unaccounted != 0 {
			t.Errorf("seed %d: %d operations unaccounted", seed, inc.Variant.Unaccounted)
		}
		if !bytes.Equal(inc.Raw, full.Raw) {
			t.Errorf("seed %d: snapshots diverged between repair modes", seed)
		}
	}
}

// TestScaleBootAllocCeiling pins what one boot of the 64-switch,
// 512-endpoint fat-tree allocates. fcc.New maps all 64 FAM windows into
// each of the 448 hosts' address maps, so a map that re-sorts or
// allocates on every insert shows up here first: such an Add cost
// about 117,600 allocations per boot, against about 31,100 for the
// in-place insert.
func TestScaleBootAllocCeiling(t *testing.T) {
	cfg := ScaleScenarios()[2] // fat-tree-64sw
	n := testing.AllocsPerRun(3, func() { ScaleBuild(cfg, 1) })
	t.Logf("%s boot: %.0f allocations", cfg.Name, n)
	if n > 40000 {
		t.Fatalf("%s boot allocates %.0f objects, want <= 40000", cfg.Name, n)
	}
}
