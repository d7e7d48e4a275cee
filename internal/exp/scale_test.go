package exp

import (
	"bytes"
	"testing"

	"fcc"
	"fcc/internal/fabric"
)

// checkShardedMatchesSerial runs cfg at every seed serially and at
// every shard count. The serial run must account for every request it
// issued (committed or failed typed, none left waiting), and each
// sharded run must match its accounting and snapshot byte for byte.
func checkShardedMatchesSerial(t *testing.T, cfg ScaleConfig, seeds []uint64, shards []int) {
	t.Helper()
	for _, seed := range seeds {
		serial, sv, _ := ScaleRun(seed, 1, cfg)
		if sv.Committed == 0 || sv.Unaccounted != 0 {
			t.Fatalf("%s seed %d: serial run issued %d requests: %d committed, %d typed, %d unaccounted",
				cfg.Name, seed, sv.Issued, sv.Committed, sv.TypedErrors, sv.Unaccounted)
		}
		for _, n := range shards {
			raw, v, _ := ScaleRun(seed, n, cfg)
			if v != sv {
				t.Errorf("%s seed %d, %d shards: accounting %+v, serial %+v", cfg.Name, seed, n, v, sv)
			}
			if !bytes.Equal(serial, raw) {
				t.Errorf("%s seed %d, %d shards: snapshot is not byte-identical to serial (%d vs %d bytes)",
					cfg.Name, seed, n, len(raw), len(serial))
			}
		}
	}
}

// TestShardedMatchesSerial is the crown-jewel invariant of the PDES
// layer (E10): the same seed must produce byte-identical fabric-wide
// stats snapshots whether the ring cluster runs serially or
// partitioned into 2 or 4 failure-domain shards — with and without a
// fault plan cutting a cross-shard link mid-run.
func TestShardedMatchesSerial(t *testing.T) {
	for _, faults := range []bool{false, true} {
		cfg := ScaleRingConfig()
		cfg.Faults = faults
		checkShardedMatchesSerial(t, cfg, []uint64{1, 2, 7}, []int{2, 4})
	}
}

// TestShardedScaleMatchesSerial extends the crown-jewel invariant to
// the multi-pod scaling topology (E12): wide discovered lookahead
// between pod-aligned shards, mostly pod-local traffic, and a fault
// plan flapping one long-haul pod link — still byte-identical to the
// serial run at every shard count.
func TestShardedScaleMatchesSerial(t *testing.T) {
	for _, faults := range []bool{false, true} {
		cfg := ScalePodsConfig()
		cfg.OpsPerHost = 60 // enough to straddle the fault window, test-sized
		cfg.Faults = faults
		checkShardedMatchesSerial(t, cfg, []uint64{1, 2, 7}, []int{2, 4, 8})
	}
}

// TestShardedSeedSteers proves the seed actually steers the sharded
// run rather than being flattened by the barrier protocol.
func TestShardedSeedSteers(t *testing.T) {
	a, _, _ := ScaleRun(1, 2, ScaleRingConfig())
	b, _, _ := ScaleRun(2, 2, ScaleRingConfig())
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced byte-identical sharded snapshots")
	}
}

// TestShardedScaleEquivalence proves sharded execution on generated
// datacenter topologies (E13): the E13 fat-tree plus a small
// dragonfly, both modest enough for the cross-product of seeds and
// shard counts. (The TestSharded name prefix of this file's
// equivalence tests puts them under `make shard-equiv`.)
func TestShardedScaleEquivalence(t *testing.T) {
	for _, cfg := range []ScaleConfig{
		ScaleScenarios()[0], // fat-tree-16sw
		{
			Name: "dragonfly-20sw",
			Cluster: fcc.Config{Hosts: 20, FAMs: 10,
				Topology: &fabric.TopoSpec{Kind: fabric.TopoDragonfly, Radix: 8, Pods: 4}},
			OpsPerHost: 30, LocalEvery: 4,
		},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			checkShardedMatchesSerial(t, cfg, []uint64{1, 2}, []int{2, 4})
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
