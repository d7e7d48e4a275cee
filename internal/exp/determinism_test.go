package exp

import (
	"bytes"
	"testing"
)

// TestBlastRadiusDeterministicAcrossSeeds is the runtime half of the
// determinism invariant that fcclint (internal/lint) checks statically:
// the blast-radius experiment, run twice in-process at each of two
// different seeds, must produce byte-identical stats snapshots and
// identical accounting per seed — while the two seeds themselves must
// diverge (different fault plans, different victims), proving the seed
// actually steers the run rather than being ignored.
func TestBlastRadiusDeterministicAcrossSeeds(t *testing.T) {
	seeds := []uint64{7, 0xfcc}
	raws := make([][]byte, len(seeds))
	for i, seed := range seeds {
		v1, kills1, _, raw1, _ := blastFullPlan(seed)
		v2, kills2, _, raw2, _ := blastFullPlan(seed)
		if v1 != v2 {
			t.Fatalf("seed %d: same-seed accounting differs:\n%+v\nvs\n%+v", seed, v1, v2)
		}
		if len(kills1) != len(kills2) {
			t.Fatalf("seed %d: same-seed plans differ: %v vs %v", seed, kills1, kills2)
		}
		for j := range kills1 {
			if kills1[j] != kills2[j] {
				t.Fatalf("seed %d: same-seed plans differ at %d: %q vs %q", seed, j, kills1[j], kills2[j])
			}
		}
		if !bytes.Equal(raw1, raw2) {
			t.Fatalf("seed %d: same-seed stats snapshots are not byte-identical (%d vs %d bytes)",
				seed, len(raw1), len(raw2))
		}
		if v1.Unaccounted != 0 {
			t.Fatalf("seed %d: %d transactions unaccounted", seed, v1.Unaccounted)
		}
		raws[i] = raw1
	}
	if bytes.Equal(raws[0], raws[1]) {
		t.Fatalf("seeds %d and %d produced byte-identical snapshots — the seed is not steering the run",
			seeds[0], seeds[1])
	}
}
