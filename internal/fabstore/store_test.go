package fabstore_test

import (
	"bytes"
	"errors"
	"testing"

	"fcc"
	"fcc/internal/fabstore"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

func testCluster(t *testing.T, ccfg fcc.Config, fcfg fabstore.Config) (*fcc.Cluster, *fabstore.Store) {
	t.Helper()
	c, err := fcc.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.NewFabStore(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

func TestPutGetScanAcrossShards(t *testing.T) {
	c, st := testCluster(t,
		fcc.Config{Hosts: 2, FAMs: 2, FAMCapacity: 1 << 22},
		fabstore.Config{Tenants: 2, KeysPerTenant: 64, Quota: 4096})
	// Tenant 1's keys straddle the shard boundary (128 rows over 2
	// shards: rows 64..127 are tenant 1, row 64 on shard 1... row 63 on
	// shard 0), so both the scan and the put set cross expanders.
	cl0, cl1 := st.Client(0), st.Client(1)
	keys := []uint64{0, 1, 31, 32, 63}
	want := map[uint64][]byte{}
	c.Go("writer-reader", func(p *sim.Proc) {
		for _, key := range keys {
			val := make([]byte, 64)
			fabstore.FillValue(val, 1, key, 7)
			if err := cl0.PutP(p, 1, key, val); err != nil {
				t.Errorf("put key %d: %v", key, err)
			}
			want[key] = val
		}
		// Same host reads back.
		for _, key := range keys {
			got, err := cl0.GetP(p, 1, key)
			if err != nil || !bytes.Equal(got, want[key]) {
				t.Errorf("get key %d: err=%v", key, err)
			}
		}
		// Another host sees the same rows (shared fabric memory).
		got, err := cl1.GetP(p, 1, 63)
		if err != nil || !bytes.Equal(got, want[63]) {
			t.Errorf("cross-host get: err=%v", err)
		}
		// A scan across the full tenant touches both shards.
		n, err := cl1.ScanP(p, 1, 0, 64)
		if err != nil || n != 64 {
			t.Errorf("scan: n=%d err=%v", n, err)
		}
	})
	c.Run()
	if got := cl0.Committed.Value() + cl1.Committed.Value(); got != 12 {
		t.Errorf("committed = %d, want 12", got)
	}
	if cl0.TypedErrors.Value()+cl1.TypedErrors.Value() != 0 {
		t.Error("typed errors on a clean fabric")
	}
}

// TestRefusedRequestsFailTyped partitions the store's one FAM to host
// 1, so the FAM refuses every request from host 0. Host 0's put, get
// and 8-row scan, and its recovery scan of host 1's intent slots, must
// each fail with the refusal, which txn.Typed accepts: none may read a
// refused reply as data or count as committed.
func TestRefusedRequestsFailTyped(t *testing.T) {
	c, st := testCluster(t,
		fcc.Config{Hosts: 2, FAMs: 1, FAMCapacity: 1 << 22},
		fabstore.Config{Tenants: 1, KeysPerTenant: 16})
	fam := c.FAMs[0]
	if err := fam.Partition(c.Hosts[1].Endpoint().ID(), 0, fam.Capacity()); err != nil {
		t.Fatal(err)
	}
	cl := st.Client(0)
	var errs [4]error
	var val []byte
	var rows uint64
	c.Go("refused", func(p *sim.Proc) {
		errs[0] = cl.PutP(p, 0, 3, make([]byte, 64))
		val, errs[1] = cl.GetP(p, 0, 3)
		rows, errs[2] = cl.ScanP(p, 0, 0, 8)
		_, errs[3] = fabstore.NewRecovery(st, c.Hosts[0], 1).RecoverP(p, 1)
	})
	c.Run()
	for i, what := range []string{"put", "get", "scan", "recovery scan"} {
		if !errors.Is(errs[i], txn.ErrRefused) || !txn.Typed(errs[i]) {
			t.Errorf("%s refused by the FAM ended with %v, want %v", what, errs[i], txn.ErrRefused)
		}
	}
	if val != nil || rows != 0 {
		t.Errorf("refused get returned %d bytes and scan %d rows; want none", len(val), rows)
	}
	if cl.Committed.Value() != 0 || cl.TypedErrors.Value() != 3 {
		t.Errorf("committed %d, typed errors %d; want 0 and 3", cl.Committed.Value(), cl.TypedErrors.Value())
	}
	if n := fam.Violations.Value(); n != 4 {
		t.Errorf("FAM counted %d violations, want 4: a refused request is never retried", n)
	}
}

func TestQuotaGateStallsAndDrains(t *testing.T) {
	// One 64-byte quota: the second concurrent put of the same tenant
	// must stall until the first releases, and both must commit.
	c, st := testCluster(t,
		fcc.Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 22},
		fabstore.Config{Tenants: 1, KeysPerTenant: 16, Quota: 64})
	cl := st.Client(0)
	val := make([]byte, 64)
	for i := 0; i < 3; i++ {
		key := uint64(i)
		c.Go("put", func(p *sim.Proc) {
			if err := cl.PutP(p, 0, key, val); err != nil {
				t.Errorf("put %d: %v", key, err)
			}
		})
	}
	c.Run()
	if cl.Committed.Value() != 3 {
		t.Fatalf("committed = %d", cl.Committed.Value())
	}
	if cl.QuotaStalls.Value() == 0 {
		t.Fatal("no quota stalls despite 3 concurrent puts against a 1-op window")
	}
}

func TestWALSlotBound(t *testing.T) {
	// IntentSlots=1 serializes a client's puts per shard.
	c, st := testCluster(t,
		fcc.Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 22},
		fabstore.Config{Tenants: 1, KeysPerTenant: 16, IntentSlots: 1})
	cl := st.Client(0)
	val := make([]byte, 64)
	for i := 0; i < 3; i++ {
		key := uint64(i)
		c.Go("put", func(p *sim.Proc) {
			if err := cl.PutP(p, 0, key, val); err != nil {
				t.Errorf("put %d: %v", key, err)
			}
		})
	}
	c.Run()
	if cl.Committed.Value() != 3 || cl.WALStalls.Value() == 0 {
		t.Fatalf("committed=%d walStalls=%d", cl.Committed.Value(), cl.WALStalls.Value())
	}
}

func TestCrashRecoveryReplaysIntents(t *testing.T) {
	c, st := testCluster(t,
		fcc.Config{Hosts: 2, FAMs: 2, FAMCapacity: 1 << 22},
		fabstore.Config{Tenants: 2, KeysPerTenant: 256, IntentSlots: 4})
	cl0 := st.Client(0)

	// Host 0 streams puts; the crash lands mid-stream.
	c.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			val := make([]byte, 64)
			key := uint64(i % 256)
			fabstore.FillValue(val, i%2, key, uint64(i))
			err := cl0.PutP(p, i%2, key, val)
			if errors.Is(err, fabstore.ErrCrashed) {
				return
			}
			if err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
	})
	c.Eng.After(30*sim.Microsecond, func() { cl0.Crash() })
	c.Run()
	if cl0.AbandonedPuts.Value() == 0 {
		t.Fatal("crash landed with nothing in flight; move the crash time")
	}

	// Survivor sweeps the WAL. Pending intents (state word read straight
	// from backing DRAM, pre-recovery) must afterwards be visible as
	// row contents and cleared slots.
	type pending struct {
		shard, slot int
		tenant      int
		key         uint64
		val         []byte
	}
	var before []pending
	for si, sh := range st.Shards() {
		for slot := 0; slot < st.Config().IntentSlots; slot++ {
			addr := sh.IntentBase + uint64(0*st.Config().IntentSlots+slot)*(64+64)
			store := c.FAMs[si].DRAM().Store()
			if store.Read64(addr) != 1 {
				continue
			}
			rec := make([]byte, 128)
			store.Read(addr, rec)
			val := append([]byte(nil), rec[64:128]...)
			before = append(before, pending{si, slot, int(store.Read64(addr + 8)), store.Read64(addr + 16), val})
		}
	}
	if len(before) == 0 {
		t.Fatal("no pending intents after crash; expected at least one")
	}

	rec := fabstore.NewRecovery(st, c.Hosts[1], 99)
	var replays []fabstore.Replay
	c.Go("recover", func(p *sim.Proc) {
		var err error
		replays, err = rec.RecoverP(p, 0)
		if err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	c.Run()

	if len(replays) != len(before) {
		t.Fatalf("replayed %d, found %d pending", len(replays), len(before))
	}
	cl1 := st.Client(1)
	c.Go("verify", func(p *sim.Proc) {
		for _, pd := range before {
			got, err := cl1.GetP(p, pd.tenant, pd.key)
			if err != nil || !bytes.Equal(got, pd.val) {
				t.Errorf("row (%d,%d) not recovered: err=%v", pd.tenant, pd.key, err)
			}
		}
	})
	c.Run()
	// Every intent slot of the crashed host is clear again.
	for si, sh := range st.Shards() {
		for slot := 0; slot < st.Config().IntentSlots; slot++ {
			addr := sh.IntentBase + uint64(slot)*128
			if c.FAMs[si].DRAM().Store().Read64(addr) != 0 {
				t.Errorf("shard %d slot %d still pending after recovery", si, slot)
			}
		}
	}
}

func TestHotKeysThroughCoherenceDirectory(t *testing.T) {
	c, st := testCluster(t,
		fcc.Config{Hosts: 2, FAMs: 1, FAMCapacity: 1 << 22, Coherent: true},
		fabstore.Config{Tenants: 1, KeysPerTenant: 64, HotKeys: 8})
	cl0, cl1 := st.Client(0), st.Client(1)
	v1 := make([]byte, 64)
	v2 := make([]byte, 64)
	fabstore.FillValue(v1, 0, 3, 1)
	fabstore.FillValue(v2, 0, 3, 2)
	c.Go("hot", func(p *sim.Proc) {
		if err := cl0.PutP(p, 0, 3, v1); err != nil {
			t.Fatalf("put: %v", err)
		}
		// Both hosts read the hot row; host 1's copy is now cached.
		if got, err := cl1.GetP(p, 0, 3); err != nil || !bytes.Equal(got, v1) {
			t.Fatalf("host1 first read: %v", err)
		}
		// Host 0 rewrites through the directory — host 1's cached line
		// must be invalidated, not silently stale.
		if err := cl0.PutP(p, 0, 3, v2); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if got, err := cl1.GetP(p, 0, 3); err != nil || !bytes.Equal(got, v2) {
			t.Fatal("host1 read a stale hot row after a remote rewrite")
		}
	})
	c.Run()
	// The directory actually served traffic.
	snap := c.Stats().Snapshot()
	var dirTraffic bool
	for _, ch := range snap.Children {
		if ch.Name == "dir0" {
			for _, v := range ch.Counters {
				if v > 0 {
					dirTraffic = true
				}
			}
		}
	}
	if !dirTraffic {
		t.Error("no coherence directory traffic for hot keys")
	}
}
