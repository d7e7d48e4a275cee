package workload_test

import (
	"bytes"
	"testing"

	"fcc"
	"fcc/internal/fabstore"
	"fcc/internal/fabstore/workload"
)

var testMix = workload.Mix{Name: "mixed", GetPct: 70, PutPct: 25, ScanPct: 5, ScanRows: 8}

// runOnce builds a 2-host/2-FAM cluster, drives both clients with the
// generator, and returns the drivers plus a snapshot of the full stats
// tree (the determinism witness).
func runOnce(t *testing.T, seed uint64, arrivals int) ([]*workload.Driver, []byte) {
	t.Helper()
	c, err := fcc.New(fcc.Config{Hosts: 2, FAMs: 2, FAMCapacity: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.NewFabStore(fabstore.Config{Tenants: 4, KeysPerTenant: 128})
	if err != nil {
		t.Fatal(err)
	}
	root := c.Stats()
	fs := root.Child("fabstore")
	st.RegisterStats(fs)
	var drivers []*workload.Driver
	for hi := range c.Hosts {
		d, derr := workload.NewDriver(st.Client(hi), workload.Config{
			Seed:     seed + uint64(hi),
			Arrivals: arrivals,
			Warmup:   arrivals / 4,
			Rate:     2e6, // 2M arrivals per simulated second
			KeySkew:  1.1,
			Mix:      testMix,
		})
		if derr != nil {
			t.Fatal(derr)
		}
		d.RegisterStats(fs.Child(c.Hosts[hi].Name() + "/wl"))
		d.Start()
		drivers = append(drivers, d)
	}
	c.Run()
	snap, err := root.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	return drivers, snap
}

func TestDriverAuditsToZero(t *testing.T) {
	drivers, _ := runOnce(t, 7, 400)
	for i, d := range drivers {
		if d.Issued.Value() == 0 || d.Committed.Value() == 0 {
			t.Fatalf("driver %d issued %d committed %d", i, d.Issued.Value(), d.Committed.Value())
		}
		if got := d.Unaccounted(); got != 0 {
			t.Errorf("driver %d: %d unaccounted transactions", i, got)
		}
		if d.Lat.Count() == 0 {
			t.Errorf("driver %d recorded no latencies past warmup", i)
		}
	}
}

func TestDriverDeterministic(t *testing.T) {
	_, a := runOnce(t, 42, 300)
	_, b := runOnce(t, 42, 300)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different stats snapshots")
	}
	_, c := runOnce(t, 43, 300)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical snapshots (generator ignores seed?)")
	}
}

func TestDriverShedsWhenSaturated(t *testing.T) {
	c, err := fcc.New(fcc.Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.NewFabStore(fabstore.Config{Tenants: 1, KeysPerTenant: 64})
	if err != nil {
		t.Fatal(err)
	}
	// An absurd arrival rate with one outstanding slot: nearly every
	// arrival lands while the previous one is in flight and is shed.
	d, err := workload.NewDriver(st.Client(0), workload.Config{
		Seed: 1, Arrivals: 200, Rate: 1e9, MaxOutstanding: 1,
		Mix: workload.Mix{Name: "get", GetPct: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	c.Run()
	if d.Shed.Value() == 0 {
		t.Fatal("no arrivals shed at 1e9/s against MaxOutstanding=1")
	}
	if got := d.Issued.Value() + d.Shed.Value(); got != 200 {
		t.Fatalf("issued+shed = %d, want every arrival admitted or shed", got)
	}
	if d.Unaccounted() != 0 {
		t.Fatal("shed arrivals leaked into the audit residue")
	}
}

func TestDriverCommitsEveryArrival(t *testing.T) {
	c, err := fcc.New(fcc.Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.NewFabStore(fabstore.Config{Tenants: 1, KeysPerTenant: 64})
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.NewDriver(st.Client(0), workload.Config{
		Seed: 1, Arrivals: 50, Rate: 1e6,
		Mix: workload.Mix{Name: "get", GetPct: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	c.Run()
	if d.Committed.Value() != 50 {
		t.Fatalf("committed %d of 50 on a clean fabric", d.Committed.Value())
	}
}

func TestMixValidation(t *testing.T) {
	for _, bad := range []workload.Mix{
		{Name: "sums-to-90", GetPct: 50, PutPct: 40},
		{Name: "zero-row-scan", GetPct: 50, PutPct: 40, ScanPct: 10},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("mix %q accepted", bad.Name)
		}
	}
	if err := testMix.Validate(); err != nil {
		t.Errorf("good mix rejected: %v", err)
	}
}
