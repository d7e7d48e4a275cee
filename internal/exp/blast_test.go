package exp

import (
	"bytes"
	"testing"
)

func TestBlastFullPlanAccountsEveryTransaction(t *testing.T) {
	v, kills, snap, raw, _ := blastFullPlan(3)
	if v.Unaccounted != 0 {
		t.Fatalf("%d transactions unaccounted (%d issued, %d committed, %d typed)",
			v.Unaccounted, v.Issued, v.Committed, v.TypedErrors)
	}
	if v.TypedErrors == 0 {
		t.Fatal("full fault plan produced no typed errors — faults did not bite")
	}
	if v.Committed == 0 {
		t.Fatal("nothing committed under the fault plan")
	}
	if v.Reroutes == 0 {
		t.Fatal("manager never rerouted")
	}
	if len(kills) != 6 {
		t.Fatalf("plan described %d faults, want all 6 kinds", len(kills))
	}
	if snap == nil || len(raw) == 0 {
		t.Fatal("no stats snapshot returned")
	}
	// The snapshot must carry the fault and manager subtrees.
	var hasFault, hasManager bool
	for _, c := range snap.Children {
		switch c.Name {
		case "fault":
			hasFault = true
		case "manager":
			hasManager = true
		}
	}
	if !hasFault || !hasManager {
		t.Fatalf("snapshot missing subtrees: fault=%v manager=%v", hasFault, hasManager)
	}
}

func TestBlastFullPlanIsSeedDeterministic(t *testing.T) {
	v1, _, _, raw1, _ := blastFullPlan(9)
	v2, _, _, raw2, _ := blastFullPlan(9)
	if v1 != v2 {
		t.Fatalf("same-seed accounting differs:\n%+v\nvs\n%+v", v1, v2)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("same-seed stats snapshots are not byte-identical")
	}
}

func TestBlastSwitchKillManagerShrinksBlastRadius(t *testing.T) {
	withMgr, victim, _, _ := blastSwitchKill(5, true)
	noMgr, _, _, _ := blastSwitchKill(5, false)
	if victim == "" {
		t.Fatal("no victim recorded")
	}
	for _, v := range []BlastVariant{withMgr, noMgr} {
		if v.Unaccounted != 0 {
			t.Fatalf("%d transactions unaccounted: %+v", v.Unaccounted, v)
		}
	}
	if withMgr.Reroutes == 0 {
		t.Fatal("managed run never rerouted")
	}
	if withMgr.SeveredHosts >= noMgr.SeveredHosts {
		t.Fatalf("route-around did not shrink the blast radius: %d severed with manager, %d without",
			withMgr.SeveredHosts, noMgr.SeveredHosts)
	}
}
