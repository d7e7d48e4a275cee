package exp

import (
	"strings"
	"testing"
)

// These tests assert the experiment *shapes* the paper reports — who
// wins and by roughly what factor — on top of the cell-level assertions
// in the root benchmark suite.

func TestTable2MatchesPaperWithin10Pct(t *testing.T) {
	rows := table2Run()
	for i, r := range rows {
		p := Table2Paper[i]
		check := func(name string, got, want float64, tol float64) {
			if got < want*(1-tol) || got > want*(1+tol) {
				t.Errorf("%s %s = %.1f, paper %.1f", r.Level, name, got, want)
			}
		}
		check("read ns", r.ReadLatNs, p.ReadLatNs, 0.10)
		check("write ns", r.WriteLatNs, p.WriteLatNs, 0.10)
		check("read MOPS", r.ReadMOPS, p.ReadMOPS, 0.10)
		check("write MOPS", r.WriteMOPS, p.WriteMOPS, 0.12)
	}
}

func TestTable2RemoteIsTenXLocal(t *testing.T) {
	rows := table2Run()
	ratio := rows[3].ReadLatNs / rows[2].ReadLatNs
	if ratio < 10 {
		t.Fatalf("remote/local = %.1fx, paper reports ~14x (at least 10x)", ratio)
	}
}

func TestFigure1RendersAllRoles(t *testing.T) {
	out := Figure1()
	for _, want := range []string{"FHA", "FEA", "host0", "fam1", "faa0", "manager"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure missing %q", want)
		}
	}
}

func TestClaimMLPLinear(t *testing.T) {
	rows := mlpRun()
	// MOPS/MSHR must be nearly constant (latency-bound regime).
	base := rows[0].MOPS / rows[0].MSHRs
	for _, r := range rows[:4] { // 16 MSHRs starts brushing other limits
		perm := r.MOPS / r.MSHRs
		if perm < base*0.9 || perm > base*1.1 {
			t.Fatalf("MOPS/MSHR drifted: %.3f vs %.3f at %v MSHRs", perm, base, r.MSHRs)
		}
	}
}

func TestClaimContentionAddsLatency(t *testing.T) {
	r := contentionRun()
	if r.AddedNs < 200 || r.AddedNs > 1500 {
		t.Fatalf("added one-way latency %.0fns, want the paper's few-hundred-ns class", r.AddedNs)
	}
}

func TestClaimInterleaveDrasticAndMitigated(t *testing.T) {
	r := interleaveRun()
	if r.WithBulkNs < 5*r.AloneNs {
		t.Fatalf("shared-pool degradation only %.1fx, want drastic (>5x)", r.WithBulkNs/r.AloneNs)
	}
	if r.WithBulkVCSepNs > 2*r.AloneNs {
		t.Fatalf("dedicated VC did not mitigate: %.0fns vs idle %.0fns", r.WithBulkVCSepNs, r.AloneNs)
	}
}

func TestClaimSwitchClass(t *testing.T) {
	r := switchRun()
	if r.TransitNs > 100 {
		t.Fatalf("transit %.0fns, want <100ns", r.TransitNs)
	}
	if r.GBps < 5 {
		t.Fatalf("switch bandwidth %.1f GB/s, want high-bandwidth class", r.GBps)
	}
}

func TestClaimRTTUnderBound(t *testing.T) {
	if r := rttRun(); r.RTTNs > 200 {
		t.Fatalf("RTT %.0fns exceeds the 200ns bound", r.RTTNs)
	}
}

func TestETransManagedWins(t *testing.T) {
	r := etransRun()
	if r.ManagedUs*2 > r.SyncUs {
		t.Fatalf("managed %.0fus vs sync %.0fus, want >=2x", r.ManagedUs, r.SyncUs)
	}
	if r.HostFreeUs > r.ManagedUs/10 {
		t.Fatalf("OwnExecutor handoff %.1fus not cheap vs %.1fus", r.HostFreeUs, r.ManagedUs)
	}
}

func TestIdemAlwaysCorrect(t *testing.T) {
	for _, r := range idemRun() {
		if !r.AllCorrect {
			t.Fatalf("corruption at failProb %.1f", r.FailProb)
		}
		if r.FailProb == 0.5 && (r.MeanAttempts < 1.5 || r.MeanAttempts > 3.0) {
			t.Fatalf("mean attempts %.2f at p=0.5, want ~2 (1/(1-p))", r.MeanAttempts)
		}
	}
}

func TestCFCShapes(t *testing.T) {
	rows := cfcRun()
	static, ramp, adaptive := rows[0], rows[1], rows[2]
	if ramp.JainFairness >= static.JainFairness {
		t.Fatalf("ramp-up fairness %.3f not worse than static %.3f",
			ramp.JainFairness, static.JainFairness)
	}
	if adaptive.LightOps < ramp.LightOps*1.5 {
		t.Fatalf("adaptive light ops %.0f vs ramp-up %.0f, want recovery",
			adaptive.LightOps, ramp.LightOps)
	}
}

func TestNodeTypeNiches(t *testing.T) {
	rows := nodeTypesRun()
	byKind := map[string]NodeRow{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	// CC-NUMA wins fine-grain read sharing.
	if byKind["CC-NUMA"].ReadShared > byKind["NCC-NUMA"].ReadShared/5 {
		t.Fatalf("CC read-shared %.0f vs NCC %.0f: coherent caching absent",
			byKind["CC-NUMA"].ReadShared, byKind["NCC-NUMA"].ReadShared)
	}
	// COMA wins the big working set against the small coherent cache.
	if byKind["COMA"].BigSet > byKind["CC-NUMA"].BigSet/2 {
		t.Fatalf("COMA big-set %.0f vs CC %.0f: attraction memory absent",
			byKind["COMA"].BigSet, byKind["CC-NUMA"].BigSet)
	}
	// Ping-pong write sharing hurts every coherent design.
	if byKind["CC-NUMA"].PingPong < byKind["CC-NUMA"].ReadShared*5 {
		t.Fatal("write ping-pong suspiciously cheap")
	}
}

func TestMIMORecoversCleanly(t *testing.T) {
	r := MIMOPipeline(4, false)
	if !r.RecoveredOK {
		t.Fatalf("BER %.4f on a clean run", r.BER)
	}
}

func TestMIMOSurvivesChassisFailures(t *testing.T) {
	r := MIMOPipeline(4, true)
	if !r.RecoveredOK {
		t.Fatalf("BER %.4f with failovers", r.BER)
	}
	if r.FAAFailovers == 0 {
		t.Skip("no failovers sampled in this window")
	}
	if r.MeanFrameUs < MIMOPipeline(4, false).MeanFrameUs {
		t.Fatal("failovers cannot make frames faster")
	}
}
