package main

import (
	"strings"

	"fcc/internal/sim"
)

// layerCounts sums the stats snapshot by layer. Each field is a counter
// summed over every component of one kind; the kind is recognized by a
// counter only it registers, so the sums need no component names.
type layerCounts struct {
	flits, pkts, stallPicks, retransmits int64 // switch-side link ports
	routed, holStalls, dropped           int64 // switches
	reqs, retries, timeouts              int64 // txn endpoints
	dramReads, dramWrites                int64 // host and FAM DRAM
	l1Hits, l1Misses, l2Hits, l2Misses   int64 // host caches
	mshrMerges, writebacks               int64 // hosts
	snoops, readMisses, forwards         int64 // coherence directories
	reserves, queued                     int64 // arbiter
	quotaStalls, walStalls               int64 // fabstore clients
}

func sumLayers(s *sim.StatsSnapshot) layerCounts {
	var lc layerCounts
	lc.add(s)
	return lc
}

func (lc *layerCounts) add(s *sim.StatsSnapshot) {
	c := s.Counters
	has := func(name string) bool { _, ok := c[name]; return ok }
	switch {
	case has("flits_tx"):
		lc.flits += c["flits_tx"]
		lc.pkts += c["pkts_tx"]
		lc.stallPicks += c["stall_picks"]
		lc.retransmits += c["retransmits"]
	case has("pkts_routed"):
		lc.routed += c["pkts_routed"]
		lc.holStalls += c["hol_stalls"]
		lc.dropped += c["pkts_dropped"]
	case has("reqs_sent"):
		lc.reqs += c["reqs_sent"]
		lc.retries += c["retries"]
		lc.timeouts += c["timeouts"]
	case s.Name == "dram":
		lc.dramReads += c["reads"]
		lc.dramWrites += c["writes"]
	case s.Name == "l1":
		lc.l1Hits += c["hits"]
		lc.l1Misses += c["misses"]
	case s.Name == "l2":
		lc.l2Hits += c["hits"]
		lc.l2Misses += c["misses"]
	case has("mshr_merges"):
		lc.mshrMerges += c["mshr_merges"]
		lc.writebacks += c["writebacks"]
	case has("snoops"):
		lc.snoops += c["snoops"]
		lc.readMisses += c["read_misses"]
		lc.forwards += c["forwards"]
	case has("reserves"):
		lc.reserves += c["reserves"]
		lc.queued += c["queued"]
	case has("quota_stalls"):
		lc.quotaStalls += c["quota_stalls"]
		lc.walStalls += c["wal_stalls"]
	}
	for _, ch := range s.Children {
		lc.add(ch)
	}
}

// profileLayers are the layers a CPU sample can be charged to, in
// report order: the simulator's modules, the benchmark itself, and the
// Go runtime's collector and scheduler.
var profileLayers = []string{
	"sim", "flit", "link", "fabric", "txn", "mem", "host", "coherence", "arbiter", "fabstore",
	"bench", "runtime.gc", "runtime.sched",
}

// chargeProfile splits the profile's CPU time by layer. A sample goes
// to the innermost frame that belongs to a layer, so runtime work done
// on a layer's behalf (allocation, write barriers, assists) counts for
// that layer. Samples with no such frame are the runtime's own: the
// collector's, or else the scheduler's.
func chargeProfile(samples []stackSample) map[string]int64 {
	ns := make(map[string]int64, len(profileLayers))
	for _, s := range samples {
		ns[layerOfStack(s.frames)] += s.cpuNs
	}
	return ns
}

func layerOfStack(frames []string) string {
	for _, f := range frames {
		if l := layerOfFunc(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		if isGC(f) {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// layerOfFunc maps a function to its layer by package, or "" when the
// function belongs to none (the runtime, the standard library, or a
// repository package outside the layer table — fault plans and the
// like, which are charged to their caller's layer).
func layerOfFunc(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "fcc."):
		return "sim" // Cluster.Run, which only drives the engines
	case !strings.HasPrefix(fn, "fcc/internal/"):
		return ""
	}
	pkg := fn[len("fcc/internal/"):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "sim", "flit", "fabric", "txn", "mem", "host", "coherence", "arbiter", "fabstore":
		return pkg
	case "link", "phys":
		return "link"
	}
	return ""
}

func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)",
		"runtime.(*mheap).reclaim", "runtime.(*sweepLocked)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
