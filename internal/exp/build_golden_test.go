package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/link"
)

// The build digests pin every cluster shape the repo builds, and the
// outputs of the experiments that run on them, byte for byte. A change
// to how fcc.New wires a topology must leave every digest unchanged:
// the same switches and names, the same port numbers, link IDs and
// route tables, the same shard cuts and coordinator lookahead, and
// therefore the same snapshots.

// goldenCase is one digest: a cluster shape's wiring or an experiment's
// output.
type goldenCase struct {
	name   string
	digest func() string
}

func shape(name string, build func() *fcc.Cluster) goldenCase {
	return goldenCase{name, func() string { return shapeDigest(build()) }}
}

func shapeOf(name string, cfg fcc.Config) goldenCase {
	return shape(name, func() *fcc.Cluster {
		c, err := fcc.New(cfg)
		if err != nil {
			panic(err)
		}
		return c
	})
}

// Experiment runs that a shape test in exp_test.go and a digest both
// read, made once per test binary.
var (
	table2Run     = sync.OnceValue(Table2)
	mlpRun        = sync.OnceValue(ClaimMLP)
	contentionRun = sync.OnceValue(ClaimContention)
	interleaveRun = sync.OnceValue(ClaimInterleave)
	switchRun     = sync.OnceValue(ClaimSwitch)
	rttRun        = sync.OnceValue(ClaimRTT)
	etransRun     = sync.OnceValue(ETransAblation)
	idemRun       = sync.OnceValue(IdemAblation)
	cfcRun        = sync.OnceValue(CFCAblation)
	nodeTypesRun  = sync.OnceValue(NodeTypes)
)

// result is a digest of an experiment's result as fccbench -json
// exports it.
func result(name string, run func() any) goldenCase {
	return goldenCase{name, func() string {
		b, err := json.Marshal(run())
		if err != nil {
			panic(err)
		}
		return digestOf(b)
	}}
}

// scaleRun is a digest of ScaleRun's snapshot and committed count, and
// with events of its event count too.
func scaleRun(name string, shards int, cfg ScaleConfig, events bool) goldenCase {
	return goldenCase{name, func() string {
		raw, v, ev := ScaleRun(1, shards, cfg)
		if events {
			return digestOf(raw, v.Committed, ev)
		}
		return digestOf(raw, v.Committed)
	}}
}

// goldenCases lists every cluster shape the repo builds, then the runs
// whose snapshot bytes (with their committed counts) and text depend on
// those shapes, then fccbench's seed-1 results.
func goldenCases() []goldenCase {
	fatTree := fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}
	dragonfly := ScaleScenarios()[1]
	pods := ScalePodsConfig()
	pods.OpsPerHost = 60
	pods.Faults = true
	return []goldenCase{
		shapeOf("default", fcc.DefaultConfig()),
		shapeOf("line-2", fcc.Config{Hosts: 2, FAMs: 2, FAAs: 1, Switches: 2}),
		shapeOf("line-5", fcc.Config{Hosts: 6, FAMs: 5, FAAs: 2, Switches: 5}),
		shapeOf("line-5-spread", fcc.Config{Hosts: 6, FAMs: 5, FAAs: 2, Switches: 5, SpreadHosts: true}),
		shapeOf("ring-2", fcc.Config{Hosts: 4, FAMs: 2, Switches: 2, Ring: true, SpreadHosts: true}),
		shapeOf("ring-3", fcc.Config{Hosts: 6, FAMs: 3, Switches: 3, Ring: true, SpreadHosts: true}),
		shapeOf("ring-4", fcc.Config{Hosts: 8, FAMs: 4, FAAs: 1, Switches: 4, Ring: true, SpreadHosts: true}),
		shapeOf("ring-4-3shards", fcc.Config{Hosts: 8, FAMs: 4, Switches: 4, Ring: true, SpreadHosts: true, Shards: 3}),
		shape("ring-4-4shards", func() *fcc.Cluster { return ScaleBuild(ScaleRingConfig(), 4) }),
		shape("pods-8x2-2shards", func() *fcc.Cluster { return ScaleBuild(ScalePodsConfig(), 2) }),
		shape("pods-8x2-8shards", func() *fcc.Cluster { return ScaleBuild(ScalePodsConfig(), 8) }),
		shapeOf("fattree-2shards", fcc.Config{Hosts: 448, FAMs: 64, FAMCapacity: 1 << 22, Topology: &fatTree, Shards: 2}),
		shape("dragonfly-8shards", func() *fcc.Cluster { return ScaleBuild(dragonfly, dragonfly.Shards) }),

		scaleRun("shardrun-ring", 1, ScaleRingConfig(), false),
		scaleRun("shardrun-pods-faults", 2, pods, false),
		scaleRun("scalerun-fattree", 1, ScaleScenarios()[0], true),
		{"scalestorm", func() string {
			r := ScaleStorm(7, ScaleStormConfig(), false)
			return digestOf(r.Raw, r.Repairs, r.Fulls, r.Unreachable, r.Events, r.Variant, r.Kills)
		}},
		result("blastradius", func() any { return BlastRadius(1) }),
		{"fabstore-equiv-faults", func() string {
			raw, n := FabStoreEquiv(1, 1, true)
			return digestOf(raw, n)
		}},
		{"figure1", func() string { return digestOf(Figure1()) }},
		{"ring-4-trace-replay", traceReplayDigest},

		{"table1", func() string { return digestOf(Table1()) }},
		result("table2", func() any { return table2Run() }),
		result("claim-mlp", func() any { return mlpRun() }),
		result("claim-contention", func() any { return contentionRun() }),
		result("claim-interleave", func() any { return interleaveRun() }),
		result("claim-switch", func() any { return switchRun() }),
		result("claim-rtt", func() any { return rttRun() }),
		result("etrans", func() any { return etransRun() }),
		result("uheap", func() any { return UHeapAblation() }),
		result("idem", func() any { return idemRun() }),
		result("arbiter", func() any { return ArbiterAblation() }),
		result("cfc", func() any { return cfcRun() }),
		result("nodes", func() any { return nodeTypesRun() }),
		result("mimo-clean", func() any { return MIMOPipeline(8, false) }),
		result("mimo-failures", func() any { return MIMOPipeline(8, true) }),
		result("prefetch", func() any { return PrefetchSweep() }),
		result("fabstore-tables", func() any { return [][]FabStoreMixRow{FabStoreMixes(1, false), FabStoreMixes(1, true)} }),
		result("fabstore-recovery", func() any { return FabStoreRecovery(1) }),
		scaleRun("shardrun-pods", 1, ScalePodsConfig(), false),
		scaleRun("scalerun-dragonfly", 1, ScaleScenarios()[1], true),
		scaleRun("scalerun-fattree-64sw", 1, ScaleScenarios()[2], true),
	}
}

// traceReplayDigest runs three streams of reads and writes from every
// host to the FAM across a 4-switch ring whose links replay flits at a
// nonzero BER, with the flit tracer on and switch output queues small
// enough to hold packets. It hashes every kept trace record, the stats
// snapshot and the committed count: the switch-side records, and
// switches holding flits that the upstream replay buffer holds too,
// appear in no other digest.
func traceReplayDigest() string {
	c := traceReplayCluster()
	var streams []*tally
	for seed := uint64(1); seed <= 3; seed++ {
		streams = append(streams, hostStreams(c, seed, 40, scaleStream(c, 1), nil))
	}
	c.Run()
	committed := 0
	for _, t := range streams {
		committed += t.account(c).Committed
	}
	raw, err := c.Stats().Snapshot().MarshalJSONIndent()
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	for _, r := range c.Tracer.Records() {
		fmt.Fprintln(h, r.String())
	}
	h.Write(raw)
	fmt.Fprintf(h, "%d\n", committed)
	return hex.EncodeToString(h.Sum(nil))
}

// traceReplayCluster builds traceReplayDigest's cluster: a 4-switch
// ring of links retrying at BER 0.02, tracer on, 2-flit switch output
// queues.
func traceReplayCluster() *fcc.Cluster {
	c, err := fcc.New(fcc.Config{
		Hosts: 8, FAMs: 4, FAMCapacity: 1 << 22, Switches: 4, Ring: true, SpreadHosts: true,
		TraceFlits: 1 << 14,
		LinkConfig: func() link.Config {
			lc := link.DefaultConfig()
			lc.RetryEnabled = true
			lc.Phys.BER = 0.02
			return lc
		},
		SwitchConfig: func() fabric.SwitchConfig {
			sc := fabric.DefaultSwitchConfig()
			sc.OutQueueFlits = 2
			return sc
		},
	})
	if err != nil {
		panic(err)
	}
	return c
}

// shapeDigest hashes what a cluster's wiring decides: the rendered
// topology, every switch's route table, each link's ID with the shard
// domains of its two sides, and the coordinator's lookahead matrix.
func shapeDigest(c *fcc.Cluster) string {
	h := sha256.New()
	fmt.Fprint(h, c.Render(), c.Builder.RouteTableDump())
	for _, l := range c.Builder.ISLLinks() {
		da, db, _ := c.Builder.LinkSideDomains(l)
		fmt.Fprintf(h, "isl %s %d %d\n", l.FaultID(), da, db)
	}
	for _, att := range c.Builder.Attachments() {
		da, db, _ := c.Builder.LinkSideDomains(att.Link)
		fmt.Fprintf(h, "att %s %d %d\n", att.Link.FaultID(), da, db)
	}
	if n := c.Coord.Shards(); n > 1 {
		fmt.Fprintf(h, "window %d\n", c.Coord.Window())
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				fmt.Fprintf(h, "la %d %d %d\n", src, dst, c.Coord.Lookahead(src, dst))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf hashes byte slices as they are and anything else in its %v
// form, one line each.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		if b, ok := p.([]byte); ok {
			h.Write(b)
		} else {
			fmt.Fprintf(h, "%v\n", p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildGolden holds the digests, recorded while line, ring and pods were
// still wired by hand in fcc.New, at GOMAXPROCS 1 and 4; the
// ring-4-trace-replay digest was recorded while switches still decoded
// and re-encoded every packet they forwarded. The second block, from
// table1 on, was recorded while the rings and pods still had a config
// type of their own and every experiment wrote its own request loops.
var buildGolden = map[string]string{
	"default":               "a0a9cb735be584778a5a139c1861fe87981873f2c70b73e5b6497175c2916bce",
	"line-2":                "bff3a0a217576db86ec0c5339efaf75aeb5e8ee908c758c725586b048f6479f0",
	"line-5":                "799ef8b135b5a01ee648b9904c1c6114f5954de4c611b3cc385f705dd2e5427e",
	"line-5-spread":         "8239a4dbeb88890b66c0dbab176a4f7f7c3aa9a21b7d0c466dc6f59f89c5d9da",
	"ring-2":                "bb0eeb159bf72cc27a5cd70d5b11693a4061fff89f3c524eb1f0ce9c1dd87640",
	"ring-3":                "8a48f359d20907f0b2d0dd18f6ac2d414e08cda382cbdc90815335b2eee9ab04",
	"ring-4":                "3154e31f57ba0cd32434f8e4b3f658c3b0683a0ffdac14ea1d63f642a63149cd",
	"ring-4-3shards":        "e5149bf60c178705a1c8fe75b98ebcb251649ad8da87f46e99027292ad7ccc6b",
	"ring-4-4shards":        "f60646a71005c42136aff81f7b9d6ef1731d5a56283d41688cb90e7b19d31547",
	"pods-8x2-2shards":      "5f0567b46ff49602e36b858825656eb5e346a6c109ef72264793f39cc5b5096d",
	"pods-8x2-8shards":      "d1c0d6b8132430ef1f8d6d1b46f4363c3a22d78d04f7ea27d5af98dfc3d2702d",
	"fattree-2shards":       "2207c708c34664618b2b44cfd85232774255855830126b463b4275f9e8b54d85",
	"dragonfly-8shards":     "34c80e78ee7d0a137d1b99b937b3b76a9ab28e7ea19c1fb800b374bd3ba3787d",
	"shardrun-ring":         "5c41fe4f54615a90fc71a9f6f303a328a006e4e949fc3828f570869b7f940f9c",
	"shardrun-pods-faults":  "c727c8247ad32b47b812b7a894d6255d6d917c02d1cbba71bdedc528d6f9e590",
	"scalerun-fattree":      "e8eb1cac64bb34621c95c45969c8d41e9f2e4421faaaa930f0c57e8a7e873df4",
	"scalestorm":            "fbdacfe6077499423227af207bf13735eb3fa9f505306291ef37826065ecabf7",
	"blastradius":           "b10cf6a9d543dc6c6a5018f0d5b24c0faa61efcb29c0d2ab74c22c93a34d8a0e",
	"fabstore-equiv-faults": "c97de701ed8a9360d9fa832745550d7afc542256119ffa5c3661fc12425bf9d0",
	"figure1":               "1d86abc765b331a2c54bebfeec529f79f6dfbd251a7adf49fec9418431a827a6",
	"ring-4-trace-replay":   "0c68f364330859717475af706b89059fa683ad816537e8af56434ab137f7a168",

	"table1":                "6f8c7664cc1128f3396bea7462fc23e7d6e096d0d444dc34a641ef7a4098b2b0",
	"table2":                "9c9417dca93a51ccf5526bee452538b306dc04c5bc96ff78230967f25dda5fd2",
	"claim-mlp":             "b3135d904b0f1e73befcb6262213d90fca8083feb8b85e62cd504fd46f860dfe",
	"claim-contention":      "7b292d4166e7b3152735378e8cbe543dba9b90ad80baeb4349127901a0c5182d",
	"claim-interleave":      "867fc5fe8cf0aaf573a9f7c6e957dca6a8c0a49d6be57413df63d8126a946d83",
	"claim-switch":          "606de8c50770fa555211a148fbac59d3c8134b05d0189b90fd52a95c1307c0b3",
	"claim-rtt":             "710ece44266387a6d591f43104476d2ef2b051ea4aeb3d70358a8030328681f6",
	"etrans":                "1e56682859d45a738f8b780168c9cb4716812354805aeba0a0eb2577f37bb0d7",
	"uheap":                 "ca2d2eb05824932c3add03f42829be8b7435ad76b827bd3915c8d15bdab488c7",
	"idem":                  "2ebc845ed9cd710f9c805a817fa654d9013e46221f7710af3a825364310d0be1",
	"arbiter":               "a601f692f1d790a5eb1e529ddb68c4958547a5799953df0191b81c131d510692",
	"cfc":                   "27e116628bdbd8ad1ca0ecafc44d5d098cf0b1e9889ab36ee77268669a051974",
	"nodes":                 "1bb53523a1ef6d2c0f5f519dc728f6f12e817e8520b9043f98d579b9aa8fc972",
	"mimo-clean":            "ad439c5818e50d063102a7a531f5f007b257000b6c15f203526a84e00b50dfbe",
	"mimo-failures":         "e79565bdf1379d3c134de396f2b073d4c20ad0029288f87a763032caace5a4f5",
	"prefetch":              "9cae580b1c65bc6a4ddd6045b3b0f93fbef8ca47356fae6d4aa280620d1af3bb",
	"fabstore-tables":       "c24be2d1f86e9d0d9f77da317bec4b72317f1e02031f47affa978c014d09e66b",
	"fabstore-recovery":     "eab62e1b934d75efe09014bfef62c33944815d8a45c5d4a7d2619c18888b974c",
	"shardrun-pods":         "e56ee29fc68fce71eed7de3d0b8ab377ed85a8ac3efdba825b567d38dfd8e23d",
	"scalerun-dragonfly":    "2d4c14fd5ca0495743894970f69ae10be4ea2573b49174e4a94fb4910bc9fed1",
	"scalerun-fattree-64sw": "fc6da44faf7755b5fdadc472ad25bb2ea78336a5abc34a6faa52ee4eb6eb1397",
}

// TestBuildGolden checks every cluster shape and experiment output
// against its recorded digest.
func TestBuildGolden(t *testing.T) {
	check := func(name, got string) {
		t.Logf("%s %s", name, got)
		if want := buildGolden[name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
	for _, gc := range goldenCases() {
		check(gc.name, gc.digest())
	}
}

// TestRingShorthandBuildsChain checks that fcc.Config's ring shorthand
// (Switches, Ring, SpreadHosts) builds the same cluster as the chain of
// one-switch groups that ScaleRingConfig names: the same shapeDigest
// for rings of 3 to 6 switches on 1 to 3 shards, with FAAs attached and,
// on one shard, the arbiter too. cmd/fccperf's ring stays on the
// shorthand, so this is what keeps it the topology E9, E10 and E11 run.
func TestRingShorthandBuildsChain(t *testing.T) {
	build := func(cfg fcc.Config) string {
		c, err := fcc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return shapeDigest(c)
	}
	for n := 3; n <= 6; n++ {
		for shards := 1; shards <= 3; shards++ {
			base := fcc.Config{Hosts: 2 * n, FAMs: n, FAAs: 2, FAMCapacity: 1 << 22,
				Shards: shards, Arbiter: shards == 1}
			ring, chain := base, base
			ring.Switches, ring.Ring, ring.SpreadHosts = n, true, true
			chain.Topology = &fabric.TopoSpec{Kind: fabric.TopoChain, Groups: n, Pods: 1}
			if got, want := build(ring), build(chain); got != want {
				t.Errorf("%d switches, %d shards: the ring shorthand builds %s, the chain %s", n, shards, got, want)
			}
		}
	}
}
