package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"fcc"
	"fcc/internal/fabric"
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

// goldenCases lists every cluster shape the repo builds, then the runs
// whose snapshot bytes (with their committed counts) and text depend on
// those shapes.
func goldenCases() []goldenCase {
	fatTree := fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}
	dragonfly := ScaleScenarios()[1]
	pods := ShardScaleConfig()
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
		shape("ring-4-4shards", func() *fcc.Cluster { return shardCluster(ShardRingConfig(), 4) }),
		shape("pods-8x2-2shards", func() *fcc.Cluster { return shardCluster(ShardScaleConfig(), 2) }),
		shape("pods-8x2-8shards", func() *fcc.Cluster { return shardCluster(ShardScaleConfig(), 8) }),
		shapeOf("fattree-2shards", fcc.Config{Hosts: 448, FAMs: 64, FAMCapacity: 1 << 22, Topology: &fatTree, Shards: 2}),
		shape("dragonfly-8shards", func() *fcc.Cluster { return scaleCluster(dragonfly, dragonfly.Shards, false, false) }),

		{"shardrun-ring", func() string {
			raw, n := ShardRun(1, 1, ShardRingConfig())
			return digestOf(raw, n)
		}},
		{"shardrun-pods-faults", func() string {
			raw, n := ShardRun(1, 2, pods)
			return digestOf(raw, n)
		}},
		{"scalerun-fattree", func() string {
			raw, n, ev := ScaleRun(1, 1, ScaleScenarios()[0])
			return digestOf(raw, n, ev)
		}},
		{"scalestorm", func() string {
			r := ScaleStorm(7, ScaleStormConfig(), false)
			return digestOf(r.Raw, r.Repairs, r.Fulls, r.Unreachable, r.Events, r.Variant, r.Kills)
		}},
		{"blastradius", func() string {
			b, err := json.Marshal(BlastRadius(1))
			if err != nil {
				panic(err)
			}
			return digestOf(b)
		}},
		{"fabstore-equiv-faults", func() string {
			raw, n := FabStoreEquiv(1, 1, true)
			return digestOf(raw, n)
		}},
		{"figure1", func() string { return digestOf(Figure1()) }},
	}
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
	if c.Coord != nil {
		n := c.Coord.Shards()
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
// still wired by hand in fcc.New, at GOMAXPROCS 1 and 4.
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
