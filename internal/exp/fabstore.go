package exp

import (
	"errors"
	"fmt"
	"strings"

	"fcc"
	"fcc/internal/fabstore"
	"fcc/internal/fabstore/workload"
	"fcc/internal/sim"
)

// E11: FabStore — the multi-tenant transactional KV store on shared
// fabric memory, driven by the deterministic open-loop generator. This
// file defines the macro-benchmark fccbench runs: throughput/tail
// tables for two tenant mixes (clean and under a fault plan), the
// crash-recovery demonstration, and the serial-vs-sharded equivalence
// run benchdiff tracks.

// FabStoreMixRow is one mix's measured outcome.
type FabStoreMixRow struct {
	Mix         string  `json:"mix"`
	Issued      int64   `json:"issued"`
	Committed   int64   `json:"committed"`
	TypedErrors int64   `json:"typed_errors"`
	Shed        int64   `json:"shed"`
	Retries     int64   `json:"retries"`
	Timeouts    int64   `json:"timeouts"`
	QuotaStalls int64   `json:"quota_stalls"`
	Unaccounted int64   `json:"unaccounted"`
	SimMs       float64 `json:"sim_ms"`
	TxnPerSec   float64 `json:"txn_per_sec"` // committed / simulated second
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	P999Us      float64 `json:"p999_us"`
}

// fabStoreMix pairs an operation blend with its tenant/key skew.
type fabStoreMix struct {
	mix        workload.Mix
	tenantSkew float64
	keySkew    float64
}

// fabStoreMixes are the two tenant populations of the E11 table: a
// skewed read-heavy OLTP class and a uniform write-heavy ingest class.
func fabStoreMixes() []fabStoreMix {
	return []fabStoreMix{
		{mix: workload.Mix{Name: "oltp-skewed", GetPct: 90, PutPct: 10},
			tenantSkew: 1.2, keySkew: 1.1},
		{mix: workload.Mix{Name: "ingest-uniform", GetPct: 30, PutPct: 60, ScanPct: 10, ScanRows: 16}},
	}
}

// fabStoreConfig is the store every E11 run uses. Hot keys are only
// declared when the cluster has a coherence directory to serve them.
func fabStoreConfig(services bool) fabstore.Config {
	cfg := fabstore.Config{
		Tenants:       8,
		KeysPerTenant: 1024,
		Quota:         16 << 10,
		IntentSlots:   4,
		// Off the 20µs lattice for the same tie-avoidance reason the
		// endpoint timeout is (see fabStoreCluster).
		RetryBackoff: 20*sim.Microsecond + 757,
	}
	if services {
		cfg.HotKeys = 16
	}
	return cfg
}

// fabStoreCluster builds E11's cluster on E10's ring: 8 hosts spread
// over 4 switches, one FAM shard per switch. services attaches the
// coherence directories and the central arbiter (forbidden on sharded
// clusters, so the equivalence runs go without and the table runs go
// with).
func fabStoreCluster(shards int, services bool) (*fcc.Cluster, *fabstore.Store) {
	cfg := ScaleRingConfig().Cluster
	cfg.Shards = shards
	cfg.Coherent, cfg.Arbiter = services, services
	c := newCluster(cfg)
	// Timeout deadlines get a per-host prime offset off the round 25µs so
	// a response can never land at exactly its request's deadline — the
	// timeout race is tie-SENSITIVE, and serial vs sharded runs may
	// legally order same-picosecond events differently (DESIGN.md, "Tie
	// discipline"). Off-lattice deadlines keep the race unexercised.
	for hi, h := range c.Hosts {
		h.Endpoint().Timeout = 25*sim.Microsecond + sim.Time(hi+1)*4241
	}
	st, err := c.NewFabStore(fabStoreConfig(services))
	if err != nil {
		panic(err)
	}
	return c, st
}

// fabStoreDrivers starts one generator per host. Each driver's stream
// is a function of (seed, host) alone.
func fabStoreDrivers(c *fcc.Cluster, st *fabstore.Store, seed uint64, arrivals int, fm fabStoreMix) []*workload.Driver {
	drivers := make([]*workload.Driver, len(c.Hosts))
	for hi := range c.Hosts {
		d, err := workload.NewDriver(st.Client(hi), workload.Config{
			Seed:       seed ^ (uint64(hi)+1)*0x9e3779b97f4a7c15,
			Arrivals:   arrivals,
			Warmup:     arrivals / 5,
			Rate:       2e6,
			TenantSkew: fm.tenantSkew,
			KeySkew:    fm.keySkew,
			Mix:        fm.mix,
		})
		if err != nil {
			panic(err)
		}
		d.Start()
		drivers[hi] = d
	}
	return drivers
}

// FabStoreMixes runs the E11 throughput/tail table: every mix on a
// fresh full-service cluster, optionally under the fault plan. Tail
// quantiles come from the per-host histograms merged after the run.
func FabStoreMixes(seed uint64, faults bool) []FabStoreMixRow {
	var rows []FabStoreMixRow
	for _, fm := range fabStoreMixes() {
		c, st := fabStoreCluster(1, true)
		if faults {
			if err := c.SchedulePlan(chainPlan(4)); err != nil {
				panic(err)
			}
		}
		drivers := fabStoreDrivers(c, st, seed, 1500, fm)
		c.Run()

		row := FabStoreMixRow{Mix: fm.mix.Name}
		lat := sim.NewHistogram()
		for hi, d := range drivers {
			row.Issued += d.Issued.Value()
			row.Committed += d.Committed.Value()
			row.TypedErrors += d.TypedErrors.Value()
			row.Shed += d.Shed.Value()
			row.QuotaStalls += st.Client(hi).QuotaStalls.Value()
			row.Unaccounted += d.Unaccounted()
			lat.Merge(d.Lat)
		}
		for _, h := range c.Hosts {
			row.Retries += h.Endpoint().Retries.Value()
			row.Timeouts += h.Endpoint().Timeouts.Value()
		}
		simSec := c.Eng.Now().Seconds()
		row.SimMs = simSec * 1e3
		if simSec > 0 {
			row.TxnPerSec = float64(row.Committed) / simSec
		}
		row.P50Us = lat.Quantile(0.50) / 1e3
		row.P99Us = lat.Quantile(0.99) / 1e3
		row.P999Us = lat.Quantile(0.999) / 1e3
		rows = append(rows, row)
	}
	return rows
}

// RenderFabStoreMixes renders one E11 table.
func RenderFabStoreMixes(rows []FabStoreMixRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s | %10s | %7s | %7s | %7s | %9s | %7s | %s\n",
		"mix", "txn/s", "p50 us", "p99 us", "p999 us", "typed err", "retries", "unaccounted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s | %10.0f | %7.2f | %7.2f | %7.2f | %9d | %7d | %d\n",
			r.Mix, r.TxnPerSec, r.P50Us, r.P99Us, r.P999Us, r.TypedErrors, r.Retries, r.Unaccounted)
	}
	return b.String()
}

// FabStoreRecoveryResult is the crash-recovery demonstration: a host
// crashes mid-stream, a survivor sweeps its write-ahead intent records
// and replays them as idempotent tasks, and every replayed row is
// verified against the value the intent carried.
type FabStoreRecoveryResult struct {
	AbandonedPuts int64 `json:"abandoned_puts"`
	Pending       int   `json:"pending_intents"`
	Replayed      int   `json:"replayed"`
	Verified      bool  `json:"verified"`
}

// FabStoreRecovery runs the E11 recovery check.
func FabStoreRecovery(seed uint64) FabStoreRecoveryResult {
	c, err := fcc.New(fcc.Config{Hosts: 2, FAMs: 2, FAMCapacity: 1 << 22})
	if err != nil {
		panic(err)
	}
	st, err := c.NewFabStore(fabstore.Config{Tenants: 2, KeysPerTenant: 256, IntentSlots: 4})
	if err != nil {
		panic(err)
	}
	cl0 := st.Client(0)
	rng := sim.NewRNG(seed)
	c.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			val := make([]byte, 64)
			key := uint64(rng.Intn(256))
			fabstore.FillValue(val, i%2, key, uint64(i))
			if err := cl0.PutP(p, i%2, key, val); errors.Is(err, fabstore.ErrCrashed) {
				return
			}
		}
	})
	c.Eng.After(30*sim.Microsecond, func() { cl0.Crash() })
	c.Run()

	var r FabStoreRecoveryResult
	r.AbandonedPuts = cl0.AbandonedPuts.Value()

	// Pre-recovery: count pending intents straight from backing DRAM and
	// remember the value each record carries.
	type pending struct {
		tenant int
		key    uint64
		val    []byte
	}
	var before []pending
	recSize := intentRecordSize(st)
	for si, sh := range st.Shards() {
		store := c.FAMs[si].DRAM().Store()
		for slot := 0; slot < st.Config().IntentSlots; slot++ {
			addr := sh.IntentBase + uint64(slot)*recSize
			if store.Read64(addr) != 1 {
				continue
			}
			rec := make([]byte, recSize)
			store.Read(addr, rec)
			before = append(before, pending{
				tenant: int(store.Read64(addr + 8)),
				key:    store.Read64(addr + 16),
				val:    append([]byte(nil), rec[64:]...),
			})
		}
	}
	r.Pending = len(before)

	rec := fabstore.NewRecovery(st, c.Hosts[1], seed+1)
	c.Go("recover", func(p *sim.Proc) {
		replays, err := rec.RecoverP(p, 0)
		if err != nil {
			panic(err)
		}
		r.Replayed = len(replays)
		cl1 := st.Client(1)
		ok := true
		for _, pd := range before {
			got, gerr := cl1.GetP(p, pd.tenant, pd.key)
			if gerr != nil || string(got) != string(pd.val) {
				ok = false
			}
		}
		r.Verified = ok && r.Replayed == r.Pending
	})
	c.Run()
	return r
}

// intentRecordSize recomputes the WAL record stride from the public
// config (header line + value).
func intentRecordSize(st *fabstore.Store) uint64 {
	return 64 + st.Config().SlotSize
}

// FabStoreEquiv executes the equivalence workload — the raw store path,
// no centralized services — at the given shard count and returns the
// marshalled fabric-wide snapshot (with the fabstore and per-driver
// subtrees) plus total committed transactions. Byte-identical output
// across shard counts is the determinism witness fccbench checks.
func FabStoreEquiv(seed uint64, shards int, faults bool) (raw []byte, committed int64) {
	c, st := fabStoreCluster(shards, false)
	if faults {
		if err := c.SchedulePlan(chainPlan(4)); err != nil {
			panic(err)
		}
	}
	fm := fabStoreMixes()[0] // skewed OLTP blend exercises gets and puts
	drivers := fabStoreDrivers(c, st, seed, 400, fm)

	root := c.Stats()
	fs := root.Child("fabstore")
	st.RegisterStats(fs)
	for hi, d := range drivers {
		d.RegisterStats(fs.Child(c.Hosts[hi].Name() + "/wl"))
	}
	c.Run()

	for _, d := range drivers {
		committed += d.Committed.Value()
		if got := d.Unaccounted(); got != 0 {
			panic(fmt.Sprintf("exp: fabstore equivalence run leaked %d unaccounted transactions", got))
		}
	}
	raw, err := root.Snapshot().MarshalJSONIndent()
	if err != nil {
		panic(err)
	}
	return raw, committed
}
