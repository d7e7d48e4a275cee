package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	c := &Counter{}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Value = %d, want 42", c.Value())
	}
}

// near asserts approximate equality within the histogram's bucket error.
func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > math.Abs(want)*0.05 {
		t.Fatalf("%s = %v, want %v ±5%%", name, got, want)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	near(t, "p50", h.Quantile(0.5), 3)
	if h.Quantile(1.0) != 5 {
		t.Fatalf("p100 = %v, want exact max", h.Quantile(1.0))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.9) != 0 || h.Stddev() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	// Regression: answering a quantile must not corrupt later inserts.
	h := NewHistogram()
	h.Observe(10)
	h.Observe(1)
	_ = h.Quantile(0.5)
	h.Observe(5)
	near(t, "p50 after re-observe", h.Quantile(0.5), 5)
}

func TestHistogramBoundedMemory(t *testing.T) {
	// The histogram must not retain samples: a million observations over
	// six decades occupy only the log-scale buckets that exist in that
	// range, not a million slots.
	h := NewHistogram()
	r := NewRNG(1)
	for i := 0; i < 1_000_000; i++ {
		h.Observe(math.Exp(r.Float64()*14) * (1 + r.Float64()))
	}
	if h.Count() != 1_000_000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if b := h.Buckets(); b > 1000 {
		t.Fatalf("occupied buckets = %d; memory not bounded", b)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against the exact nearest-rank quantile of the same samples, the
	// bucketed answer must stay within 5% relative error — the bound the
	// Table 2 calibration workload relies on.
	r := NewRNG(42)
	h := NewHistogram()
	var vals []float64
	for i := 0; i < 20000; i++ {
		// Latency-shaped distribution: a fast mode plus a heavy tail.
		v := 100 + 50*r.Float64()
		if r.Intn(10) == 0 {
			v = 1000 + 9000*r.Float64()
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.Quantile(q)
		if math.Abs(got-exact) > exact*0.05 {
			t.Fatalf("q=%v: bucketed %v vs exact %v (>5%% off)", q, got, exact)
		}
	}
}

func TestHistogramNegativeAndZeroSamples(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{-100, -1, 0, 1, 100} {
		h.Observe(v)
	}
	if h.Min() != -100 || h.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("p50 = %v, want 0", got)
	}
	near(t, "p0-ish", h.Quantile(0.01), -100)
}

func TestHistogramIgnoresNonFinite(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(3)
	if h.Count() != 1 || h.Mean() != 3 {
		t.Fatalf("Count/Mean = %d/%v, want 1/3", h.Count(), h.Mean())
	}
}

func TestHistogramQuantileProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// Quantile(q) must be an element and lie within [min, max].
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			got := h.Quantile(q)
			if got < sorted[0] || got > sorted[len(sorted)-1] {
				return false
			}
		}
		return h.Max() == sorted[len(sorted)-1] && h.Min() == sorted[0]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsDumpTree(t *testing.T) {
	s := NewStats("cluster")
	s.Counter("packets").Add(7)
	sw := s.Child("switch0")
	sw.Histogram("latency_ns").Observe(100)
	out := s.Dump()
	for _, want := range []string{"cluster:", "packets = 7", "switch0:", "latency_ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestStatsSameNameReturnsSameMetric(t *testing.T) {
	s := NewStats("x")
	if s.Counter("a") != s.Counter("a") {
		t.Fatal("Counter not memoized")
	}
	if s.Histogram("h") != s.Histogram("h") {
		t.Fatal("Histogram not memoized")
	}
}

func TestStatsRegisterAttachesExternalMetrics(t *testing.T) {
	s := NewStats("port")
	var c Counter
	h := NewHistogram()
	s.Register("flits", &c)
	s.RegisterHistogram("lat", h)
	s.Gauge("credits", func() int64 { return 32 })
	c.Add(3)
	h.Observe(7)
	out := s.Dump()
	for _, want := range []string{"flits = 3", "credits = 32", "lat: n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if s.Counter("flits") != &c {
		t.Fatal("registered counter not returned by Counter()")
	}
}

func TestStatsDuplicateRegistrationPanics(t *testing.T) {
	s := NewStats("x")
	var a, b Counter
	s.Register("n", &a)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration accepted")
		}
	}()
	s.Register("n", &b)
}

// buildSnapshotFixture is the deterministic tree behind the golden test.
func buildSnapshotFixture() *Stats {
	root := NewStats("cluster")
	root.Counter("pkts_routed").Add(12)
	root.Gauge("endpoints", func() int64 { return 3 })
	port := root.Child("port0")
	port.Counter("flits_tx").Add(40)
	port.Counter("flits_rx").Add(40)
	lat := port.Histogram("queue_lat_ns")
	for i := 1; i <= 100; i++ {
		lat.Observe(float64(i * 10))
	}
	sw := root.Child("fs0")
	sw.Counter("hol_stalls") // registered but zero
	sw.Histogram("transit_ns").Observe(80)
	mgr := root.Child("manager")
	mgr.Counter("reroutes").Add(2)
	mgr.Counter("switches_failed").Add(1)
	mgr.Gauge("dead_switches", func() int64 { return 0 })
	mgr.Histogram("time_to_reroute_ns").Observe(5200)
	ft := root.Child("fault")
	ft.Counter("injected").Add(3)
	ft.Counter("healed").Add(3)
	ft.Counter("inject_errors")
	ft.Gauge("active", func() int64 { return 0 })
	fh := ft.Histogram("fault_active_ns")
	fh.Observe(20000)
	fh.Observe(50000)
	fh.Observe(80000)
	// v3: the FabStore subtree — per-client transaction accounting plus
	// the endpoint retry/timeout counters the zero-unaccounted audit
	// (issued == committed + typed errors) consumes.
	fs := root.Child("fabstore")
	cl := fs.Child("host0")
	cl.Counter("issued").Add(500)
	cl.Counter("committed").Add(498)
	cl.Counter("typed_errors").Add(2)
	cl.Counter("quota_stalls").Add(7)
	cl.Counter("retries").Add(3)
	cl.Counter("timeouts").Add(2)
	pl := cl.Histogram("put_lat_ns")
	for i := 1; i <= 1000; i++ {
		pl.Observe(float64(i))
	}
	return root
}

func TestSnapshotGoldenJSON(t *testing.T) {
	// The JSON export is an interface: BENCH_*.json trajectories and any
	// external tooling parse it. Byte-compare against the checked-in
	// golden for the current schema so accidental drift fails loudly.
	got, err := buildSnapshotFixture().Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", fmt.Sprintf("snapshot_v%d.golden.json", SnapshotSchemaVersion))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1 go test -run "+
			"TestSnapshotGoldenJSON after bumping SnapshotSchemaVersion): %v", err)
	}
	if strings.TrimSpace(string(got)) != strings.TrimSpace(string(want)) {
		t.Fatalf("snapshot JSON drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

func TestSnapshotRoundTrips(t *testing.T) {
	raw, err := buildSnapshotFixture().Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back StatsSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SnapshotSchemaVersion {
		t.Fatalf("schema = %d, want %d", back.Schema, SnapshotSchemaVersion)
	}
	if back.Counters["pkts_routed"] != 12 || back.Gauges["endpoints"] != 3 {
		t.Fatalf("root metrics lost: %+v", back)
	}
	if len(back.Children) != 5 || back.Children[0].Name != "port0" {
		t.Fatalf("children lost: %+v", back.Children)
	}
	ft := back.Children[3]
	if ft.Name != "fault" || ft.Counters["injected"] != 3 || ft.Histograms["fault_active_ns"].Count != 3 {
		t.Fatalf("fault subtree lost: %+v", ft)
	}
	if back.Children[2].Name != "manager" || back.Children[2].Counters["reroutes"] != 2 {
		t.Fatalf("manager subtree lost: %+v", back.Children[2])
	}
	h := back.Children[0].Histograms["queue_lat_ns"]
	if h.Count != 100 || h.Min != 10 || h.Max != 1000 {
		t.Fatalf("histogram summary wrong: %+v", h)
	}
	if _, ok := back.Children[1].Histograms["transit_ns"]; !ok {
		t.Fatal("switch histogram missing")
	}
	if _, ok := back.Children[1].Counters["hol_stalls"]; !ok {
		t.Fatal("zero counters must still be exported")
	}
	fs := back.Children[4]
	if fs.Name != "fabstore" || len(fs.Children) != 1 {
		t.Fatalf("fabstore subtree lost: %+v", fs)
	}
	cl := fs.Children[0]
	if cl.Counters["issued"] != 500 || cl.Counters["retries"] != 3 || cl.Counters["timeouts"] != 2 {
		t.Fatalf("fabstore client audit counters lost: %+v", cl)
	}
	if pl := cl.Histograms["put_lat_ns"]; pl.P999 < pl.P99 || pl.P999 > pl.Max || pl.P999 == 0 {
		t.Fatalf("p999 not exported sanely: %+v", pl)
	}
}

func TestHistogramMerge(t *testing.T) {
	// Merging per-shard histograms must equal observing the union
	// directly — that is what makes post-run tail aggregation legal.
	direct, a, b := NewHistogram(), NewHistogram(), NewHistogram()
	rng := NewRNG(99)
	for i := 0; i < 5000; i++ {
		v := rng.Float64()*1e6 - 1e3 // include negatives and ~0
		direct.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if a.Count() != direct.Count() || a.Min() != direct.Min() || a.Max() != direct.Max() {
		t.Fatalf("moments diverged: merged n=%d, direct n=%d", a.Count(), direct.Count())
	}
	// Sums accumulate in a different order, so allow float rounding.
	if d := math.Abs(a.Sum()-direct.Sum()) / math.Abs(direct.Sum()); d > 1e-12 {
		t.Fatalf("sum diverged beyond rounding: merged %g direct %g", a.Sum(), direct.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if a.Quantile(q) != direct.Quantile(q) {
			t.Fatalf("q=%g: merged %g != direct %g", q, a.Quantile(q), direct.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op; merging into empty copies.
	empty := NewHistogram()
	empty.Merge(direct)
	if empty.Count() != direct.Count() || empty.Quantile(0.999) != direct.Quantile(0.999) {
		t.Fatal("merge into empty lost samples")
	}
	before := direct.Count()
	direct.Merge(NewHistogram())
	if direct.Count() != before {
		t.Fatal("merging empty changed the receiver")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(54321)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(12345).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds look identical")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values", len(seen))
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGForkDecorrelated(t *testing.T) {
	r := NewRNG(1)
	a := r.Fork(1)
	b := r.Fork(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams correlated: %d identical of 64", same)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(42)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Rank 0 of Zipf(1.0, n=100) carries ~1/H_100 ≈ 19% of mass.
	frac := float64(counts[0]) / 50000
	if frac < 0.12 || frac > 0.28 {
		t.Fatalf("rank-0 mass = %.3f, want ≈0.19", frac)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRNG(3)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 1500 || c > 2500 {
			t.Fatalf("bucket %d = %d, want ≈2000", i, c)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	mean := sum / float64(n)
	if mean < 0.95 || mean > 1.05 {
		t.Fatalf("Exp mean = %v, want ≈1", mean)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	s := NewSemaphore(2)
	var grants []int
	for i := 0; i < 5; i++ {
		i := i
		s.Acquire(func() { grants = append(grants, i) })
	}
	if len(grants) != 2 {
		t.Fatalf("immediate grants = %v", grants)
	}
	s.Release()
	s.Release()
	s.Release() // third release grants the last waiter, then frees
	if len(grants) != 5 {
		t.Fatalf("grants after releases = %v", grants)
	}
	for i, g := range grants {
		if g != i {
			t.Fatalf("grant order = %v, want FIFO", grants)
		}
	}
}

func TestSemaphoreAccounting(t *testing.T) {
	s := NewSemaphore(3)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("TryAcquire failed with free slots")
	}
	if s.InUse() != 2 || s.Available() != 1 {
		t.Fatalf("InUse/Available = %d/%d", s.InUse(), s.Available())
	}
	s.Acquire(func() {})
	if s.TryAcquire() {
		t.Fatal("TryAcquire succeeded when full")
	}
	s.Acquire(func() {})
	if s.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1", s.QueueLen())
	}
}

func TestSemaphoreReleaseBelowZeroPanics(t *testing.T) {
	s := NewSemaphore(1)
	defer func() {
		if recover() == nil {
			t.Error("release below zero did not panic")
		}
	}()
	s.Release()
}

func TestSemaphoreProcBlocking(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(1)
	var order []string
	e.Go("a", func(p *Proc) {
		s.AcquireProc(p)
		order = append(order, "a-in")
		p.Sleep(100 * Nanosecond)
		s.Release()
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(Nanosecond) // ensure a wins the slot
		s.AcquireProc(p)
		order = append(order, "b-in@"+p.Now().String())
		s.Release()
	})
	e.Run()
	if len(order) != 2 || order[0] != "a-in" || order[1] != "b-in@100ns" {
		t.Fatalf("order = %v", order)
	}
}

// TestSemaphoreReentrantAcquireFIFO: a grant callback that re-enters
// Acquire queues behind every waiter already present, while the queue's
// ring wraps and grows, and QueueLen counts only live waiters.
func TestSemaphoreReentrantAcquireFIFO(t *testing.T) {
	const n = 40 // grows the ring to 64 slots; the re-entrant waiters wrap it
	s := NewSemaphore(1)
	s.Acquire(func() {})
	var grants []int
	var waiter func(i int) func()
	waiter = func(i int) func() {
		return func() {
			grants = append(grants, i)
			if i < n {
				s.Acquire(waiter(i + n))
			}
		}
	}
	for i := 0; i < n; i++ {
		s.Acquire(waiter(i))
	}
	for i := 0; i < 2*n; i++ {
		if got, want := s.QueueLen(), min(n, 2*n-i); got != want {
			t.Fatalf("before release %d: QueueLen = %d, want %d", i, got, want)
		}
		s.Release()
	}
	for i, g := range grants {
		if g != i {
			t.Fatalf("grant order = %v, want FIFO 0..%d", grants, 2*n-1)
		}
	}
	if len(grants) != 2*n || s.QueueLen() != 0 || s.InUse() != 1 {
		t.Fatalf("%d grants, QueueLen %d, InUse %d; want %d, 0, 1", len(grants), s.QueueLen(), s.InUse(), 2*n)
	}
	s.Release()
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after the last release, want 0", s.InUse())
	}
}

// TestSemaphoreSteadyStateZeroAlloc: with waiters always queued, an
// Acquire/Release cycle reuses the queue's backing array. A queue that
// slides its head by reslicing re-grows the array every few cycles.
func TestSemaphoreSteadyStateZeroAlloc(t *testing.T) {
	s := NewSemaphore(1)
	s.Acquire(func() {})
	granted := 0
	grant := func() { granted++ }
	for i := 0; i < 8; i++ {
		s.Acquire(grant)
	}
	cycles := func() {
		for i := 0; i < 64; i++ {
			s.Acquire(grant)
			s.Release()
		}
	}
	cycles() // warm to the steady-state array size
	if n := testing.AllocsPerRun(100, cycles); n != 0 {
		t.Fatalf("64 Acquire/Release cycles allocate %.1f times, want 0", n)
	}
	if s.QueueLen() != 8 || granted != 64*102 {
		t.Fatalf("QueueLen %d, %d grants; want 8, %d", s.QueueLen(), granted, 64*102)
	}
}

func TestPipeSerializes(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e)
	var ends []Time
	e.After(0, func() {
		ends = append(ends, p.Use(10*Nanosecond), p.Use(10*Nanosecond), p.Use(5*Nanosecond))
	})
	e.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 25 * Nanosecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestPipeIdleGap(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e)
	var end Time
	e.After(0, func() { p.Use(10 * Nanosecond) })
	e.At(100*Nanosecond, func() {
		end = p.Use(10 * Nanosecond)
	})
	e.Run()
	if end != 110*Nanosecond {
		t.Fatalf("second use completes at %v, want 110ns (no back-to-back across idle gap)", end)
	}
}

// TestHistogramQuantileEdges pins the tail-quantile behaviour on the
// degenerate shapes that show up in short experiment runs: empty,
// single-sample, and every-sample-in-one-bucket histograms, plus
// out-of-range and NaN q.
func TestHistogramQuantileEdges(t *testing.T) {
	empty := NewHistogram()
	for _, q := range []float64{0, 0.99, 0.999, 1, -3, 7, math.NaN()} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	single := NewHistogram()
	single.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := single.Quantile(q); got != 42 {
			t.Fatalf("single-sample Quantile(%v) = %v, want exactly 42", q, got)
		}
	}

	// All samples identical: one occupied bucket, and the [Min, Max]
	// clamp must make every quantile exact, not the bucket midpoint.
	flat := NewHistogram()
	for i := 0; i < 1000; i++ {
		flat.Observe(17)
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := flat.Quantile(q); got != 17 {
			t.Fatalf("one-bucket Quantile(%v) = %v, want exactly 17", q, got)
		}
	}

	// q <= 0 and q >= 1 return the exact envelope ends (not a bucket
	// midpoint); NaN q is defined (0), never the implementation-defined
	// int64(NaN) rank.
	two := NewHistogram()
	two.Observe(1)
	two.Observe(1000)
	for _, q := range []float64{-1, 0} {
		if got := two.Quantile(q); got != 1 {
			t.Fatalf("Quantile(%v) = %v, want exact Min", q, got)
		}
	}
	for _, q := range []float64{1, 2} {
		if got := two.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) = %v, want exact Max", q, got)
		}
	}
	if got := two.Quantile(math.NaN()); got != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", got)
	}

	// All-zero samples: the zeros fast path must serve the whole range.
	zeros := NewHistogram()
	for i := 0; i < 5; i++ {
		zeros.Observe(0)
	}
	for _, q := range []float64{0, 0.99, 0.999, 1} {
		if got := zeros.Quantile(q); got != 0 {
			t.Fatalf("all-zero Quantile(%v) = %v, want 0", q, got)
		}
	}
}
