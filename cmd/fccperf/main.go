// Command fccperf is the repository's end-to-end benchmark. It drives
// four workloads through the simulator's public API, reports what a
// user sees (host time, memory, and the model's simulated results) with
// tracing off, and splits separate traced repetitions by layer: CPU
// profile samples grouped by module, counters summed from the stats
// snapshot, and simulated-time spans around the benchmark's own calls.
// See README.md for the workloads, the metrics and how to compare two
// commits.
//
// One workload, measured for a fixed time (the last line of standard
// output is a JSON result):
//
//	bash cmd/fccperf/run.sh --workload oltp-hot --seed 1 --seconds 25 --trace 0
//
// Every workload, with fixed repetition counts, into one document:
//
//	bash cmd/fccperf/run.sh -seed 1 -o out.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// suiteTimed is how many repetitions with tracing off the suite makes
// of each workload: one of each stream.
const suiteTimed = streams

func main() {
	name := flag.String("workload", "", "run one workload for -seconds and print a JSON result line; empty runs every workload")
	seed := flag.Uint64("seed", 1, "seed of the benchmark's traffic generators")
	seconds := flag.Int("seconds", 25, "measurement time of a one-workload run")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer metrics instead of the end-to-end ones")
	out := flag.String("o", "", "write the all-workload document here")
	flag.Parse()

	// One P. Simulation processes are goroutines that hand the engine
	// back and forth; with two Ps every handoff crosses threads, which on
	// a 2-vCPU host cost oltp-hot 1.5x the wall time and 1.9x the CPU
	// time per operation, and doubled the run-to-run spread. The sharded
	// workload then runs its coordinator in the sequential mode, which is
	// byte-identical to the parallel one and here was faster: the second
	// P bought no wall time for 65% more CPU and twice the spread. The
	// coordinator picks its mode from GOMAXPROCS as the program starts,
	// so the environment must set it (run.sh does); setting it here
	// would leave the parallel mode spinning on one P.
	if n := runtime.GOMAXPROCS(0); n != 1 {
		fmt.Fprintf(os.Stderr, "fccperf: GOMAXPROCS is %d; run with GOMAXPROCS=1, as run.sh does\n", n)
		os.Exit(2)
	}

	if *name == "" {
		if err := suite(os.Stdout, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "fccperf:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be positive, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fccperf:", err)
		os.Exit(2)
	}
	ok, err := single(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fccperf:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// single measures one workload for about budget: a warm-up, then
// repetitions cycling over the seed's traffic streams, each after one
// set-up sample and one timing of the reference loop, until the budget
// is spent. With trace set, whole cycles of
// traced and untraced repetitions alternate, so the tracing overhead
// compares runs made under the same conditions on the same traffic. It
// prints every reported metric, then the result line, and reports
// whether every correctness check passed.
func single(stdout io.Writer, w *workload, seed uint64, budget time.Duration, trace bool) (bool, error) {
	b := &bench{w: w, seed: seed, scale: 1, calib: calibrationError()}
	if err := b.prepare(); err != nil {
		return false, err
	}
	start := time.Now()
	for n := 1; ; n++ {
		traced := trace && (n-1)/streams%2 == 0
		r, err := b.run((n-1)%streams, traced)
		if err != nil {
			return false, err
		}
		if traced {
			b.traced = append(b.traced, r)
		} else {
			b.timed = append(b.timed, r)
		}
		// Every stream runs at least twice (once each way when traced);
		// then stop when one more repetition of the average length would
		// overrun the budget.
		if n >= 2*streams && time.Since(start)*time.Duration(n+1)/time.Duration(n) > budget {
			break
		}
	}
	if err := b.crossCheck(); err != nil {
		return false, err
	}
	res, err := b.evaluate()
	if err != nil {
		return false, err
	}

	line := resultLine{Correct: len(res.Failures) == 0, Metrics: map[string]value{}}
	for _, r := range b.all() {
		line.Attempted += r.out.offered
		line.Failed += r.out.failed()
	}
	bw := bufio.NewWriter(stdout)
	o := b.warmup.out
	fmt.Fprintf(bw, "%s seed=%d setups=%d traced=%d timed=%d; stream 0: offered %d, committed %d, shed %d, typed failures %d, unaccounted %d, bad reads %d\n",
		w.name, seed, len(b.setups), len(b.traced), len(b.timed),
		o.offered, o.committed, o.shed, o.typed, o.unaccounted, o.bad)
	if trace {
		for _, m := range perLayer {
			v := res.Layers[m.Name]
			line.Metrics[m.Name] = value{v.Value, m.Unit}
			fmt.Fprintf(bw, "  %-32s %14.6g %s\n", m.Name, v.Value, m.Unit)
		}
		fmt.Fprintf(bw, "  ledger: %d samples, layers %.0f ns/op, CPU %.0f ns/op, residual %+.2f%%\n",
			res.Ledger.Samples, res.Ledger.LayerNsPerOp, res.Ledger.CPUNsPerOp, res.Ledger.ResidualPct)
	} else {
		for _, m := range endToEnd {
			s := res.EndToEnd[m.Name]
			line.Metrics[m.Name] = value{s.Median, m.Unit}
			fmt.Fprintf(bw, "  %-20s %14.6g %-10s q1 %.6g q3 %.6g n %d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		}
	}
	fmt.Fprintf(bw, "  reference loop: median %.2f ms over %d samples, against %.2f ms on the reference machine\n",
		res.ReferenceMs, len(b.setups), referenceNs/1e6)
	for _, f := range res.Failures {
		fmt.Fprintln(bw, "  FAILED:", f)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(bw, "%s\n", enc)
	return line.Correct, bw.Flush()
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a one-workload run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workloadResult is one workload's part of the all-workload document.
type workloadResult struct {
	Loop           string `json:"loop"`
	Size           string `json:"size"`
	Why            string `json:"why"`
	Offered        int64  `json:"offered_per_rep"`
	Committed      int64  `json:"committed_per_rep"`
	Failed         int64  `json:"failed_per_rep"`
	SnapshotSHA256 string `json:"snapshot_sha256"`
	// ReferenceMs is the reference loop's median wall time in this run;
	// every host time reported is already read against it (reference.go).
	ReferenceMs float64 `json:"reference_ms"`
	// SerialAllocsPerOp is allocs_per_op of the serial cross-check run,
	// beside the sharded one's (sharded workloads only).
	SerialAllocsPerOp float64            `json:"serial_allocs_per_op,omitempty"`
	EndToEnd          map[string]summary `json:"end_to_end"`
	Layers            map[string]value   `json:"per_layer,omitempty"`
	Ledger            *ledger            `json:"ledger,omitempty"`
	Failures          []string           `json:"failures,omitempty"`
}

func (b *bench) evaluate() (*workloadResult, error) {
	o := b.warmup.out
	res := &workloadResult{
		Loop: b.w.loop, Size: b.w.size, Why: b.w.why,
		Offered: o.offered, Committed: o.committed, Failed: o.failed(),
		SnapshotSHA256: o.sha,
		EndToEnd:       b.endToEndValues(),
	}
	var refs []float64
	for _, s := range b.setups {
		refs = append(refs, ms(s.ref.wall))
	}
	res.ReferenceMs = summarize(refs).Median
	if b.serial != nil {
		res.SerialAllocsPerOp = float64(b.serial.mallocs) / float64(b.serial.out.committed)
	}
	if len(b.traced) > 0 {
		vs, led, err := b.perLayerValues()
		if err != nil {
			return nil, err
		}
		res.Layers = map[string]value{}
		for _, m := range perLayer {
			res.Layers[m.Name] = value{vs[m.Name], m.Unit}
		}
		res.Ledger = &led
	}
	res.Failures = b.checks(res.Ledger)
	return res, nil
}

// document is the all-workload output.
type document struct {
	Schema     int                        `json:"schema"`
	Go         string                     `json:"go"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NProc      int                        `json:"nproc"`
	CPU        string                     `json:"cpu"`
	Seed       uint64                     `json:"seed"`
	Reps       map[string]int             `json:"reps"`
	Metrics    map[string][]metric        `json:"metrics"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// suite runs every workload: a warm-up and one traced repetition of
// each traffic stream per workload, then
// suiteTimed untraced repetitions interleaved round-robin across
// workloads, so drift in the machine hits every workload alike.
func suite(stdout io.Writer, seed uint64, path string) error {
	calib := calibrationError()
	bs := make([]*bench, len(workloads))
	for i, w := range workloads {
		b := &bench{w: w, seed: seed, scale: 1, calib: calib}
		if err := b.prepare(); err != nil {
			return err
		}
		for j := 0; j < streams; j++ {
			r, err := b.run(j, true)
			if err != nil {
				return err
			}
			b.traced = append(b.traced, r)
		}
		bs[i] = b
	}
	for n := 0; n < suiteTimed; n++ {
		for _, b := range bs {
			r, err := b.run(n%streams, false)
			if err != nil {
				return err
			}
			b.timed = append(b.timed, r)
		}
	}
	doc := &document{
		Schema: 1, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Seed: seed,
		Reps:      map[string]int{"warmup": 1, "traced": streams, "timed": suiteTimed, "streams": streams},
		Metrics:   map[string][]metric{"end_to_end": endToEnd, "per_layer": perLayer},
		Workloads: map[string]*workloadResult{},
	}
	var failures []string
	for _, b := range bs {
		if err := b.crossCheck(); err != nil {
			return err
		}
		res, err := b.evaluate()
		if err != nil {
			return err
		}
		doc.Workloads[b.w.name] = res
		for _, f := range res.Failures {
			failures = append(failures, b.w.name+": "+f)
		}
	}
	printTable(stdout, doc)
	if path != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("correctness checks failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// printTable prints every metric of every workload by name with its unit.
func printTable(stdout io.Writer, doc *document) {
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	fmt.Fprintf(bw, "%-32s %-7s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(bw, " %16s", w.name)
	}
	fmt.Fprintln(bw)
	for _, m := range endToEnd {
		fmt.Fprintf(bw, "%-32s %-7s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Fprintf(bw, " %16.6g", doc.Workloads[w.name].EndToEnd[m.Name].Median)
		}
		fmt.Fprintln(bw)
	}
	for _, m := range perLayer {
		fmt.Fprintf(bw, "%-32s %-7s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Fprintf(bw, " %16.6g", doc.Workloads[w.name].Layers[m.Name].Value)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "%-32s %-7s", "ledger residual", "%")
	for _, w := range workloads {
		fmt.Fprintf(bw, " %+16.2f", doc.Workloads[w.name].Ledger.ResidualPct)
	}
	fmt.Fprintln(bw)
}

// cpuModel names the host CPU for the record, when Linux says.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
