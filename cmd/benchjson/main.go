// benchjson converts `go test -bench` text output (read on stdin) into
// the repository's machine-readable benchmark document, BENCH_<date>.json
// (see `make bench`). Future PRs regress-check their scheduler and flit
// path changes against the committed trajectory of events/sec, ns/op,
// and allocs/op.
//
// It never replaces a document: without -out it writes the first free
// name among BENCH_<date>.json, BENCH_<date>b.json, … BENCH_<date>z.json,
// and an -out that names an existing file is an error (exit 1).
//
// Input lines are echoed to stdout unchanged so the tool can sit at the
// end of a pipe without hiding progress.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	OpsPerSec  float64 `json:"ops_per_sec,omitempty"`
	BytesPerOp float64 `json:"bytes_per_op"`
	AllocsOp   float64 `json:"allocs_per_op"`
	// Cpus is the GOMAXPROCS the benchmark ran under, parsed from the
	// name's -N suffix (go test's -cpu encoding). Serial and parallel
	// results are not comparable, so the trajectory needs this recorded.
	Cpus int `json:"cpus,omitempty"`
	// Shards is the coordinator shard count, parsed from a "shards=N"
	// sub-benchmark component (see BenchmarkCoordinatorScaling).
	Shards int `json:"shards,omitempty"`
	// Metrics holds b.ReportMetric extras (events/sec, flits/sec, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type doc struct {
	Schema    int    `json:"schema"`
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	CPU       string `json:"cpu,omitempty"`
	// GoMaxProcs is the converting process's GOMAXPROCS — the default
	// every benchmark without an explicit -cpu flag ran under.
	GoMaxProcs int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

var (
	gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)
	shardsComponent  = regexp.MustCompile(`(?:^|/)shards=(\d+)(?:/|$)`)
)

func main() {
	out := flag.String("out", "", "output path, which must not exist (default: the first free BENCH_<date>[b-z].json)")
	flag.Parse()
	date := time.Now().Format("2006-01-02")
	path, err := docPath(".", *out, date)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	d := doc{
		Schema:     1,
		Date:       date,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "cpu: "):
			d.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line, pkg); ok {
				d.Benchmarks = append(d.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(d.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := writeNew(path, append(raw, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(d.Benchmarks), path)
}

// docPath picks the file the document goes to. An explicit out is used
// as given, unless it exists. Without one it is the first name in dir
// not yet taken among BENCH_<date>.json, BENCH_<date>b.json, …
// BENCH_<date>z.json: the order in which benchdiff, sorting the names,
// reads a day's documents as oldest first.
func docPath(dir, out, date string) (string, error) {
	if out != "" {
		_, err := os.Lstat(out)
		if err == nil {
			return "", fmt.Errorf("%s exists; benchjson never replaces a document", out)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		return out, nil
	}
	names := []string{"BENCH_" + date + ".json"}
	for c := 'b'; c <= 'z'; c++ {
		names = append(names, "BENCH_"+date+string(c)+".json")
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if _, err := os.Lstat(path); errors.Is(err, fs.ErrNotExist) {
			return path, nil
		}
	}
	return "", fmt.Errorf("BENCH_%s.json through BENCH_%sz.json all exist", date, date)
}

// writeNew writes raw to a file that must not exist yet, so a document
// that appeared since docPath looked is not replaced either.
func writeNew(path string, raw []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkEngineScheduleFire-8  60688436  19.44 ns/op  51428470 events/sec  0 B/op  0 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs.
func parseBenchLine(line, pkg string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{
		Name:       gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
		Package:    pkg,
		Iterations: iters,
	}
	if m := gomaxprocsSuffix.FindStringSubmatch(fields[0]); m != nil {
		r.Cpus, _ = strconv.Atoi(m[1])
	}
	if m := shardsComponent.FindStringSubmatch(r.Name); m != nil {
		r.Shards, _ = strconv.Atoi(m[1])
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
			if val > 0 {
				r.OpsPerSec = 1e9 / val
			}
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsOp = val
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	return r, true
}
