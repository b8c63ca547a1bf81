// Command hadarbench is the repository benchmark. It takes a workload
// name and a seed, generates that workload's inputs itself, drives the
// Hadar scheduler through public APIs only, checks every output, and
// prints each metric by name and unit. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// wrapper around any layer. With --trace 1 the run repeats the timed
// work with every layer wrapped in spans and reports per-layer metrics;
// the spans are written to <scratch>/spans-<workload>.jsonl.
//
// The module sits in its own go.mod so the benchmark builds as its own
// package; run it from the repository root with
//
//	bash cmd/hadarbench/run.sh --workload paper-static --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(seed int64, seconds int, traced bool, scratch string, out *report){
	"paper-static": func(seed int64, seconds int, traced bool, _ string, out *report) {
		runBatch(paperStatic(seconds), seed, traced, out)
	},
	"warehouse-5k": func(seed int64, seconds int, traced bool, _ string, out *report) {
		runBatch(warehouse5k(seconds), seed, traced, out)
	},
	"serve-http": runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hadarbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper-static, warehouse-5k or serve-http")
	seed := fs.Int64("seed", 1, "seed from which the workload's inputs are generated")
	seconds := fs.Int("seconds", 25, "measurement length; sets the amount of timed work")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for the journal and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "hadarbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "hadarbench: %v\n", err)
		return 1
	}
	traced := *traceFlag == 1
	fp := fingerprint(*scratch)
	doc, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", doc)

	out := newReport()
	drive(*seed, *seconds, traced, *scratch, out)
	for _, l := range out.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}
	if out.spans != nil {
		path := filepath.Join(*scratch, "spans-"+*workload+".jsonl")
		if err := out.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "hadarbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}

	catalogue, values := endToEnd, out.e2eValues
	if traced {
		catalogue, values = perLayer, out.layerValues
	}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, name := range sortedKeys(out.layerValues) {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", name, out.layerValues[name], unitOf(name))
	}
	for _, m := range catalogue {
		v, ok := values[m.Name]
		switch {
		case !ok && traced:
			v = 0 // a layer this workload does not exercise
		case !ok:
			res.Correct = false
			fmt.Fprintf(stdout, "CHECK FAILED: %s not measured\n", m.Name)
			continue
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.Correct = false
			fmt.Fprintf(stdout, "CHECK FAILED: %s = %v\n", m.Name, v)
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hadarbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a workload run measured and checked.
type report struct {
	attempted, failed int
	failures          []string
	lines             []string
	e2eValues         map[string]float64
	layerValues       map[string]float64
	spans             *recorder
}

func newReport() *report {
	return &report{e2eValues: map[string]float64{}, layerValues: map[string]float64{}}
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) e2e(name string, v float64)   { r.e2eValues[name] = v }
func (r *report) layer(name string, v float64) { r.layerValues[name] = v }
