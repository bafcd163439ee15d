// Command perfbench is the repository benchmark: it runs one named workload
// against the robustconf system through its public entry points, checks the
// outputs, and prints the metrics BENCHMARK.json declares.
//
//	perfbench --workload kv-pipelined --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries every end-to-end metric; with --trace 1
// it carries every per-layer metric, measured in a separately set-up traced
// phase next to an untraced one (their throughput ratio is the tracing
// overhead). The last line of standard output is the result object; the
// lines before it are a human-readable report and a perfbench-meta line
// naming the host, the seed and the sample counts. The exit code is 0 only
// when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the program reads: the metric names and
// units it must print, so the declaration and the output cannot drift apart.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// env is what a workload receives: its seed and time budget, whether this is
// the traced run, and where it may write.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// outcome is what a workload returns.
type outcome struct {
	attempted int64
	failed    int64
	// checks lists every output-check failure; one fails the run.
	checks []string
	// values holds the measured metrics by name; samples holds the sample
	// count behind each timing.
	values  map[string]float64
	samples map[string]int
	// notes are free-form report lines (layer ledger, configuration).
	notes []string
	meta  map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}, meta: map[string]any{}}
}

// check records an output-check failure, keeping the first few messages.
func (o *outcome) check(format string, args ...any) {
	if len(o.checks) < 16 {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	} else if len(o.checks) == 16 {
		o.checks = append(o.checks, "further check failures suppressed")
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// describe puts a workload's configuration line ahead of the other notes.
func (o *outcome) describe(format string, args ...any) {
	o.notes = append([]string{fmt.Sprintf(format, args...)}, o.notes...)
}

var workloads = map[string]func(*env) (*outcome, error){
	"kv-pipelined": runKVPipelined,
	"kv-roundtrip": runKVRoundtrip,
	"kv-inproc":    runKVInproc,
	"txn-durable":  runTxnDurable,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	e := &env{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: ".bench_out"}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fatal(err)
	}
	meta, err := hostMeta(e)
	if err != nil {
		fatal(err)
	}
	out, err := run(e)
	if err != nil {
		fatal(err)
	}

	declared := sp.EndToEnd
	if e.trace {
		declared = sp.PerLayer
	}
	units := map[string]string{}
	for _, m := range declared {
		units[m.Name] = m.Unit
	}
	for n := range out.values {
		if _, ok := units[n]; !ok {
			fatal(fmt.Errorf("workload produced metric %q that BENCHMARK.json does not declare for --trace %d", n, *trace))
		}
	}
	res := result{Correct: len(out.checks) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Correct = false
		out.check("no operation was attempted")
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", e.workload, e.seed, e.seconds, *trace)
	for _, line := range out.notes {
		fmt.Println("  " + line)
	}
	var notMeasured []string
	for _, m := range declared {
		v, measured := out.values[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		if !measured {
			notMeasured = append(notMeasured, m.Name)
			continue
		}
		n := ""
		if c, ok := out.samples[m.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-36s %14.4f %s%s\n", m.Name, v, m.Unit, n)
	}
	if len(notMeasured) > 0 {
		fmt.Printf("  not applicable to %s (reported as 0): %s\n", e.workload, strings.Join(notMeasured, ", "))
	}
	for _, c := range out.checks {
		fmt.Println("  CHECK FAILED: " + c)
	}
	for k, v := range out.meta {
		meta[k] = v
	}
	meta["samples"] = out.samples
	metaLine, err := json.Marshal(meta)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench-meta %s\n", metaLine)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark declaration (run from the repository root): %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &sp, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
