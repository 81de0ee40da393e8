// Command perfbench is the NetCL stack's benchmark: workloads that each
// load a different layer (simulator, data plane, control plane, host
// runtime), the end-to-end metrics a user of the stack sees, and a
// traced mode that attributes time to layers. It drives every layer
// only through its public functions and times each layer from outside,
// by wrapping its own calls into it.
//
// BENCHMARK.json lists the workloads steady enough to gate a change.
// dataplane-mix and udp-calc are not among them (README.md gives the
// measured spreads); they run on request and fill the layer metrics
// they own in every traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload agg-chain --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --compare OLD NEW
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full result (environment,
// every trial value, correctness checks) is written under --results.
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runCfg is what every workload receives.
type runCfg struct {
	seed   int64
	budget time.Duration // measuring time, set-up excluded
	tiny   bool          // test-sized inputs
	tr     *Tracer       // non-nil in a traced run
}

type workload struct {
	name string
	run  func(cfg runCfg) (*Report, error)
}

// workloads are every workload the program runs; BENCHMARK.json lists
// agg-chain and ctrl-storm.
var workloads = []workload{
	{"agg-chain", runAggChain},
	{"dataplane-mix", runDataplaneMix},
	{"ctrl-storm", runCtrlStorm},
	{"udp-calc", runUDPCalc},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported metric, its unit, and whether a higher
// value is better.
type metricSpec struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics of an untraced run, reported by every
// workload (README.md gives each one's reading per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", false},
	{"pkts_per_s", "1/s", true},
	{"pkts_per_s_serial", "1/s", true},
	{"heap_mb", "MB", false},
	{"sim_end_us", "us", false},
	{"ctrl_ops_per_s", "1/s", true},
	{"commit_p50_us", "us", false},
	{"commit_p99_us", "us", false},
	{"dp_p50_ns", "ns", false},
	{"dp_p99_ns", "ns", false},
	{"calls_per_s", "1/s", true},
	{"call_p50_us", "us", false},
	{"call_p99_us", "us", false},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, app := range compiledApps {
		out = append(out,
			metricSpec{"compile.frontend_ms." + app, "ms", false},
			metricSpec{"compile.backend_ms." + app, "ms", false})
	}
	for _, app := range dataplaneApps {
		out = append(out,
			metricSpec{"bmv2.ns_per_pkt." + app, "ns", false},
			metricSpec{"bmv2.parse_ns_per_pkt." + app, "ns", false})
	}
	return append(out,
		metricSpec{"bmv2.allocs_per_pkt", "count", false},
		metricSpec{"bmv2.write_exact_us", "us", false},
		metricSpec{"bmv2.write_lpm_us", "us", false},
		metricSpec{"bmv2.regfile_bytes", "bytes", false},
		metricSpec{"p4rt.wire_us", "us", false},
		metricSpec{"netsim.events", "count", false},
		metricSpec{"netsim.events_per_s", "1/s", true},
		metricSpec{"netsim.self_s", "s", false},
		metricSpec{"netsim.peak_queue", "count", false},
		metricSpec{"netsim.buffer_peak", "count", false},
		metricSpec{"netsim.allocs_per_event", "count", false},
		metricSpec{"netsim.allocs_per_event_k2", "count", false},
		metricSpec{"netsim.bytes_per_host", "bytes", false},
		metricSpec{"netsim.k2_speedup", "x", true},
		metricSpec{"runtime.pack_ns", "ns", false},
		metricSpec{"runtime.unpack_ns", "ns", false},
		metricSpec{"runtime.admit_ns", "ns", false},
		metricSpec{"runtime.device_ns", "ns", false},
		metricSpec{"runtime.retransmits", "count", false},
		metricSpec{"runtime.duplicates", "count", false},
		metricSpec{"gc.cycles", "count", false},
		metricSpec{"gc.pause_ms", "ms", false},
		metricSpec{"trace.pkts_per_s", "1/s", true},
		metricSpec{"trace.overhead_pct", "%", false},
	)
}()

// Result is the full record of one run, written as JSON.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       Env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []Check            `json:"checks"`
	Metrics   map[string]*Metric `json:"metrics"`
	Notes     map[string]any     `json:"notes,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: agg-chain, dataplane-mix, ctrl-storm or udp-calc")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measuring time in seconds (set-up excluded)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	results := flag.String("results", ".bench_build/results", "directory for result and span files")
	compare := flag.Bool("compare", false, "compare two result sets: --compare OLD NEW (files or directories)")
	bench := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds for --compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two result paths, got %d", flag.NArg())
		}
		if err := runCompare(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	res, tr, err := run(w, runCfg{seed: *seed, budget: time.Duration(*seconds) * time.Second}, *trace == 1)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res.Seconds = *seconds
	if err := writeResult(*results, res, tr); err != nil {
		fatalf("write results: %v", err)
	}
	if err := printSummary(os.Stdout, res); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes one workload. A traced run also runs every other
// workload at test size, so that layers the workload does not load
// still report (README.md, "Per-layer metrics").
func run(w *workload, cfg runCfg, traced bool) (*Result, *Tracer, error) {
	env := environment()
	if traced {
		cfg.tr = newTracer()
	}
	rep, err := w.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		for i := range workloads {
			o := &workloads[i]
			if o.name == w.name {
				continue
			}
			orep, err := o.run(runCfg{seed: cfg.seed, budget: 300 * time.Millisecond, tiny: true, tr: newTracer()})
			if err != nil {
				return nil, nil, fmt.Errorf("layer fill-in from %s: %w", o.name, err)
			}
			rep.merge(orep, o.name+":")
		}
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	metrics := map[string]*Metric{}
	for _, m := range want {
		got := rep.Metrics[m.name]
		if got == nil || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		got.Unit = m.unit
		got.Value = slowQuartile(got.Trials, m.higher)
		if m.name == "setup_s" {
			got.Value = median(got.Trials)
		}
		metrics[m.name] = got
	}
	return &Result{
		Workload: w.name, Seed: cfg.seed, Trace: traced, Env: env,
		Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Checks: rep.Checks, Metrics: metrics, Notes: rep.Notes,
	}, cfg.tr, nil
}

func writeResult(dir string, res *Result, tr *Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s_seed%d_trace%d", res.Workload, res.Seed, b2i(res.Trace))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.Write(filepath.Join(dir, base+".spans.jsonl"))
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printSummary prints the failed checks, the metric table, and last
// the one-line JSON verdict.
func printSummary(f *os.File, res *Result) error {
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(f, "FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s seed=%d trace=%v go=%s %s/%s procs=%d cpu=%q rev=%s\n",
		res.Workload, res.Seed, res.Trace, res.Env.GoVersion, res.Env.GOOS, res.Env.GOARCH,
		res.Env.GOMAXPROCS, res.Env.CPUModel, res.Env.Revision)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "  %-34s %14.4f %-6s (%d trials)\n", n, m.Value, m.Unit, len(m.Trials))
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]val{}}
	for n, m := range res.Metrics {
		out.Metrics[n] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, strings.TrimSpace(string(b)))
	return err
}
