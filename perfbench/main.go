// Command perfbench is the repository benchmark. It runs one named workload
// through the public entry points of the solver, the streaming maintainer
// and tdbserve, checks that every answer is correct, and prints the metrics
// as one JSON object on the last line of standard output: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload solve-dense --seed 1 --seconds 20 --trace 0
//
// The workloads, metrics and the layer-to-metric map are described in
// perfbench/README.md; the metric names and units must match BENCHMARK.json,
// which the command checks before it measures anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workDirRoot holds the generated graph files, WAL directories and span
// files of a run, under the checkout's build directory.
const workDirRoot = ".bench_build/perfbench-work"

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// e2eMetrics are printed by every --trace 0 run, on every workload. The
// latency tails are not among them: on a shared 2-core machine their
// run-to-run spread was several times any usable regression bound, so
// they are reported, unbounded, by the traced run (tail.*).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_ms_p50", "ms"},
	{"solves_per_s", "1/s"},
	{"query_ms_p50", "ms"},
	{"update_ms_p50", "ms"},
	{"max_rate_rps", "1/s"},
	{"cover_size", "count"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// serverRoutes are the tdbserve routes the serve-mix generator exercises.
var serverRoutes = []string{"solve", "cycle", "hascycle", "cover", "update"}

// layerMetrics are printed by every --trace 1 run, on every workload. A
// layer a workload does not exercise reports 0 (the server and load
// generator layers on the static workloads).
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"digraph.load_ms", "ms"},
		{"digraph.view_build_ms", "ms"},
		{"digraph.induced_ms", "ms"},
		{"scc.condense_ms", "ms"},
		{"scc.nontrivial", "count"},
		{"scc.largest_frac", "frac"},
		{"cycle.queries", "count"},
		{"cycle.edge_scans", "count"},
		{"cycle.unblocks", "count"},
		{"cycle.hit_ratio", "frac"},
		{"cycle.batch_filter_ms", "ms"},
		{"cycle.batches", "count"},
		{"cycle.prune_ratio", "frac"},
		{"cycle.scalar_filter_ms", "ms"},
		{"core.solve_seq_ms", "ms"},
		{"core.solve_planned_ms", "ms"},
		{"core.plan_speedup", "x"},
		{"core.alloc_mb_per_solve", "MB"},
		{"core.gc_cpu_frac", "frac"},
		{"core.checked", "count"},
		{"core.filter_pruned", "count"},
		{"core.prepass_resolved", "count"},
		{"core.find_cycle_us", "us"},
		{"core.has_cycle_us", "us"},
		{"dynamic.apply_us_per_update", "us"},
		{"dynamic.compactions", "count"},
		{"dynamic.cover_adds", "count"},
		{"dynamic.publish_ms", "ms"},
		{"dynamic.epochs", "count"},
		{"wal.append_us_p50", "us"},
		{"wal.append_us_p99", "us"},
		{"wal.bytes_per_update", "B"},
		{"wal.checkpoint_ms", "ms"},
		{"wal.recover_ms", "ms"},
	}
	for _, r := range serverRoutes {
		defs = append(defs,
			metricDef{"server." + r + ".handle_ms_p50", "ms"},
			metricDef{"server." + r + ".handle_ms_p99", "ms"})
	}
	defs = append(defs,
		metricDef{"tail.solve_ms_p90", "ms"},
		metricDef{"tail.solve_ms_p99", "ms"},
		metricDef{"tail.query_ms_p99", "ms"},
		metricDef{"tail.update_ms_p99", "ms"},
		metricDef{"server.queue_ms_p99", "ms"},
		metricDef{"server.shed", "count"},
		metricDef{"server.deadlines", "count"},
		metricDef{"server.degraded", "count"},
		metricDef{"loadgen.lag_ms_p99", "ms"},
	)
	for _, l := range tracedLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "frac"})
}()

// runConfig is one invocation's flags.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string
}

// outcome is what a workload run hands back to main: its metrics by name
// plus the correctness tally.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// problems lists correctness failures; any entry makes the run
	// incorrect and the exit status non-zero.
	problems []string
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	correct, err := run(os.Args[1:])
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	case !correct:
		os.Exit(3)
	}
}

// run executes one invocation and reports whether every correctness check
// passed; an error means no result was printed.
func run(args []string) (bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: solve-dense, solve-split or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed: the same seed generates the same graph and request stream")
	seconds := fs.Float64("seconds", 20, "measurement time of the run")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	genPath := fs.String("gen-graph", "", "internal: generate --gen-dataset at --gen-scale with --seed into this file and exit")
	genDataset := fs.String("gen-dataset", "", "internal: dataset for --gen-graph")
	genScale := fs.Float64("gen-scale", 1, "internal: scale for --gen-graph")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *genPath != "" {
		return true, genGraph(*genPath, *genDataset, *genScale, *seed)
	}
	if *seconds <= 0 {
		return false, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("--trace must be 0 or 1")
	}
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return false, err
	}
	if err := os.MkdirAll(workDirRoot, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(workDirRoot, *workload+"-")
	if err != nil {
		return false, fmt.Errorf("creating work dir: %w", err)
	}
	defer os.RemoveAll(work)
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: work}

	var out *outcome
	switch *workload {
	case "solve-dense", "solve-split":
		out, err = runStatic(cfg, staticWorkloads[*workload])
	case "serve-mix":
		out, err = runServe(cfg)
	default:
		return false, fmt.Errorf("unknown --workload %q (want solve-dense, solve-split or serve-mix)", *workload)
	}
	if err != nil {
		return false, err
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	} else {
		out.metrics["peak_rss_mb"] = peakRSSMB()
		if out.attempted > 0 {
			out.metrics["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		}
	}
	res := jsonResult{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return false, fmt.Errorf("workload %s produced no value for metric %s", *workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("workload %s: metric %s is %v", *workload, d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	printTable(defs, out.metrics)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// checkBenchmarkJSON refuses to run when the metric names or units in the
// repository's BENCHMARK.json differ from the ones this command prints.
func checkBenchmarkJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(what string, have []struct{ Name, Unit string }, want []metricDef) error {
		if len(have) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, perfbench prints %d", path, len(have), what, len(want))
		}
		for i, h := range have {
			if h.Name != want[i].name || h.Unit != want[i].unit {
				return fmt.Errorf("%s %s metric %d is %s [%s], perfbench prints %s [%s]",
					path, what, i, h.Name, h.Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, e2eMetrics); err != nil {
		return err
	}
	return same("per_layer", spec.PerLayer, layerMetrics)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printTable(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

// spanFile is where a traced run writes its spans.
func spanFile(workload string) string {
	return filepath.Join(filepath.Dir(workDirRoot), "perfbench-spans-"+workload+".jsonl")
}
