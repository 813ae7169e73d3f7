package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"tdb"
	"tdb/internal/digraph"
	"tdb/internal/dynamic"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

// minLen is the minimum covered cycle length of every workload (the
// paper's problem and tdbserve's default).
const minLen = 3

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// staticSpec is a static-solve workload: a generated stand-in of one of the
// paper's datasets, solved over and over by one closed-loop caller.
type staticSpec struct {
	dataset string
	scale   float64
	k       int
}

var staticWorkloads = map[string]staticSpec{
	// Wiki-Vote at its real size: one giant SCC, the planner picks the
	// TDB++ prepass; the work is in cycle's detector and batched filter
	// and in digraph.ActiveAdjacency.
	"solve-dense": {dataset: "WKV", scale: 1.0, k: 5},
	// Email-EuAll at 0.2: sparse (m < 2n, so the mask working graph) and a
	// split condensation, the planner picks scc-parallel; the work is in
	// digraph.Induced, allocation and the scalar filter. At 0.1 the p50
	// swung ±13% between repeats.
	"solve-split": {dataset: "EU", scale: 0.2, k: 6},
}

// writeGraph generates the named dataset's stand-in with the benchmark's
// seed and writes it where the program will load it from. A child process
// does the generating, so the generator's memory never counts toward the
// measuring process's peak RSS.
func writeGraph(dir, dataset string, scale float64, seed uint64) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, dataset+".bin")
	cmd := exec.Command(self, "--gen-graph", path, "--gen-dataset", dataset,
		"--gen-scale", strconv.FormatFloat(scale, 'g', -1, 64), "--seed", strconv.FormatUint(seed, 10))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("generating %s: %w", dataset, err)
	}
	return path, nil
}

// genGraph is the child side of writeGraph.
func genGraph(path, dataset string, scale float64, seed uint64) error {
	d, ok := gen.DatasetByName(dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %s", dataset)
	}
	n := int(float64(d.PaperV) * scale)
	m := int(float64(d.PaperE) * scale)
	if err := tdb.SaveGraph(path, gen.PowerLaw(n, m, d.Skew, d.Reciprocity, seed)); err != nil {
		return fmt.Errorf("writing graph: %w", err)
	}
	return nil
}

const (
	// solveWindows splits the solve loop; solve_ms_p50 and solves_per_s
	// are medians of the per-window values, so one stall of the shared
	// machine moves one window, not the run.
	solveWindows  = 4
	minSolves     = 5   // a window times at least this many solves
	replayBatches = 256 // update batches the traced replay applies
)

func runStatic(cfg runConfig, spec staticSpec) (*outcome, error) {
	path, err := writeGraph(cfg.workDir, spec.dataset, spec.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]float64)}
	ctx := context.Background()

	var (
		g      *tdb.Graph
		eng    *tdb.Engine
		first  *tdb.Result
		setups []float64
	)
	for range setupRepeats {
		start := time.Now()
		if g, err = tdb.LoadGraph(path); err != nil {
			return nil, err
		}
		eng = tdb.NewEngine(g)
		if first, err = eng.Solve(ctx, spec.k); err != nil {
			return nil, fmt.Errorf("first solve: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		runtime.GC() // drop the previous set-up's engine before the next
	}
	out.metrics["setup_s"] = median(setups)
	ref := first.Cover
	out.attempted++
	if ok, cyc := verify.IsValid(g, spec.k, minLen, ref); !ok {
		out.failed++
		out.fail("first cover misses cycle %v", cyc)
	} else if ok, v := verify.IsMinimal(g, spec.k, minLen, ref); !ok {
		out.failed++
		out.fail("first cover is not minimal: %d is redundant", v)
	}
	runtime.GC() // the checks' garbage is not the workload's footprint
	fmt.Printf("%s: %v, k=%d, strategy=%s workers=%d, cover=%d, setup=%.3fs\n",
		cfg.workload, g, spec.k, first.Stats.Strategy, first.Stats.Workers, len(ref), out.metrics["setup_s"])

	solve := func(tr *tracer, dur time.Duration) (lat []float64, perS float64) {
		start := time.Now()
		for time.Since(start) < dur || len(lat) < minSolves {
			id := tr.begin("core.Engine.Solve", -1, 0)
			t := time.Now()
			r, err := eng.Solve(ctx, spec.k)
			d := time.Since(t)
			tr.end(id)
			out.attempted++
			if err != nil || !slices.Equal(r.Cover, ref) {
				out.failed++
				out.fail("solve %d: error %v or cover differs from the first", len(lat), err)
			}
			lat = append(lat, ms(d))
		}
		return lat, float64(len(lat)) / time.Since(start).Seconds()
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// Half untraced, half traced: the difference of the two medians
		// is the tracing overhead. Then the per-layer replay.
		plain, _ := solve(nil, total/2)
		out.metrics["tail.solve_ms_p90"] = quantile(plain, 0.90)
		out.metrics["tail.solve_ms_p99"] = quantile(plain, 0.99)
		// A static caller's query and update are solves (see below).
		out.metrics["tail.query_ms_p99"] = out.metrics["tail.solve_ms_p99"]
		out.metrics["tail.update_ms_p99"] = out.metrics["tail.solve_ms_p99"]
		tr := newTracer()
		traced, _ := solve(tr, total/2)
		out.metrics["trace.overhead_frac"] = median(traced)/median(plain) - 1
		fmt.Printf("tracing overhead: solve p50 %.3f ms untraced, %.3f ms traced (%+.2f%%)\n",
			median(plain), median(traced), 100*out.metrics["trace.overhead_frac"])
		stream := newUpdateStream(g, cfg.seed)
		batches := make([][]dynamic.Update, replayBatches)
		for i := range batches {
			batches[i] = stream.next()
		}
		payloads := make([][]byte, len(batches))
		for i, b := range batches {
			payloads[i] = encodeBatch(g.NumVertices(), b)
		}
		lr := layerReplay{tr: tr, out: out, k: spec.k, seed: cfg.seed, workDir: cfg.workDir}
		lr.graphLayers(path, g)
		lr.solves(g, nil)
		lr.queries(eng.FindCycle, eng.HasHopConstrainedCycle, g.NumVertices())
		m := lr.updates(g, ref, batches)
		lr.wal(payloads, m)
		lr.finish()
		for _, name := range []string{"server.queue_ms_p99", "server.shed", "server.deadlines", "server.degraded", "loadgen.lag_ms_p99"} {
			out.metrics[name] = 0
		}
		for _, r := range serverRoutes {
			out.metrics["server."+r+".handle_ms_p50"] = 0
			out.metrics["server."+r+".handle_ms_p99"] = 0
		}
		tr.layerSelfMS(out.metrics)
		return out, tr.write(spanFile(cfg.workload))
	}

	windows := make([][]float64, solveWindows)
	rates := make([]float64, solveWindows)
	for i := range windows {
		windows[i], rates[i] = solve(nil, total/solveWindows)
	}
	medians := make([]float64, len(windows))
	for i, w := range windows {
		medians[i] = median(w)
	}
	out.metrics["solve_ms_p50"] = median(medians)
	out.metrics["solves_per_s"] = median(rates)
	// The static workloads' only request is the solve. A static engine
	// answers a query about its graph, and reflects a change to it, by
	// solving, so the query and update latencies are the solve's. One
	// closed-loop caller never builds a backlog: the highest rate it
	// sustains is the rate it completes solves at.
	out.metrics["query_ms_p50"] = out.metrics["solve_ms_p50"]
	out.metrics["update_ms_p50"] = out.metrics["solve_ms_p50"]
	out.metrics["max_rate_rps"] = median(rates)
	out.metrics["cover_size"] = float64(len(ref))
	fmt.Printf("solves: %d per window, p50 %.3f ms\n", len(windows[0]), out.metrics["solve_ms_p50"])
	return out, nil
}

// Update stream shape: each batch inserts updatePairs fresh pairs and
// deletes the pairs inserted updateWindow batches earlier, so the graph's
// size stays stationary over a run of any length.
const (
	updatePairs  = 8
	updateWindow = 16
)

// updateStream generates the seeded, stationary edge-update stream.
type updateStream struct {
	rng     *rand.Rand
	n       int
	base    *digraph.Graph
	live    map[[2]tdb.VID]bool
	history [][][2]tdb.VID
}

func newUpdateStream(base *digraph.Graph, seed uint64) *updateStream {
	return &updateStream{
		rng:  rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d)),
		n:    base.NumVertices(),
		base: base,
		live: make(map[[2]tdb.VID]bool),
	}
}

// next returns the following batch: deletes of the pairs inserted
// updateWindow batches ago, then inserts of fresh pairs (absent from the
// base graph and from the live inserted set).
func (s *updateStream) next() []dynamic.Update {
	ups := make([]dynamic.Update, 0, 2*updatePairs)
	if len(s.history) == updateWindow {
		for _, p := range s.history[0] {
			ups = append(ups, dynamic.DeleteOp(p[0], p[1]))
			delete(s.live, p)
		}
		s.history = s.history[1:]
	}
	pairs := make([][2]tdb.VID, 0, updatePairs)
	for len(pairs) < updatePairs {
		u, v := tdb.VID(s.rng.IntN(s.n)), tdb.VID(s.rng.IntN(s.n))
		p := [2]tdb.VID{u, v}
		if u == v || s.live[p] || s.base.HasEdge(u, v) {
			continue
		}
		s.live[p] = true
		pairs = append(pairs, p)
		ups = append(ups, dynamic.InsertOp(u, v))
	}
	s.history = append(s.history, pairs)
	return ups
}

// replayOnto rebuilds the graph that results from applying batches, in
// order, to base. It shares no code with the maintainer.
func replayOnto(base *digraph.Graph, batches [][]dynamic.Update) *digraph.Graph {
	edges := make(map[[2]tdb.VID]bool, base.NumEdges())
	for _, e := range base.Edges() {
		edges[[2]tdb.VID{e.U, e.V}] = true
	}
	for _, b := range batches {
		for _, up := range b {
			p := [2]tdb.VID{up.U, up.V}
			if up.Op == dynamic.OpInsert {
				edges[p] = true
			} else {
				delete(edges, p)
			}
		}
	}
	list := make([]tdb.Edge, 0, len(edges))
	for p := range edges {
		list = append(list, tdb.Edge{U: p[0], V: p[1]})
	}
	return tdb.FromEdges(base.NumVertices(), list)
}
