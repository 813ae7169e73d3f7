package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"tdb"
	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/dynamic"
	"tdb/internal/scc"
	"tdb/internal/wal"
)

// Replay sizes of the traced run. Each layer is timed over enough calls to
// take a median; the counts are fixed so every seed replays the same work.
const (
	layerRepeats   = 3   // medians of load, view build, Induced, filters, checkpoint, recover
	solveRepeats   = 3   // pinned-sequential and planned solves each
	findCycleCalls = 200 // Engine.FindCycle sources
	hasCycleCalls  = 20  // Engine.HasHopConstrainedCycle calls
	walMinAppends  = 512 // appends the WAL replay makes at least
	publishEvery   = 512 // tdbserve's default epoch cadence, in updates
	walRecordHead  = 12  // tdbserve WAL record: grow_to u64, count u32
	walRecordOp    = 9   // then per update: op u8, u u32, v u32
	walFrameBytes  = 16  // wal record framing: length, sequence, CRC
)

// layerReplay replays a workload's inputs through each layer's public
// functions, timing every call inside a span under one replay root.
type layerReplay struct {
	tr      *tracer
	out     *outcome
	k       int
	seed    uint64
	workDir string
	root    int32 // replay root span; valid once hasRoot is set
	hasRoot bool
}

func (lr *layerReplay) set(name string, v float64) { lr.out.metrics[name] = v }

func (lr *layerReplay) rootSpan() int32 {
	if !lr.hasRoot {
		lr.root, lr.hasRoot = lr.tr.begin("replay", -1, 0), true
	}
	return lr.root
}

// medianMS runs fn reps times, each inside a span, and returns the median.
func (lr *layerReplay) medianMS(name string, reps int, fn func()) float64 {
	var xs []float64
	for range reps {
		xs = append(xs, ms(lr.tr.around(name, lr.rootSpan(), fn)))
	}
	return median(xs)
}

// graphLayers times loading, working-graph construction, SCC condensation,
// per-SCC induced subgraphs and both BFS filters over the workload graph.
func (lr *layerReplay) graphLayers(path string, g *digraph.Graph) {
	n := g.NumVertices()
	lr.set("digraph.load_ms", lr.medianMS("digraph.load", layerRepeats, func() {
		if _, err := tdb.LoadGraph(path); err != nil {
			lr.out.fail("reload %s: %v", path, err)
		}
	}))
	lr.set("digraph.view_build_ms", lr.medianMS("digraph.view_build", layerRepeats, func() {
		digraph.NewActiveAdjacency(g, true)
	}))
	var comps *scc.Result
	lr.set("scc.condense_ms", lr.medianMS("scc.condense", layerRepeats, func() {
		comps = scc.Compute(g)
	}))
	members := make(map[int32][]tdb.VID)
	largest := int32(0)
	for v, c := range comps.Comp {
		if comps.Size[c] >= 2 {
			members[c] = append(members[c], tdb.VID(v))
			largest = max(largest, comps.Size[c])
		}
	}
	lr.set("scc.nontrivial", float64(len(members)))
	lr.set("scc.largest_frac", float64(largest)/float64(n))
	keep := make([]bool, n)
	lr.set("digraph.induced_ms", lr.medianMS("digraph.induced", layerRepeats, func() {
		for _, verts := range members {
			for _, v := range verts {
				keep[v] = true
			}
			digraph.Induced(g, keep)
			for _, v := range verts {
				keep[v] = false
			}
		}
	}))

	var bstats cycle.Stats
	lr.set("cycle.batch_filter_ms", lr.medianMS("cycle.batch_filter", layerRepeats, func() {
		f := cycle.NewBatchBFSFilter(g, lr.k, nil)
		f.VisitUnpruned(n, func(tdb.VID) bool { return true })
		bstats = f.Stats
	}))
	lr.set("cycle.batches", float64(bstats.Batches))
	lr.set("cycle.prune_ratio", ratio(bstats.BFSPruned, bstats.Queries))
	lr.set("cycle.scalar_filter_ms", lr.medianMS("cycle.scalar_filter", layerRepeats, func() {
		f := cycle.NewBFSFilter(g, lr.k, nil)
		for v := range n {
			f.CanPrune(tdb.VID(v))
		}
	}))
}

// solves times the workload's solve pinned sequential and as planned
// (planned = the workload's own options), with allocation and GC share
// over the planned solves and the planned run's counters.
func (lr *layerReplay) solves(g *digraph.Graph, planned []tdb.Option) {
	eng := tdb.NewEngine(g)
	ctx := context.Background()
	run := func(name string, opts []tdb.Option) (*tdb.Result, float64) {
		var res *tdb.Result
		t := lr.medianMS(name, solveRepeats, func() {
			r, err := eng.Solve(ctx, lr.k, opts...)
			if err != nil {
				lr.out.fail("%s: %v", name, err)
				return
			}
			res = r
		})
		return res, t
	}
	_, seqMS := run("core.solve_seq", append(append([]tdb.Option(nil), planned...), tdb.WithStrategy(tdb.StrategySequential)))

	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	metrics.Read(samples)
	gc0, cpu0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	res, plannedMS := run("core.solve_planned", planned)
	runtime.ReadMemStats(&ms1)
	metrics.Read(samples)
	gc1, cpu1 := samples[0].Value.Float64(), samples[1].Value.Float64()
	if res == nil {
		return
	}
	lr.set("core.solve_seq_ms", seqMS)
	lr.set("core.solve_planned_ms", plannedMS)
	lr.set("core.plan_speedup", seqMS/plannedMS)
	lr.set("core.alloc_mb_per_solve", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/solveRepeats)
	// The runtime refreshes its CPU-class estimates at GC cycles, so a
	// window without one can read 0/0.
	gcFrac := 0.0
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	lr.set("core.gc_cpu_frac", gcFrac)
	st := res.Stats
	lr.set("core.checked", float64(st.Checked))
	lr.set("core.filter_pruned", float64(st.FilterPruned))
	lr.set("core.prepass_resolved", float64(st.PrepassResolved))
	d := st.Detector
	lr.set("cycle.queries", float64(d.Queries))
	lr.set("cycle.edge_scans", float64(d.EdgeScans))
	lr.set("cycle.unblocks", float64(d.Unblocks))
	lr.set("cycle.hit_ratio", ratio(d.CyclesFound, d.Queries))
	fmt.Printf("replay: planned strategy=%s workers=%d (%.3f ms), sequential %.3f ms\n",
		st.Strategy, st.Workers, plannedMS, seqMS)
}

// queries times the engine's read-only queries: FindCycle through seeded
// random sources and HasHopConstrainedCycle.
func (lr *layerReplay) queries(findCycle func(k int, s tdb.VID) []tdb.VID, hasCycle func(k int) bool, n int) {
	rng := rand.New(rand.NewPCG(lr.seed, 7))
	sp := lr.tr.begin("core.find_cycle", lr.rootSpan(), 0)
	t := time.Now()
	for range findCycleCalls {
		findCycle(lr.k, tdb.VID(rng.IntN(n)))
	}
	lr.set("core.find_cycle_us", us(time.Since(t))/findCycleCalls)
	lr.tr.end(sp)
	sp = lr.tr.begin("core.has_cycle", lr.rootSpan(), 0)
	t = time.Now()
	for range hasCycleCalls {
		hasCycle(lr.k)
	}
	lr.set("core.has_cycle_us", us(time.Since(t))/hasCycleCalls)
	lr.tr.end(sp)
}

// updates replays batches, in order, through a maintainer seeded with
// (base, cover), publishing an epoch every publishEvery updates the way
// tdbserve's writer does. It returns the maintainer.
func (lr *layerReplay) updates(base digraph.Adjacency, cover []tdb.VID, batches [][]dynamic.Update) *dynamic.Maintainer {
	m, err := dynamic.FromGraph(base, lr.k, minLen, cover)
	if err != nil {
		lr.out.fail("maintainer for replay: %v", err)
		return dynamic.New(base.NumVertices(), lr.k, minLen)
	}
	ring := dynamic.NewEpochRing()
	var (
		apply    time.Duration
		updates  int
		since    int
		publishD []float64
	)
	payload := func(g digraph.Adjacency, _ []tdb.VID) any { return tdb.NewStorageEngine(g) }
	publish := func() {
		d := lr.tr.around("dynamic.publish", lr.rootSpan(), func() {
			m.PublishSnapshot(ring, payload) // the ring keeps the new epoch's reference
		})
		publishD = append(publishD, ms(d))
		since = 0
	}
	publish()
	for _, b := range batches {
		apply += lr.tr.around("dynamic.apply", lr.rootSpan(), func() {
			if _, err := m.ApplyBatchChecked(b); err != nil {
				lr.out.fail("replayed batch: %v", err)
			}
		})
		updates += len(b)
		since += len(b)
		if since >= publishEvery {
			publish()
		}
	}
	_, _, _, adds := m.Stats()
	lr.set("dynamic.apply_us_per_update", us(apply)/float64(max(updates, 1)))
	lr.set("dynamic.compactions", float64(m.Compactions()))
	lr.set("dynamic.cover_adds", float64(adds))
	lr.set("dynamic.publish_ms", median(publishD))
	lr.set("dynamic.epochs", float64(len(publishD)))
	return m
}

// wal appends payloads (cycling through them until walMinAppends) to a
// fresh fsync=always log, then times a checkpoint of m's state and a
// recovery of the directory.
func (lr *layerReplay) wal(payloads [][]byte, m *dynamic.Maintainer) {
	dir := filepath.Join(lr.workDir, "wal-replay")
	defer os.RemoveAll(dir)
	l, err := wal.Create(dir, 1, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		lr.out.fail("wal replay: %v", err)
		return
	}
	var (
		lat           []float64
		bytesN, updsN int
	)
	for i := 0; len(payloads) > 0 && i < max(walMinAppends, len(payloads)); i++ {
		p := payloads[i%len(payloads)]
		d := lr.tr.around("wal.append", lr.rootSpan(), func() {
			if _, err := l.Append(p); err != nil {
				lr.out.fail("wal append: %v", err)
			}
		})
		lat = append(lat, us(d))
		bytesN += len(p) + walFrameBytes
		if len(p) >= walRecordHead {
			updsN += int(binary.LittleEndian.Uint32(p[8:12]))
		}
	}
	if err := l.Close(); err != nil {
		lr.out.fail("wal close: %v", err)
	}
	lr.set("wal.append_us_p50", median(lat))
	lr.set("wal.append_us_p99", quantile(lat, 0.99))
	lr.set("wal.bytes_per_update", float64(bytesN)/float64(max(updsN, 1)))

	var state bytes.Buffer
	if err := m.WriteState(&state); err != nil {
		lr.out.fail("WriteState: %v", err)
	}
	seq := uint64(len(lat))
	lr.set("wal.checkpoint_ms", lr.medianMS("wal.checkpoint", layerRepeats, func() {
		if err := wal.WriteCheckpoint(dir, seq, state.Bytes()); err != nil {
			lr.out.fail("WriteCheckpoint: %v", err)
		}
	}))
	lr.set("wal.recover_ms", lr.medianMS("wal.recover", layerRepeats, func() {
		rec, err := wal.Recover(dir)
		if err != nil {
			lr.out.fail("Recover: %v", err)
		} else if rec.LastSeq != seq {
			lr.out.fail("Recover: last seq %d, want %d", rec.LastSeq, seq)
		}
	}))
}

// finish closes the replay root span.
func (lr *layerReplay) finish() { lr.tr.end(lr.root) }

// encodeBatch writes a batch in tdbserve's WAL record layout (grow_to u64,
// count u32, then op u8, u u32, v u32 per update), so the static
// workloads' WAL replay appends records of the server's size.
func encodeBatch(n int, ups []dynamic.Update) []byte {
	buf := make([]byte, walRecordHead, walRecordHead+walRecordOp*len(ups))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(n))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(ups)))
	for _, u := range ups {
		buf = append(buf, byte(u.Op))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.V))
	}
	return buf
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
