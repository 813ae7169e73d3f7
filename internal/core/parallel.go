package core

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"tdb/internal/digraph"
	"tdb/internal/fault"
	"tdb/internal/scc"
)

// ComputeParallel computes the same cover problem as Compute by
// decomposing the graph into strongly connected components and covering
// each non-trivial component independently in a worker pool. Every directed
// cycle lies inside one SCC, so the union of per-component covers is a
// valid cover of the whole graph, and since restoring a vertex can only
// expose cycles inside its own component, minimality is preserved
// per-component and therefore globally.
//
// This is an extension over the paper (which is single-threaded): it helps
// exactly when the cyclic part of the graph splits into many components
// (program-analysis and circuit workloads often do). A graph that is one
// giant SCC gains nothing from the decomposition — for that shape, enable
// the intra-SCC BFS-filter prepass (Options.PrepassWorkers) instead; the
// two compose, each component run inheriting the caller's options.
//
// Cancellation (Options.Context or the deprecated Options.Cancelled) is
// polled by every worker; a timeout marks the whole result. workers <= 0
// selects GOMAXPROCS.
func ComputeParallel(g digraph.Adjacency, algo Algorithm, opts Options, workers int) (*Result, error) {
	return computeParallelWith(g, algo, opts, workers, nil)
}

// computeParallelWith is ComputeParallel reusing a precomputed SCC
// decomposition when the caller (the planning layer, which inspected the
// condensation to choose this strategy) already has one; nil computes it
// here.
func computeParallelWith(g digraph.Adjacency, algo Algorithm, opts Options, workers int, comps *scc.Result) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	if err := checkPartialSupport(algo, opts); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	stop := opts.stop()
	r := &Result{}

	if comps == nil {
		comps = scc.Compute(g)
	}
	r.Stats.SCCSkipped = int64(g.NumVertices())

	// Collect vertices of each non-trivial component.
	members := make(map[int32][]VID)
	for v := 0; v < g.NumVertices(); v++ {
		c := comps.Comp[v]
		if comps.Size[c] >= 2 {
			members[c] = append(members[c], VID(v))
		}
	}
	// An explicit candidate order induces per-component orders: position
	// index once, each job sorts its component's dense IDs by it.
	var orderPos []int32
	if opts.CandidateOrder != nil {
		orderPos = make([]int32, g.NumVertices())
		for i, v := range opts.CandidateOrder {
			orderPos[v] = int32(i)
		}
	}
	type job struct {
		verts []VID
	}
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		trap     panicTrap
	)
	// runJob covers one component on the worker's own state and is the
	// panic-isolation boundary: a panic anywhere in the per-component
	// computation is recovered HERE — outside the merge mutex, so siblings
	// can never deadlock on a lock the dying worker held — and surfaced as
	// a PanicError with the original stack.
	runJob := func(keep []bool, verts []VID) (res *Result, oldID []VID, err error) {
		defer func() {
			if p := recover(); p != nil {
				trap.capture(p)
				res, err = nil, trap.Err()
			}
		}()
		fault.Inject(fault.SiteCoreParallelWorker)
		for _, v := range verts {
			keep[v] = true
		}
		sub, old := digraph.Induced(g, keep)
		for _, v := range verts {
			keep[v] = false
		}
		oldID = old
		subOpts := opts
		subOpts.SCCPrefilter = false // already decomposed
		if orderPos != nil {
			// InducedSubgraph relabels monotonically, so dense ID i
			// is oldID[i]; sorting the dense IDs by the global
			// order's positions replays it inside the component.
			so := make([]VID, len(oldID))
			for i := range so {
				so[i] = VID(i)
			}
			sort.Slice(so, func(a, b int) bool {
				return orderPos[oldID[so[a]]] < orderPos[oldID[so[b]]]
			})
			subOpts.CandidateOrder = so
		}
		if opts.Weights != nil {
			// Remap the cost vector to the component's dense IDs.
			sw := make([]float64, sub.NumVertices())
			for i, old := range oldID {
				sw[i] = opts.Weights[old]
			}
			subOpts.Weights = sw
		}
		if sub.NumVertices() < subOpts.MinLen {
			// Too small to hold any constrained cycle (e.g. a
			// 2-vertex SCC when 2-cycles are excluded).
			return nil, oldID, nil
		}
		if subOpts.K > sub.NumVertices() {
			// No simple cycle exceeds the component size; clamping
			// keeps the unconstrained case (K = n) cheap.
			subOpts.K = sub.NumVertices()
		}
		res, err = Compute(sub, algo, subOpts)
		return res, oldID, err
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One O(n) membership mask per worker, cleared after each job
			// in O(|component|) instead of reallocated.
			keep := make([]bool, g.NumVertices())
			for j := range jobs {
				if trap.tripped() {
					continue // a sibling panicked: drain the channel
				}
				if stop != nil && stop() {
					// Stay on the safe side, as the sequential loop does:
					// every vertex of an unprocessed component joins the
					// (partial, non-minimal) cover, so all its cycles stay
					// covered.
					mu.Lock()
					r.Stats.TimedOut = true
					r.Cover = append(r.Cover, j.verts...)
					r.Stats.SCCSkipped -= int64(len(j.verts))
					mu.Unlock()
					continue // drain the channel
				}
				res, oldID, err := runJob(keep, j.verts)
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				case res == nil:
					// Component too small for any constrained cycle; it stays
					// counted in SCCSkipped.
				default:
					for _, v := range res.Cover {
						r.Cover = append(r.Cover, oldID[v])
					}
					r.Stats.Checked += res.Stats.Checked
					r.Stats.FilterPruned += res.Stats.FilterPruned
					r.Stats.PrepassResolved += res.Stats.PrepassResolved
					r.Stats.CyclesHit += res.Stats.CyclesHit
					r.Stats.PruneRemoved += res.Stats.PruneRemoved
					r.Stats.Detector.Add(res.Stats.Detector)
					r.Stats.SCCSkipped -= int64(res.Stats.N)
					if res.Stats.TimedOut {
						r.Stats.TimedOut = true
					}
					if res.Stats.Degraded {
						r.Stats.Degraded = true
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, verts := range members {
		jobs <- job{verts: verts}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if r.Stats.TimedOut && opts.PartialOnDeadline {
		// Skipped components joined the cover wholesale, and every
		// per-component result was itself degraded-valid, so the merged
		// cover is a valid conservative cover of the whole graph.
		r.Stats.TimedOut = false
		r.Stats.Degraded = true
	}
	finishStats(r, g, algo, opts, start)
	stampStopReason(r, opts)
	return r, nil
}
