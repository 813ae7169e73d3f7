package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdb"
	"tdb/internal/core"
	"tdb/internal/digraph"
	"tdb/internal/dynamic"
	"tdb/internal/server"
	"tdb/internal/verify"
	"tdb/internal/wal"
)

// serve-mix: tdbserve in process, seeded with the Wiki-Vote stand-in at
// 0.2, durable writes under fsync=always, every other setting at its
// tdbserve default, driven by an open-loop generator over loopback.
const (
	serveDataset = "WKV"
	serveScale   = 0.2
	serveK       = 5
	// connections is the number of client connections; each carries one
	// request at a time, so requests the schedule releases while both are
	// busy wait in the generator's queue and their wait counts.
	connections = 2
)

// The rate ladder and latency limits are fixed here, never derived from a
// run. Rates are requests per second over the whole mix; the rungs are
// about 8% apart. The nominal rate is where the end-to-end latencies are
// read; max_rate_rps is the highest ladder rate whose latencies meet their
// limits without a growing backlog, found by bisecting the ladder above
// (or, when the nominal rate misses a limit, below) the nominal rate.
var rateLadder = []float64{
	100, 110, 120, 130, 140, 150, 160, 170, 190, 200, 220, 230, 250, 270, 290,
	320, 340, 370, 400, 430, 470, 500, 540, 590, 630, 680, 740, 800, 860, 930,
	1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1900, 2000,
}

const (
	// nominalRate is about a quarter of the measured maximum. Above it the
	// latency tails turn bimodal: a query waits for a whole solve only when
	// both connections hold one (perfbench/README.md).
	nominalRate   = 200.0
	solveLimitMS  = 50.0
	queryLimitMS  = 5.0
	updateLimitMS = 25.0
	// limitQuantile is the latency quantile the limits apply to on a
	// ladder rung: the highest one with at least ten solves beyond it on
	// the rungs around the limit.
	limitQuantile = 0.90
	// nominalShare of a run's seconds goes to the nominal rate and
	// rungShare to each ladder rung. A rung that misses a limit is run once
	// more, so one stall of the shared machine does not end the ladder.
	nominalShare = 0.7
	rungShare    = 0.055
	// A rung's backlog is growing when more than backlogSeconds of its
	// arrivals are still outstanding when its schedule ends, or when the
	// generator had to drop requests it could not send within dropAfter
	// of the end.
	backlogSeconds = 0.05
	dropAfter      = 250 * time.Millisecond
)

// Request headers the generator sets so the handler middleware can link a
// server span to its request and time the wait from the intended send.
const (
	hdrIntended = "X-Perfbench-Intended"
	hdrParent   = "X-Perfbench-Span"
	hdrReq      = "X-Perfbench-Req"
)

// Request kinds of the read/write mix.
type opKind int

const (
	opSolve opKind = iota
	opCycle
	opHasCycle
	opCover
	opUpdate
)

// opWeights is the serve-mix request mix in percent, indexed by opKind.
var opWeights = [...]int{opSolve: 10, opCycle: 25, opHasCycle: 15, opCover: 20, opUpdate: 30}

// validCycle reports whether c is a simple closed walk through s of length
// [minLen, k] whose every edge satisfies hasEdge.
func validCycle(c []tdb.VID, s tdb.VID, k int, hasEdge func(u, v tdb.VID) bool) bool {
	if len(c) < minLen || len(c) > k || c[0] != s {
		return false
	}
	seen := make(map[tdb.VID]bool, len(c))
	for i, v := range c {
		if seen[v] || !hasEdge(v, c[(i+1)%len(c)]) {
			return false
		}
		seen[v] = true
	}
	return true
}

// serveEnv is one running tdbserve instance.
type serveEnv struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	url     string
	dataDir string
	seed    *digraph.Graph
	cover   []tdb.VID
	mw      *routeTimer
	stopped bool
}

// startServer sets up the way cmd/tdbserve does — load the seed, solve its
// cover, server.New — then listens on loopback and waits for the first 200
// from /healthz.
func startServer(path, dataDir string) (*serveEnv, time.Duration, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	g, err := tdb.LoadGraph(path)
	if err != nil {
		return nil, 0, err
	}
	res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: serveK, MinLen: minLen})
	if err != nil {
		return nil, 0, fmt.Errorf("seed cover: %w", err)
	}
	srv, err := server.New(server.Config{
		K: serveK, MinLen: minLen, Seed: g, SeedCover: res.Cover,
		DataDir: dataDir, Fsync: wal.FsyncAlways,
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, 0, err
	}
	env := &serveEnv{
		srv: srv, served: make(chan error, 1), url: "http://" + ln.Addr().String(),
		dataDir: dataDir, seed: g, cover: res.Cover, mw: &routeTimer{},
	}
	env.hs = &http.Server{Handler: env.mw.wrap(srv.Handler())}
	go func() { env.served <- env.hs.Serve(ln) }()
	for {
		resp, err := http.Get(env.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			_ = env.stop()
			return nil, 0, fmt.Errorf("server not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return env, time.Since(start), nil
}

// stop drains the HTTP listener and the server (final epoch, WAL closed)
// and waits for the serving goroutine. Later calls do nothing.
func (e *serveEnv) stop() error {
	if e.stopped {
		return nil
	}
	e.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := e.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-e.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// routeTimer is middleware around Server.Handler that, while a tracer is
// set, records per-route handler time, the wait from the intended send to
// handler entry, and a server span under the request's generator span.
type routeTimer struct {
	tr     atomic.Pointer[tracer]
	mu     sync.Mutex
	handle map[string][]float64
	queue  []float64
}

func (rt *routeTimer) start(tr *tracer) {
	rt.mu.Lock()
	rt.handle = make(map[string][]float64)
	rt.queue = nil
	rt.mu.Unlock()
	rt.tr.Store(tr)
}

func (rt *routeTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := rt.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		entry := time.Now()
		h.ServeHTTP(w, r)
		exit := time.Now()
		route := strings.TrimPrefix(r.URL.Path, "/v1/")
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 32)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		tr.record("server."+route, int32(parent), req, entry, exit)
		rt.mu.Lock()
		rt.handle[route] = append(rt.handle[route], ms(exit.Sub(entry)))
		if ns, err := strconv.ParseInt(r.Header.Get(hdrIntended), 10, 64); err == nil {
			rt.queue = append(rt.queue, ms(entry.Sub(time.Unix(0, ns))))
		}
		rt.mu.Unlock()
	})
}

// ackedBatch is an update batch the server acknowledged as durable.
type ackedBatch struct {
	seq uint64
	ups []dynamic.Update
}

// loadgen is the open-loop generator. Request kinds are drawn from opRng
// when scheduled; cycle sources and update batches are drawn in send order
// from their own seeded streams, so the same seed issues the same
// requests.
type loadgen struct {
	env     *serveEnv
	clients [connections]*http.Client
	opRng   *rand.Rand
	tr      *tracer
	reqID   atomic.Int64

	mu       sync.Mutex // guards everything below
	srcRng   *rand.Rand
	stream   *updateStream
	inserted map[[2]tdb.VID]bool // every pair ever sent for insertion
	acked    []ackedBatch
	out      *outcome
}

func newLoadgen(env *serveEnv, seed uint64, out *outcome) *loadgen {
	lg := &loadgen{
		env:      env,
		opRng:    rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909)),
		srcRng:   rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b)),
		stream:   newUpdateStream(env.seed, seed),
		inserted: make(map[[2]tdb.VID]bool),
		out:      out,
	}
	for i := range lg.clients {
		lg.clients[i] = &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// rungResult is one rate's measurement.
type rungResult struct {
	rate        float64
	achieved    float64 // completed requests per second of schedule
	lat         [len(opWeights)][]float64
	lag         []float64     // generator lateness per scheduled request
	outstanding int           // requests not yet completed when the schedule ended
	elapsed     time.Duration // first intended send to last completion
	dropped     int
	failed      int64
	attempted   int64
}

func (r *rungResult) queries() []float64 {
	return slices.Concat(r.lat[opCycle], r.lat[opHasCycle], r.lat[opCover])
}

// growing reports a backlog that grew over the rung.
func (r *rungResult) growing() bool {
	return r.dropped > 0 || float64(r.outstanding) > max(8, r.rate*backlogSeconds)
}

// meets reports whether the rung stayed within every limit.
func (r *rungResult) meets() bool {
	return !r.growing() && r.failed == 0 &&
		quantile(r.lat[opSolve], limitQuantile) <= solveLimitMS &&
		quantile(r.queries(), limitQuantile) <= queryLimitMS &&
		quantile(r.lat[opUpdate], limitQuantile) <= updateLimitMS
}

type scheduled struct {
	op       opKind
	intended time.Time
}

// schedule returns the next n request kinds: the mix exactly, in every
// block of 20, shuffled within the block. Exact proportions keep the
// per-kind sample counts, and so the tail estimates, alike across seeds.
func (lg *loadgen) schedule(n int) []opKind {
	var block []opKind
	for op, w := range opWeights {
		for range w / 5 {
			block = append(block, opKind(op))
		}
	}
	ops := make([]opKind, 0, n+len(block))
	for len(ops) < n {
		lg.opRng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ops = append(ops, block...)
	}
	return ops[:n]
}

// rung offers rate requests per second for dur on the open-loop schedule
// and times each from its intended send time.
func (lg *loadgen) rung(rate float64, dur time.Duration) *rungResult {
	n := int(rate * dur.Seconds())
	res := &rungResult{rate: rate, lag: make([]float64, 0, n)}
	ops := lg.schedule(n)
	interval := time.Duration(float64(time.Second) / rate)
	queue := make(chan scheduled, n) // sized to the number of sends: the scheduler never blocks
	start := time.Now().Add(time.Millisecond)
	end := start.Add(time.Duration(n) * interval)
	var (
		completed atomic.Int64
		wg        sync.WaitGroup
		resMu     sync.Mutex
	)
	for w := range connections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat [len(opWeights)][]float64
			var dropped int
			var failed, attempted int64
			for s := range queue {
				if time.Since(end) > dropAfter {
					dropped++
					continue
				}
				attempted++
				if !lg.do(lg.clients[w], s) {
					failed++
				}
				lat[s.op] = append(lat[s.op], ms(time.Since(s.intended)))
				completed.Add(1)
			}
			resMu.Lock()
			for op := range lat {
				res.lat[op] = append(res.lat[op], lat[op]...)
			}
			res.dropped += dropped
			res.failed += failed
			res.attempted += attempted
			resMu.Unlock()
		}()
	}
	for i, op := range ops {
		it := start.Add(time.Duration(i) * interval)
		waitUntil(it)
		res.lag = append(res.lag, ms(time.Since(it)))
		queue <- scheduled{op: op, intended: it}
	}
	if d := time.Until(end); d > 0 {
		time.Sleep(d)
	}
	res.outstanding = n - int(completed.Load())
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	res.achieved = float64(completed.Load()) / end.Sub(start).Seconds()
	return res
}

// spinWindow is how long before a send the scheduler stops sleeping and
// yields in a loop instead: the runtime's timers wake a sleeper up to a
// millisecond late on Linux, which would otherwise show as generator lag.
const spinWindow = time.Millisecond

// waitUntil returns at t, sleeping until spinWindow before it.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// do sends one request and checks its answer; false marks a failure.
func (lg *loadgen) do(c *http.Client, s scheduled) bool {
	id := lg.reqID.Add(1)
	span := lg.tr.beginAt("loadgen.request", -1, id, s.intended)
	defer lg.tr.end(span)
	lg.tr.record("loadgen.wait", span, id, s.intended, time.Now())

	var (
		path  string
		body  any
		ups   []dynamic.Update
		src   tdb.VID
		check func([]byte) error
	)
	switch s.op {
	case opSolve:
		path, body = "/v1/solve", server.SolveRequest{}
		check = func(b []byte) error {
			var r server.SolveResponse
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			if r.CoverSize != len(r.Cover) || r.Degraded {
				return fmt.Errorf("solve answered %d/%d vertices, degraded=%v", r.CoverSize, len(r.Cover), r.Degraded)
			}
			return nil
		}
	case opCycle:
		lg.mu.Lock()
		src = tdb.VID(lg.srcRng.IntN(lg.env.seed.NumVertices()))
		lg.mu.Unlock()
		path, body = "/v1/cycle", server.CycleRequest{Source: src}
		check = func(b []byte) error {
			var r server.CycleResponse
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			if r.Found && !validCycle(r.Cycle, src, serveK, lg.knownEdge) {
				return fmt.Errorf("cycle through %d is not a simple closed walk of known edges: %v", src, r.Cycle)
			}
			return nil
		}
	case opHasCycle:
		path, body = "/v1/hascycle", server.HasCycleRequest{}
		check = func(b []byte) error {
			var r server.HasCycleResponse
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			if len(lg.env.cover) > 0 && !r.Found {
				// Seed edges are never deleted, so the seed's cycles stay.
				return fmt.Errorf("hascycle answered false on a graph with cycles")
			}
			return nil
		}
	case opCover:
		path, body = "/v1/cover", struct{}{}
		check = func(b []byte) error {
			var r server.CoverResponse
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			if r.CoverSize != len(r.Cover) {
				return fmt.Errorf("cover answered %d/%d vertices", r.CoverSize, len(r.Cover))
			}
			return nil
		}
	case opUpdate:
		lg.mu.Lock()
		ups = lg.stream.next()
		for _, u := range ups {
			if u.Op == dynamic.OpInsert {
				lg.inserted[[2]tdb.VID{u.U, u.V}] = true
			}
		}
		lg.mu.Unlock()
		path, body = "/v1/update", updateRequest(ups, false)
		check = func(b []byte) error {
			var r server.UpdateResponse
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			if !r.Applied || r.WALSeq == 0 {
				return fmt.Errorf("update not acknowledged as durable: %+v", r)
			}
			lg.mu.Lock()
			lg.acked = append(lg.acked, ackedBatch{seq: r.WALSeq, ups: ups})
			lg.mu.Unlock()
			return nil
		}
	}
	hdr := http.Header{}
	if lg.tr != nil {
		hdr.Set(hdrIntended, strconv.FormatInt(s.intended.UnixNano(), 10))
		hdr.Set(hdrParent, strconv.FormatInt(int64(span), 10))
		hdr.Set(hdrReq, strconv.FormatInt(id, 10))
	}
	b, err := lg.post(c, path, body, hdr)
	if err == nil {
		err = check(b)
	}
	if err != nil {
		lg.mu.Lock()
		lg.out.fail("%s: %v", path, err)
		lg.mu.Unlock()
		return false
	}
	return true
}

// knownEdge reports whether (u, v) is a seed edge or was ever inserted.
func (lg *loadgen) knownEdge(u, v tdb.VID) bool {
	if lg.env.seed.HasEdge(u, v) {
		return true
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.inserted[[2]tdb.VID{u, v}]
}

func updateRequest(ups []dynamic.Update, publish bool) server.UpdateRequest {
	req := server.UpdateRequest{Updates: make([]server.UpdateOp, len(ups)), Wait: true, Publish: publish}
	for i, u := range ups {
		op := "insert"
		if u.Op == dynamic.OpDelete {
			op = "delete"
		}
		req.Updates[i] = server.UpdateOp{Op: op, U: u.U, V: u.V}
	}
	return req
}

// post sends a JSON body and returns the 2xx response body.
func (lg *loadgen) post(c *http.Client, path string, body any, hdr http.Header) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, lg.env.url+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (lg *loadgen) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := lg.clients[0].Get(lg.env.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// publishedCover publishes the writer's state into a fresh epoch and
// returns the maintained cover of it.
func (lg *loadgen) publishedCover() (server.CoverResponse, error) {
	var cr server.CoverResponse
	if _, err := lg.post(lg.clients[0], "/v1/update", updateRequest(nil, true), nil); err != nil {
		return cr, err
	}
	b, err := lg.post(lg.clients[0], "/v1/cover", struct{}{}, nil)
	if err != nil {
		return cr, err
	}
	return cr, json.Unmarshal(b, &cr)
}

// finalCheck rebuilds the graph from the seed plus the acknowledged
// batches in wal_seq order and checks that the maintained cover and a fresh
// solve are both valid on it. It returns the rebuilt graph.
func (lg *loadgen) finalCheck() *digraph.Graph {
	out := lg.out
	slices.SortFunc(lg.acked, func(a, b ackedBatch) int { return int(a.seq) - int(b.seq) })
	batches := make([][]dynamic.Update, len(lg.acked))
	for i, a := range lg.acked {
		batches[i] = a.ups
		if a.seq != uint64(i+1) {
			out.fail("acknowledged wal_seq %d at position %d: the sequence has a gap or repeat", a.seq, i)
			break
		}
	}
	final := replayOnto(lg.env.seed, batches)
	out.attempted += 2
	cr, err := lg.publishedCover()
	if err != nil {
		out.failed++
		out.fail("final cover: %v", err)
	} else if cr.N != final.NumVertices() || cr.M != final.NumEdges() {
		out.failed++
		out.fail("final epoch has n=%d m=%d, the acknowledged batches give n=%d m=%d", cr.N, cr.M, final.NumVertices(), final.NumEdges())
	} else if ok, cyc := verify.IsValid(final, serveK, minLen, cr.Cover); !ok {
		out.failed++
		out.fail("final maintained cover misses cycle %v", cyc)
	}
	b, err := lg.post(lg.clients[0], "/v1/solve", server.SolveRequest{}, nil)
	var sr server.SolveResponse
	if err == nil {
		err = json.Unmarshal(b, &sr)
	}
	if err != nil {
		out.failed++
		out.fail("final solve: %v", err)
	} else if ok, cyc := verify.IsValid(final, serveK, minLen, sr.Cover); !ok {
		out.failed++
		out.fail("final solve's cover misses cycle %v", cyc)
	}
	return final
}

func runServe(cfg runConfig) (*outcome, error) {
	path, err := writeGraph(cfg.workDir, serveDataset, serveScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]float64)}
	var (
		env    *serveEnv
		setups []float64
	)
	for i := range setupRepeats {
		if env != nil {
			if err := env.stop(); err != nil {
				return nil, err
			}
		}
		e, d, err := startServer(path, filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("server setup: %w", err)
		}
		env = e
		setups = append(setups, d.Seconds())
		runtime.GC() // drop the previous set-up's state before the next
	}
	out.metrics["setup_s"] = median(setups)
	defer env.stop() // a no-op after the traced run's own stop
	fmt.Printf("serve-mix: %v, k=%d, seed cover=%d, setup=%.3fs\n", env.seed, serveK, len(env.cover), out.metrics["setup_s"])

	lg := newLoadgen(env, cfg.seed, out)
	defer lg.close()
	st0, err := lg.stats()
	if err != nil {
		return nil, err
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	tally := func(r *rungResult) {
		out.attempted += r.attempted
		out.failed += r.failed
	}
	if cfg.trace {
		return serveTraced(cfg, env, lg, out, total, st0, tally)
	}

	nominal := lg.rung(nominalRate, time.Duration(float64(total)*nominalShare))
	tally(nominal)
	printRung(nominal)
	nominalMetrics(out, nominal)
	if cr, err := lg.publishedCover(); err != nil {
		out.fail("cover after the nominal rate: %v", err)
	} else {
		out.metrics["cover_size"] = float64(cr.CoverSize)
	}

	// The nominal phase stands for the nominal rung. lo indexes the highest
	// rung known to meet the limits (-1: none), hi the lowest known to
	// miss them.
	nominalIdx := slices.Index(rateLadder, nominalRate)
	lo, hi, best := nominalIdx, len(rateLadder), nominal.achieved
	if !nominal.meets() {
		lo, hi, best = -1, nominalIdx, 0
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if a, ok := lg.tryRung(rateLadder[mid], time.Duration(float64(total)*rungShare), tally); ok {
			lo, best = mid, a
		} else {
			hi = mid
		}
	}
	out.metrics["max_rate_rps"] = best
	lg.finalCheck()
	return out, nil
}

// nominalMetrics reads the latency metrics of a run at the nominal rate.
func nominalMetrics(out *outcome, r *rungResult) {
	queries := r.queries()
	out.metrics["solve_ms_p50"] = median(r.lat[opSolve])
	out.metrics["solves_per_s"] = float64(len(r.lat[opSolve])) / r.elapsed.Seconds()
	out.metrics["query_ms_p50"] = median(queries)
	out.metrics["update_ms_p50"] = median(r.lat[opUpdate])
	out.metrics["tail.solve_ms_p90"] = quantile(r.lat[opSolve], 0.90)
	out.metrics["tail.solve_ms_p99"] = quantile(r.lat[opSolve], 0.99)
	out.metrics["tail.query_ms_p99"] = quantile(queries, 0.99)
	out.metrics["tail.update_ms_p99"] = quantile(r.lat[opUpdate], 0.99)
}

// tryRung runs one ladder rung, and once more if it misses a limit, and
// returns the achieved rate of the run that met them.
func (lg *loadgen) tryRung(rate float64, dur time.Duration, tally func(*rungResult)) (float64, bool) {
	for range 2 {
		r := lg.rung(rate, dur)
		tally(r)
		printRung(r)
		if r.meets() {
			return r.achieved, true
		}
	}
	return 0, false
}

func printRung(r *rungResult) {
	q := limitQuantile
	fmt.Printf("rate %6.0f/s: achieved %7.1f/s, p%.0f solve %7.3f ms, query %6.3f ms, update %6.3f ms, outstanding %d, dropped %d, lag p99 %.3f ms, meets=%v\n",
		r.rate, r.achieved, 100*q, quantile(r.lat[opSolve], q), quantile(r.queries(), q),
		quantile(r.lat[opUpdate], q), r.outstanding, r.dropped, quantile(r.lag, 0.99), r.meets())
}

// serveTraced is the traced serve-mix run: the nominal rate untraced, then
// traced with the handler middleware on, then the final checks, shutdown,
// and the per-layer replay of the run's inputs.
func serveTraced(cfg runConfig, env *serveEnv, lg *loadgen, out *outcome, total time.Duration,
	st0 server.StatsResponse, tally func(*rungResult)) (*outcome, error) {
	plain := lg.rung(nominalRate, total/2)
	tally(plain)
	nominalMetrics(out, plain)
	tr := newTracer()
	lg.tr = tr
	env.mw.start(tr)
	traced := lg.rung(nominalRate, total/2)
	tally(traced)
	env.mw.tr.Store(nil)
	lg.tr = nil
	out.metrics["trace.overhead_frac"] = median(traced.queries())/median(plain.queries()) - 1
	fmt.Printf("tracing overhead: query p50 %.3f ms untraced, %.3f ms traced (%+.2f%%)\n",
		median(plain.queries()), median(traced.queries()), 100*out.metrics["trace.overhead_frac"])
	printRung(plain)
	printRung(traced)

	env.mw.mu.Lock()
	for _, r := range serverRoutes {
		out.metrics["server."+r+".handle_ms_p50"] = median(env.mw.handle[r])
		out.metrics["server."+r+".handle_ms_p99"] = quantile(env.mw.handle[r], 0.99)
	}
	out.metrics["server.queue_ms_p99"] = quantile(env.mw.queue, 0.99)
	env.mw.mu.Unlock()
	out.metrics["loadgen.lag_ms_p99"] = quantile(slices.Concat(plain.lag, traced.lag), 0.99)

	final := lg.finalCheck()
	st1, err := lg.stats()
	if err != nil {
		return nil, err
	}
	out.metrics["server.shed"] = float64(st1.Shed - st0.Shed)
	out.metrics["server.deadlines"] = float64(st1.Deadlines - st0.Deadlines)
	out.metrics["server.degraded"] = float64(st1.Degraded - st0.Degraded)
	if err := env.stop(); err != nil {
		return nil, err
	}
	rec, err := wal.Recover(env.dataDir)
	if err != nil {
		return nil, fmt.Errorf("recovering the run's WAL: %w", err)
	}
	payloads := make([][]byte, len(rec.Records))
	for i, r := range rec.Records {
		payloads[i] = r.Payload
	}
	batches := make([][]dynamic.Update, len(lg.acked))
	for i, a := range lg.acked {
		batches[i] = a.ups
	}
	fmt.Printf("replay: %d acknowledged batches, %d WAL records after checkpoint %d\n",
		len(batches), len(payloads), rec.CheckpointSeq)

	lr := layerReplay{tr: tr, out: out, k: serveK, seed: cfg.seed, workDir: cfg.workDir}
	finalPath := filepath.Join(cfg.workDir, "final.bin")
	if err := tdb.SaveGraph(finalPath, final); err != nil {
		return nil, err
	}
	lr.graphLayers(finalPath, final)
	lr.solves(final, []tdb.Option{tdb.WithWorkers(1)})
	feng := tdb.NewEngine(final)
	lr.queries(feng.FindCycle, feng.HasHopConstrainedCycle, final.NumVertices())
	m := lr.updates(env.seed, env.cover, batches)
	lr.wal(payloads, m)
	lr.finish()
	tr.layerSelfMS(out.metrics)
	if err := os.RemoveAll(env.dataDir); err != nil {
		return nil, err
	}
	return out, tr.write(spanFile(cfg.workload))
}
