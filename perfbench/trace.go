package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracedLayers are the span-name prefixes self time is summed under: the
// modules under internal/ plus the benchmark's own load generator.
var tracedLayers = []string{"digraph", "scc", "cycle", "core", "dynamic", "wal", "server", "loadgen"}

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the tracer's origin.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // request the span served; 0 outside serve-mix
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.origin).Nanoseconds() }

// begin opens a span starting now and returns its id (-1 when t is nil).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at start.
func (t *tracer) beginAt(name string, parent int32, req int64, start time.Time) int32 {
	if t == nil {
		return -1
	}
	return t.add(span{Parent: parent, Req: req, Name: name, Start: t.at(start), End: -1})
}

// end closes span id at the current time.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose start and end are already known.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	return t.add(span{Parent: parent, Req: req, Name: name, Start: t.at(start), End: t.at(end)})
}

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

// around runs fn inside a span.
func (t *tracer) around(name string, parent int32, fn func()) time.Duration {
	id := t.begin(name, parent, 0)
	d := timed(fn)
	t.end(id)
	return d
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover (children
// running concurrently are merged, never double-counted).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := unionWithin(children[s.ID], s.Start, s.End)
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// unionWithin is the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{lo, lo}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur[1] {
			total += cur[1] - cur[0]
			cur = [2]int64{a, b}
		} else if b > cur[1] {
			cur[1] = b
		}
	}
	return total + cur[1] - cur[0]
}

// layerSelfMS sums self time by layer prefix into self_ms.<layer> metrics
// and prints the per-span table.
func (t *tracer) layerSelfMS(into map[string]float64) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span self time:")
	for _, n := range names {
		fmt.Printf("  %-34s %12.3f ms\n", n, ms(self[n]))
	}
	for _, l := range tracedLayers {
		into["self_ms."+l] = 0
	}
	for n, d := range self {
		layer, _, _ := strings.Cut(n, ".")
		if _, ok := into["self_ms."+layer]; ok {
			into["self_ms."+layer] += ms(d)
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", len(t.spans), path)
	return nil
}
