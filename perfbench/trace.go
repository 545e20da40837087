package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name, the op it served, the
// span that made the call (-1 for a root), its interval relative to the
// tracer's epoch, and the heap bytes allocated while it was open.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  int64  `json:"alloc_bytes"`
}

// tracer keeps spans in memory. Nested spans (begin/end) come from one
// goroutine at a time; finished root spans (record) may come from any.
// It also times its own bookkeeping, which is the tracing overhead.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	open  []int
	op    int
	cost  time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, id)
	t.spans[id].Alloc = allocated()
	now := time.Now()
	t.spans[id].Start = int64(now.Sub(t.epoch))
	t.cost += now.Sub(t0)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	now := time.Now()
	alloc := allocated()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = int64(now.Sub(t.epoch))
	s.Alloc = alloc - s.Alloc
	t.cost += time.Since(now)
}

// record adds a finished root span timed by the caller.
func (t *tracer) record(name string, op int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans), Parent: -1, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// setOp tags the spans opened from now on with an op id.
func (t *tracer) setOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// layerTotal sums every span of one name.
type layerTotal struct {
	// Total is the summed span duration; Self subtracts the part of each
	// span that its children cover.
	Total, Self time.Duration
	// SelfAlloc is the span's allocation minus its children's.
	SelfAlloc int64
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to its own, so
// overlapping children are not subtracted twice.
func selfTimes(spans []Span) map[string]*layerTotal {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTotal{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		covered, childAlloc := coverage(s, children[s.ID])
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered)
		if a := s.Alloc - childAlloc; a > 0 {
			lt.SelfAlloc += a
		}
	}
	return out
}

// coverage returns how much of parent's interval its children cover, and
// the children's summed allocation.
func coverage(parent Span, kids []Span) (covered, alloc int64) {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		alloc += k.Alloc
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var end int64 = -1 << 62
	for _, v := range ivs {
		if v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return covered, alloc
}

// spanFile is what a traced run writes at exit.
type spanFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Env      envInfo `json:"env"`
	Spans    []Span  `json:"spans"`
}

// write stores the spans as JSON under dir, replacing the previous file
// for the same workload.
func (t *tracer) write(dir, workload string, seed int64, env envInfo) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	t.mu.Lock()
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Env: env, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
