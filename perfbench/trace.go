package main

import (
	"time"
)

// recorder keeps the spans one goroutine records around its calls into
// the program's layers: name, start, end, parent and the heap objects
// allocated during the call. Spans stay in memory until the run ends.
// A recorder belongs to exactly one goroutine, so recording takes no
// lock; each goroutine that calls into a layer (tick loop, path writer,
// sink reader, shard goroutine, prober) gets its own.
//
// A nil *recorder is the untraced run: every method is a no-op, so the
// untraced hot path pays one nil check per call site.
type recorder struct {
	epoch  time.Time
	spans  []span
	stack  []int32
	allocs bool
}

type span struct {
	name       string
	parent     int32 // index into spans, -1 for a root
	start, end int64 // ns since epoch
	allocs     uint64
}

func newRecorder(epoch time.Time, allocs bool) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<14), allocs: allocs}
}

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	s := span{name: name, parent: parent}
	if r.allocs {
		s.allocs = heapAllocs()
	}
	s.start = int64(time.Since(r.epoch))
	id := int32(len(r.spans))
	r.spans = append(r.spans, s)
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	s := &r.spans[id]
	s.end = int64(time.Since(r.epoch))
	if r.allocs {
		s.allocs = heapAllocs() - s.allocs
	}
	r.stack = r.stack[:len(r.stack)-1]
}

// layerStats aggregates spans by name across recorders.
type layerStats struct {
	dur   map[string][]float64 // ns
	self  map[string][]float64 // ns, minus child spans
	alloc map[string][]float64
	count int
}

func aggregate(recs ...*recorder) layerStats {
	ls := layerStats{dur: map[string][]float64{}, self: map[string][]float64{}, alloc: map[string][]float64{}}
	for _, r := range recs {
		if r == nil {
			continue
		}
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			d := float64(s.end - s.start)
			ls.dur[s.name] = append(ls.dur[s.name], d)
			ls.self[s.name] = append(ls.self[s.name], d-float64(child[i]))
			if r.allocs {
				ls.alloc[s.name] = append(ls.alloc[s.name], float64(s.allocs))
			}
		}
		ls.count += len(r.spans)
	}
	return ls
}

// p returns the q-quantile of span name's duration in the given unit.
func (ls layerStats) p(name string, q float64, unit time.Duration) float64 {
	return quantile(ls.dur[name], q) / float64(unit)
}

// selfP is p over self time.
func (ls layerStats) selfP(name string, q float64, unit time.Duration) float64 {
	return quantile(ls.self[name], q) / float64(unit)
}

// allocsMean is the mean heap objects allocated per call of span name.
func (ls layerStats) allocsMean(name string) float64 {
	xs := ls.alloc[name]
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
