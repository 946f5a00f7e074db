// Package telemetry is the observability subsystem: a lock-cheap metrics
// registry (counters, gauges, log-linear histograms with allocation-free
// hot paths), an event tracer stamping virtual time when driven by the
// emulator and wall time otherwise, per-stream guarantee accounting that
// mirrors the PGOS violation semantics, and exporters (Prometheus text
// exposition, JSON snapshots).
//
// Metric names follow the scheme iqpaths_<pkg>_<name>, with Prometheus
// labels for per-path/per-stream/per-link breakdowns. Registration is
// get-or-create: asking a registry for an existing (name, labels) pair
// returns the same metric, so independent components instrumenting the
// same process aggregate naturally. Registration takes a lock and may
// allocate; the returned handles are then updated with atomics only, so
// instrumentation can stay always-on even in per-packet code.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Clock supplies timestamps in seconds. *simnet.Network satisfies it with
// virtual time; WallClock supplies real time. Everything in this package
// that needs "now" takes a Clock, so the same tracer/accountant runs under
// the deterministic emulator and in live daemons.
type Clock interface {
	Now() float64
}

// WallClock is the real-time Clock (Unix seconds).
type WallClock struct{}

// Now returns the current wall time in Unix seconds.
func (WallClock) Now() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// metric kinds for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// entry is one registered metric with its identity and exposition info.
type entry struct {
	name   string // metric family name, e.g. iqpaths_pgos_remaps_total
	labels string // preformatted `k="v",k2="v2"` (may be empty)
	help   string
	kind   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// key returns the registry key identifying this (name, labels) pair.
func (e *entry) key() string { return e.name + "{" + e.labels + "}" }

// Registry holds named metrics. Registration (Counter/Gauge/Histogram)
// locks and may allocate; the returned metric handles are lock-free.
//
// A Registry may be a scoped view of another (WithLabels): the view
// shares the parent's storage but stamps a fixed label set onto every
// registration, so a subsystem instantiated N times (one per shard) gets
// N distinct metric series under one exporter without knowing it is
// scoped.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*entry
	entries []*entry

	// root is non-nil for scoped views and points at the registry owning
	// the maps above (which are unused in a view); base is the
	// preformatted label set stamped onto every registration.
	root *Registry
	base string
}

// owner returns the registry that holds the metric storage: the root of a
// scoped view, or r itself.
func (r *Registry) owner() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// WithLabels returns a scoped view of r that adds the given label pairs to
// every metric registered through it. Views share the parent's storage:
// exporters on the root see every scoped series, and identical
// (name, combined-labels) registrations still get-or-create one metric.
// Typical use is per-shard scoping: reg.WithLabels("shard", "3").
func (r *Registry) WithLabels(kv ...string) *Registry {
	return &Registry{root: r.owner(), base: joinLabels(r.base, FormatLabels(kv...))}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry used by components that are
// not handed an explicit one (the live transport, the daemons).
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// FormatLabels renders alternating key, value pairs as Prometheus label
// body `k1="v1",k2="v2"`. It panics on an odd argument count (a
// programming error at an instrumentation site).
func FormatLabels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("telemetry: FormatLabels needs alternating key, value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup get-or-creates the entry for (name, labels), verifying the kind.
// Scoped views prepend their base labels and delegate to the root.
func (r *Registry) lookup(name, help, kind, labels string) *entry {
	labels = joinLabels(r.base, labels)
	r = r.owner()
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + labels + "}"
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", key, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: labels, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		e.hist = &Histogram{}
	}
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter get-or-creates a counter. labelKV are alternating key, value
// pairs (e.g. "path", "PathA").
func (r *Registry) Counter(name, help string, labelKV ...string) *Counter {
	return r.lookup(name, help, kindCounter, FormatLabels(labelKV...)).counter
}

// Gauge get-or-creates a gauge.
func (r *Registry) Gauge(name, help string, labelKV ...string) *Gauge {
	return r.lookup(name, help, kindGauge, FormatLabels(labelKV...)).gauge
}

// Histogram get-or-creates a log-linear histogram.
func (r *Registry) Histogram(name, help string, labelKV ...string) *Histogram {
	return r.lookup(name, help, kindHistogram, FormatLabels(labelKV...)).hist
}

// snapshotEntries copies the entry list sorted by family name (stable, so
// label variants keep registration order within a family). Metric reads
// happen outside the lock — values are atomics.
func (r *Registry) snapshotEntries() []*entry {
	r = r.owner()
	r.mu.Lock()
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
