// Package telemetry is the node's instrument panel: a metrics registry
// (atomic counters, gauges, and fixed-bucket log-scale histograms), one
// stream of typed protocol events (Event, Metrics.Emit) folded into
// registry series, epoch timelines, a flight-recorder journal and
// sampled transaction journeys, and an HTTP admin server exposing
// Prometheus text, JSON status, and pprof.
//
// Design constraints (DESIGN.md "Observability"):
//
//   - Allocation-free hot path. Counter.Add, Gauge.Set and
//     Histogram.Observe are single atomic operations (Observe adds a
//     short linear bucket scan); none allocates.
//   - Nil-safe handles. Every method on *Registry, *Metrics and the
//     metric handles accepts a nil receiver and no-ops, so call sites
//     hold unconditional handles and a node with telemetry disabled
//     pays only a predictable nil check.
//   - Deterministic under the emulated clock. All event times and
//     durations come from replica.Context.Now(), which is the
//     simulated clock under the emulator, so two runs of the same
//     seed produce byte-identical snapshots.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic buckets. Bounds are
// inclusive upper bounds in ascending order; observations above the last
// bound land in an implicit +Inf bucket. Observe is allocation-free. A
// nil *Histogram no-ops.
type Histogram struct {
	bounds []int64 // ascending upper bounds (le)
	// scale converts raw int64 observations to the exposition unit
	// (e.g. 1e-9 for nanoseconds -> seconds). 0 means 1.
	scale   float64
	buckets []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum     atomic.Int64
	count   atomic.Uint64
}

// Observe records one sample (in the histogram's raw unit).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations in the raw unit.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-th quantile (0..1) in the raw unit by linear
// interpolation inside the containing bucket. Samples in the +Inf
// bucket report the last finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	lower := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if cum+n >= rank {
			upper := int64(0)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			} else {
				// +Inf bucket: report the last finite bound.
				return h.bounds[len(h.bounds)-1]
			}
			if n == 0 {
				return upper
			}
			frac := float64(rank-cum) / float64(n)
			return lower + int64(frac*float64(upper-lower))
		}
		cum += n
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets builds n log-scale upper bounds starting at start and
// multiplying by factor, for Registry.Histogram.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	b := make([]int64, n)
	v := float64(start)
	for i := range b {
		b[i] = int64(v)
		v *= factor
	}
	return b
}

// metricKind tags a registered family for Prometheus TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric (one label set of one family).
type entry struct {
	name   string // family name
	labels string // static label set, e.g. `class="dispersal"`, may be ""
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds a node's metrics and renders them as Prometheus text
// or a JSON snapshot. All methods are safe for concurrent use; a nil
// *Registry hands out nil handles, so disabled telemetry costs only
// nil checks at the call sites.
type Registry struct {
	mu      sync.Mutex
	order   []string // registration order of keys
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// register returns the entry under name+labels, creating it — handle
// included — under the lock, so concurrent registrations of one series
// all get the same handle.
func (r *Registry) register(name, labels, help string, kind metricKind, bounds []int64, scale float64) *entry {
	key := name + "|" + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		return e
	}
	e := &entry{name: name, labels: labels, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			scale:   scale,
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	r.entries[key] = e
	r.order = append(r.order, key)
	return e
}

// Counter registers (or returns the existing) counter under name with a
// static label set (may be ""). Re-registration returns the same handle.
func (r *Registry) Counter(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, labels, help, kindCounter, nil, 0).c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, labels, help, kindGauge, nil, 0).g
}

// Histogram registers (or returns the existing) histogram under name.
// bounds are ascending upper bounds in the raw unit; scale converts raw
// values to the exposition unit (0 means 1; use 1e-9 for nanosecond
// observations exposed as seconds).
func (r *Registry) Histogram(name, labels, help string, bounds []int64, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, labels, help, kindHistogram, bounds, scale).h
}

// FindHistogram returns the histogram already registered under
// name+labels, or nil (a safe no-op handle) when absent — readers that
// must not mint empty families use this instead of Histogram.
func (r *Registry) FindHistogram(name, labels string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name+"|"+labels]; ok {
		return e.h
	}
	return nil
}

func (h *Histogram) expUnit(v int64) float64 {
	if h.scale == 0 {
		return float64(v)
	}
	return float64(v) * h.scale
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), grouping label sets of a family under one
// HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	entries := make([]*entry, len(keys))
	for i, k := range keys {
		entries[i] = r.entries[k]
	}
	r.mu.Unlock()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var b strings.Builder
	lastFamily := ""
	for _, e := range entries {
		if e.name != lastFamily {
			typ := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[e.kind]
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, typ)
			lastFamily = e.name
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", promSeries(e.name, e.labels), e.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", promSeries(e.name, e.labels), e.g.Value())
		case kindHistogram:
			h := e.h
			var cum uint64
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatFloat(h.expUnit(h.bounds[i]))
				}
				lbl := joinLabels(e.labels, `le="`+le+`"`)
				fmt.Fprintf(&b, "%s %d\n", promSeries(e.name+"_bucket", lbl), cum)
			}
			fmt.Fprintf(&b, "%s %s\n", promSeries(e.name+"_sum", e.labels), formatFloat(h.expUnit(h.Sum())))
			fmt.Fprintf(&b, "%s %d\n", promSeries(e.name+"_count", e.labels), h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func promSeries(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// Sum is the total of observations in the exposition unit.
	Sum float64 `json:"sum"`
	// P50, P95 and P99 are interpolated quantiles in the exposition
	// unit.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Snapshot captures every metric as a JSON-marshalable map keyed by
// series name (family name plus {labels} when labelled). Counters and
// gauges map to numbers, histograms to HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	entries := make([]*entry, len(keys))
	for i, k := range keys {
		entries[i] = r.entries[k]
	}
	r.mu.Unlock()
	out := make(map[string]any, len(entries))
	for _, e := range entries {
		series := promSeries(e.name, e.labels)
		switch e.kind {
		case kindCounter:
			out[series] = e.c.Value()
		case kindGauge:
			out[series] = e.g.Value()
		case kindHistogram:
			h := e.h
			out[series] = HistogramSnapshot{
				Count: h.Count(),
				Sum:   h.expUnit(h.Sum()),
				P50:   h.expUnit(h.Quantile(0.50)),
				P95:   h.expUnit(h.Quantile(0.95)),
				P99:   h.expUnit(h.Quantile(0.99)),
			}
		}
	}
	return out
}
