package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's runtime telemetry: counters, gauges and
// histograms, flat or as label vectors, rendered in the Prometheus
// text exposition format. Registration takes a lock; updates on the
// returned instruments are lock-free atomics, so instrumented hot
// paths pay a few atomic adds, nothing more.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

type family struct {
	name, help, typ string
	labels          []string  // label keys, nil for an unlabeled family
	buckets         []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // joined label values -> *Counter/*Gauge/*Histogram
	order  []string
}

const (
	typCounter   = "counter"
	typGauge     = "gauge"
	typHistogram = "histogram"
)

// labelSep joins label values into a series key; it cannot appear in
// UTF-8 text, so distinct value tuples never collide.
const labelSep = "\xff"

func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, labels: labels,
			buckets: buckets, series: map[string]any{}}
		r.fams[name] = f
		return f
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %s re-registered as %s with %d label(s); was %s with %d",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	return f
}

func (f *family) get(key string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// --- instruments ---

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; an implicit +Inf bucket is always present) and tracks
// count and sum, Prometheus-style, so scrapers can derive quantiles
// and means.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets is the default latency bucket grid (seconds): a
// 1-2.5-10 ladder from 100µs to 30s, wide enough for both sub-ms HTTP
// handlers and multi-second experiment cells.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.001, 0.0025, 0.01, 0.025,
		0.1, 0.25, 1, 2.5, 10, 30,
	}
}

// --- registration ---

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typCounter, nil, nil)
	return f.get("", func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typGauge, nil, nil)
	return f.get("", func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (ascending; nil selects DurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets()
	}
	f := r.family(name, help, typHistogram, nil, buckets)
	return f.get("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec registers a counter family with label keys; With resolves
// one labeled child.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typCounter, labels, nil)}
}

// HistogramVec registers a histogram family with label keys.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DurationBuckets()
	}
	return &HistogramVec{f: r.family(name, help, typHistogram, labels, buckets)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves the child counter for the given label values (one per
// registered key, in order).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(joinValues(v.f, values), func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(joinValues(v.f, values), func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

func joinValues(f *family, values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, labelSep)
}

// --- exposition ---

// WriteText renders the registry in the Prometheus text exposition
// format (families sorted by name, series in registration order), the
// body of GET /metrics.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, len(names))
	sort.Strings(names)
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	if len(keys) == 0 {
		return
	}

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for i, key := range keys {
		labels := f.renderLabels(key, "")
		switch s := series[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, strconv.FormatUint(s.Value(), 10))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, strconv.FormatInt(s.Value(), 10))
		case *Histogram:
			var cum uint64
			for bi, bound := range s.bounds {
				cum += s.buckets[bi].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n",
					f.name, f.renderLabels(key, formatFloat(bound)), cum)
			}
			cum += s.buckets[len(s.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.renderLabels(key, "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(s.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, s.Count())
		}
	}
}

// renderLabels formats the {k="v",...} clause for a series key, with
// an optional le value appended (histogram buckets). Returns "" for an
// unlabeled, non-bucket series.
func (f *family) renderLabels(key, le string) string {
	var parts []string
	if len(f.labels) > 0 {
		values := strings.Split(key, labelSep)
		for i, k := range f.labels {
			parts = append(parts, fmt.Sprintf("%s=%q", k, escapeValue(values[i])))
		}
	}
	if le != "" {
		parts = append(parts, fmt.Sprintf("le=%q", le))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeValue escapes a label value per the exposition format. %q
// already escapes '"' and control bytes Go-style, which is a superset
// of what Prometheus requires, so only the raw value's backslashes
// need no extra handling — but %q renders them as \\ too. The helper
// exists to keep the call sites honest about WHICH escaping applies.
func escapeValue(s string) string { return s }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ServeHTTP makes the registry an http.Handler: GET returns the text
// exposition.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteText(w)
}
