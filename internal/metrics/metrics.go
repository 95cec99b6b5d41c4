// Package metrics is a small, dependency-free observability registry for
// the serving layer: counters, gauges, histograms, and scrape-time
// callback metrics, exposed in the Prometheus text format.
//
// The package exists because the repo's hard rule is "standard library
// only": ursad needs request latency, queue depth, shed counts, and cache
// hit rates on a /metrics endpoint, but cannot import a client library.
// The subset implemented here is exactly what a scraper needs — `# HELP` /
// `# TYPE` headers, cumulative histogram buckets with `le` labels, and a
// single optional label dimension for counters — nothing more.
//
// All mutators are lock-free (atomics); WritePrometheus takes a snapshot
// per metric, so scraping never blocks the serving path. Output is sorted
// by metric name, hence deterministic and diffable in tests.
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

// A Registry holds a set of named metrics and renders them in the
// Prometheus text exposition format.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is one named time series family.
type metric interface {
	write(w io.Writer, name, help string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register adds the metric, panicking on a duplicate name: metric names
// are wired once at server construction, so a collision is a programming
// error, not a runtime condition.
func (r *Registry) register(name, help string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.metrics[name] = &named{help: help, m: m}
}

// named pairs a metric with its help string.
type named struct {
	help string
	m    metric
}

func (n *named) write(w io.Writer, name, _ string) { n.m.write(w, name, n.help) }

// WritePrometheus renders every registered metric, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]metric, len(names))
	sort.Strings(names)
	for i, name := range names {
		ms[i] = r.metrics[name]
	}
	r.mu.Unlock()
	for i, name := range names {
		ms[i].write(w, name, "")
	}
}

// Handler returns an http.Handler serving the registry as
// text/plain; version=0.0.4 (the Prometheus exposition content type).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ---------------------------------------------------------------- counter

// A Counter is a monotonically increasing integer.
type Counter struct {
	v atomic.Uint64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// ------------------------------------------------------------ counter vec

// A CounterVec is a family of counters keyed by one label value (e.g.
// compile outcomes by pipeline method). Label values are created on first
// use and live for the registry's lifetime; the expected cardinality is
// small and bounded (method names, endpoint names, outcome classes).
type CounterVec struct {
	label string
	mu    sync.Mutex
	vals  map[string]*Counter
}

// CounterVec registers and returns a new labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	cv := &CounterVec{label: label, vals: make(map[string]*Counter)}
	r.register(name, help, cv)
	return cv
}

// With returns the counter for the given label value, creating it at zero
// on first use.
func (cv *CounterVec) With(value string) *Counter {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c, ok := cv.vals[value]
	if !ok {
		c = &Counter{}
		cv.vals[value] = c
	}
	return c
}

func (cv *CounterVec) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, "counter")
	cv.mu.Lock()
	vals := make([]string, 0, len(cv.vals))
	for v := range cv.vals {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	counters := make([]*Counter, len(vals))
	for i, v := range vals {
		counters[i] = cv.vals[v]
	}
	cv.mu.Unlock()
	for i, v := range vals {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, cv.label, v, counters[i].Value())
	}
}

// -------------------------------------------------------------- gauge vec

// A GaugeVec is a family of gauges keyed by one label value (e.g. backend
// health by backend address). Like CounterVec, label values are created
// on first use and live forever; cardinality is expected to be small and
// bounded.
type GaugeVec struct {
	label string
	mu    sync.Mutex
	vals  map[string]*Gauge
}

// GaugeVec registers and returns a new labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	gv := &GaugeVec{label: label, vals: make(map[string]*Gauge)}
	r.register(name, help, gv)
	return gv
}

// With returns the gauge for the given label value, creating it at zero
// on first use.
func (gv *GaugeVec) With(value string) *Gauge {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	g, ok := gv.vals[value]
	if !ok {
		g = &Gauge{}
		gv.vals[value] = g
	}
	return g
}

func (gv *GaugeVec) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, "gauge")
	gv.mu.Lock()
	vals := make([]string, 0, len(gv.vals))
	for v := range gv.vals {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	gauges := make([]*Gauge, len(vals))
	for i, v := range vals {
		gauges[i] = gv.vals[v]
	}
	gv.mu.Unlock()
	for i, v := range vals {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, gv.label, v, gauges[i].Value())
	}
}

// ------------------------------------------------------------------ gauge

// A Gauge is an integer that can go up and down (queue depth, in-flight
// requests).
type Gauge struct {
	v atomic.Int64
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %d\n", name, g.v.Load())
}

// ------------------------------------------------------------------- func

// funcMetric evaluates a callback at scrape time — for values owned by
// another subsystem (artifact cache tier statistics, the core loop's
// evaluation counters) that would be racy or redundant to mirror into
// registry state.
type funcMetric struct {
	typ string
	fn  func() float64
}

// Func registers a scrape-time callback metric. typ is the Prometheus
// type to advertise ("counter" for monotone values like cache hits,
// "gauge" otherwise).
func (r *Registry) Func(name, help, typ string, fn func() float64) {
	r.register(name, help, &funcMetric{typ: typ, fn: fn})
}

func (f *funcMetric) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, f.typ)
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(f.fn()))
}

// funcVec is a family of scrape-time callbacks keyed by one label value.
type funcVec struct {
	typ, label string
	series     map[string]func() float64
}

// FuncVec registers a family of scrape-time callback series, one per
// label value in series, rendered in label-value order.
func (r *Registry) FuncVec(name, help, typ, label string, series map[string]func() float64) {
	r.register(name, help, &funcVec{typ: typ, label: label, series: series})
}

func (f *funcVec) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, f.typ)
	vals := make([]string, 0, len(f.series))
	for v := range f.series {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	for _, v := range vals {
		fmt.Fprintf(w, "%s{%s=%q} %s\n", name, f.label, v, formatFloat(f.series[v]()))
	}
}

// -------------------------------------------------------------- histogram

// A Histogram counts observations into cumulative buckets (Prometheus
// `le` semantics) and tracks their sum. Observe is lock-free; the bucket
// bounds are fixed at construction.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
}

// DefBuckets is a latency spread (in seconds) suited to compile requests:
// sub-millisecond block compiles up to multi-second batch jobs.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// GapBuckets suits heuristic-versus-optimal gap histograms (whole words
// or registers): most gaps are zero or a small integer, with a long tail
// on adversarial blocks.
var GapBuckets = []float64{0, 1, 2, 3, 5, 8, 13, 21, 34}

// IIBuckets suits initiation-interval histograms (whole cycles per loop
// iteration): tight kernels land in the low single digits, wide or
// recurrence-bound kernels stretch into the tens.
var IIBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// Histogram registers and returns a new histogram with the given upper
// bounds (nil means DefBuckets). Bounds must be strictly ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds))}
	r.register(name, help, h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, "histogram")
	h.writeSeries(w, name, "")
}

// writeSeries renders the bucket/sum/count lines, splicing extraLabels
// (e.g. `backend="a",`) before the le label — shared by plain histograms
// and HistogramVec members.
func (h *Histogram) writeSeries(w io.Writer, name, extraLabels string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, extraLabels, formatFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extraLabels, h.count.Load())
	if extraLabels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.sum.load()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, strings.TrimSuffix(extraLabels, ","), formatFloat(h.sum.load()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, strings.TrimSuffix(extraLabels, ","), h.count.Load())
	}
}

// ---------------------------------------------------------- histogram vec

// A HistogramVec is a family of histograms keyed by one label value (e.g.
// per-backend request latency at the cluster router). All members share
// the bucket bounds fixed at registration.
type HistogramVec struct {
	label  string
	bounds []float64
	mu     sync.Mutex
	vals   map[string]*Histogram
}

// HistogramVec registers and returns a new labeled histogram family with
// the given upper bounds (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	hv := &HistogramVec{label: label, bounds: bounds, vals: make(map[string]*Histogram)}
	r.register(name, help, hv)
	return hv
}

// With returns the histogram for the given label value, creating it empty
// on first use.
func (hv *HistogramVec) With(value string) *Histogram {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	h, ok := hv.vals[value]
	if !ok {
		h = &Histogram{bounds: hv.bounds, buckets: make([]atomic.Uint64, len(hv.bounds))}
		hv.vals[value] = h
	}
	return h
}

func (hv *HistogramVec) write(w io.Writer, name, help string) {
	writeHeader(w, name, help, "histogram")
	hv.mu.Lock()
	vals := make([]string, 0, len(hv.vals))
	for v := range hv.vals {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	hists := make([]*Histogram, len(vals))
	for i, v := range vals {
		hists[i] = hv.vals[v]
	}
	hv.mu.Unlock()
	for i, v := range vals {
		hists[i].writeSeries(w, name, fmt.Sprintf("%s=%q,", hv.label, v))
	}
}

// atomicFloat is a float64 accumulated via compare-and-swap on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// ---------------------------------------------------------------- helpers

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
