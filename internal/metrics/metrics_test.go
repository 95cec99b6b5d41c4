package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ursad_shed_total", "requests shed")
	g := r.Gauge("ursad_queue_depth", "waiting requests")
	c.Inc()
	c.Add(2)
	g.Set(5)
	g.Dec()

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP ursad_queue_depth waiting requests",
		"# TYPE ursad_queue_depth gauge",
		"ursad_queue_depth 4",
		"# TYPE ursad_shed_total counter",
		"ursad_shed_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: queue_depth before shed_total.
	if strings.Index(out, "ursad_queue_depth") > strings.Index(out, "ursad_shed_total") {
		t.Errorf("exposition not sorted by name:\n%s", out)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("compile_total", "compiles by method", "method")
	cv.With("ursa").Add(3)
	cv.With("prepass").Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `compile_total{method="prepass"} 1`) ||
		!strings.Contains(out, `compile_total{method="ursa"} 3`) {
		t.Errorf("bad vec exposition:\n%s", out)
	}
	// Label values sorted.
	if strings.Index(out, `"prepass"`) > strings.Index(out, `"ursa"`) {
		t.Errorf("vec labels not sorted:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_count 5",
		"lat_sum 56.05",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
}

func TestFuncMetric(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.Func("cache_hits_total", "cache hits", "counter", func() float64 { return v })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "cache_hits_total 7") {
		t.Errorf("func metric missing:\n%s", sb.String())
	}
	v = 9
	sb.Reset()
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "cache_hits_total 9") {
		t.Errorf("func metric not re-evaluated at scrape:\n%s", sb.String())
	}
}

func TestFuncVec(t *testing.T) {
	r := NewRegistry()
	a, b := 1.0, 2.0
	r.FuncVec("iters_total", "iterations by path", "counter", "path", map[string]func() float64{
		"scored":   func() float64 { return a },
		"replayed": func() float64 { return b },
	})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := "# HELP iters_total iterations by path\n# TYPE iters_total counter\n" +
		"iters_total{path=\"replayed\"} 2\niters_total{path=\"scored\"} 1\n"
	if sb.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", sb.String(), want)
	}
	b = 5
	sb.Reset()
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `iters_total{path="replayed"} 5`) {
		t.Errorf("func vec not re-evaluated at scrape:\n%s", sb.String())
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("handler body:\n%s", rec.Body.String())
	}
}

func TestDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "")
}

// TestConcurrentMutation exercises the lock-free paths under the race
// detector: concurrent Observe/Inc/Add against concurrent scrapes.
func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	cv := r.CounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / 100)
				cv.With([]string{"a", "b"}[w%2]).Inc()
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			r.WritePrometheus(&sb)
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("backend_healthy", "shard liveness", "backend")
	gv.With("http://b:1").Set(1)
	gv.With("http://a:1").Set(0)
	gv.With("http://b:1").Set(0) // same label returns the same gauge
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE backend_healthy gauge",
		`backend_healthy{backend="http://a:1"} 0`,
		`backend_healthy{backend="http://b:1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gauge vec missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, `"http://a:1"`) > strings.Index(out, `"http://b:1"`) {
		t.Errorf("gauge vec labels not sorted:\n%s", out)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("backend_seconds", "per-shard latency", "backend", []float64{1, 10})
	hv.With("a").Observe(0.5)
	hv.With("a").Observe(5)
	hv.With("b").Observe(50)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE backend_seconds histogram",
		`backend_seconds_bucket{backend="a",le="1"} 1`,
		`backend_seconds_bucket{backend="a",le="10"} 2`,
		`backend_seconds_bucket{backend="a",le="+Inf"} 2`,
		`backend_seconds_bucket{backend="b",le="+Inf"} 1`,
		`backend_seconds_sum{backend="a"} 5.5`,
		`backend_seconds_count{backend="a"} 2`,
		`backend_seconds_count{backend="b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram vec missing %q:\n%s", want, out)
		}
	}
}
