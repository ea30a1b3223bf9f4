// Package telemetry is the campaign observability substrate: a stdlib-only
// registry of named counters, gauges and fixed-bucket histograms, plus a
// lightweight span primitive for coarse scan stages (resolve → handshake →
// request → redirect → close).
//
// The paper's measurement campaign (§3.2) runs weekly scans over >200 M
// domains; at that scale the operators' primary tool is live visibility
// into throughput, error classes and per-stage latency. This package keeps
// that visibility cheap enough to leave always-on:
//
//   - The shared mutation path (Counter.Inc/Add, Histogram.Observe) is
//     allocation-free and lock-free (atomics only); see the package
//     benchmarks with -benchmem.
//   - A writer that records on every operation of a hot loop keeps its
//     counts in plain fields it owns and publishes them in bulk: integers
//     with Counter.Add, histogram samples through a Tally, whose Flush
//     costs one atomic add per non-empty bucket. The scanner's workers
//     publish once per pipeline batch, so live readers lag by at most one
//     batch and end-of-run values are exact.
//   - Every metric type has a no-op nil receiver, and a nil *Registry
//     hands out nil instruments, so a disabled scan pays only an
//     inlineable nil check per record site.
//   - Readers (Snapshot, WritePrometheus) never block writers.
//
// Metrics are identified by their full Prometheus series name, including
// any label set, e.g. `spinscan_conn_errors_total{class="timeout"}`. Use
// Name to build labelled series names; resolve instruments once at setup
// and keep the pointers on the hot path.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry. A nil Counter is a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe for concurrent use; no-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative; negative deltas are ignored to keep
// the counter monotone). No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down.
// A nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative). No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// each bucket counts observations ≤ its upper bound; the +Inf bucket is the
// total count). Buckets are fixed at construction, so observations are
// allocation-free. A nil Histogram is a valid no-op.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram copies and sorts bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs))}
}

// Observe records one sample. Safe for concurrent use, allocation-free;
// no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.addSum(v)
}

// addSum adds v to the float sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds. No-op on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Tally stages one goroutine's observations of a Histogram in plain fields,
// and Flush adds them to the histogram: one atomic add per non-empty
// bucket, one to the count and one to the sum. A tally has one owner; it is
// not safe for concurrent use. Readers of the histogram see the staged
// observations only once they are flushed. The zero Tally, and the tally of
// a nil histogram, is a no-op.
type Tally struct {
	h      *Histogram
	bounds []float64 // h's
	counts []uint64
	count  uint64
	sum    float64
}

// Tally returns a tally that flushes into h; allocate one per owner, once,
// and reuse it across flushes.
func (h *Histogram) Tally() Tally {
	if h == nil {
		return Tally{}
	}
	return Tally{h: h, bounds: h.bounds, counts: make([]uint64, len(h.bounds))}
}

// Observe stages one sample.
func (t *Tally) Observe(v float64) {
	if t.h == nil {
		return
	}
	for i, b := range t.bounds {
		if v <= b {
			t.counts[i]++
			break
		}
	}
	t.count++
	t.sum += v
}

// ObserveDuration stages d in seconds.
func (t *Tally) ObserveDuration(d time.Duration) {
	t.Observe(d.Seconds())
}

// Flush adds the staged observations to the histogram and empties the
// tally.
func (t *Tally) Flush() {
	if t.count == 0 {
		return
	}
	for i, n := range t.counts {
		if n > 0 {
			t.h.counts[i].Add(n)
			t.counts[i] = 0
		}
	}
	t.h.count.Add(t.count)
	t.h.addSum(t.sum)
	t.count, t.sum = 0, 0
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (non-cumulative); Count is the +Inf total.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// snapshot copies the histogram state. Individual fields are each read
// atomically; the set is not a consistent cut (writers are never blocked),
// which is fine for progress reporting.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Stage is a named coarse phase of a scan whose durations are recorded
// into a histogram. Times are in the caller's clock domain (the scanner
// passes virtual time). A nil Stage is a valid no-op.
type Stage struct {
	h *Histogram
}

// Start opens a span at the given instant. Valid on a nil receiver (the
// returned span's End is then a no-op).
func (s *Stage) Start(at time.Time) Span {
	return Span{stage: s, start: at}
}

// Span is an open interval of a Stage. It is a value type: passing it
// around allocates nothing.
type Span struct {
	stage *Stage
	start time.Time
}

// End closes the span at the given instant, recording the duration.
func (sp Span) End(at time.Time) {
	s := sp.stage
	if s == nil {
		return
	}
	d := at.Sub(sp.start)
	if d < 0 {
		d = 0
	}
	s.h.ObserveDuration(d)
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use. A nil *Registry is valid and hands out nil (no-op)
// instruments, so instrumented code needs no enabled/disabled branches.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	helps  map[string]string // base family name → HELP text
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// SetHelp attaches a HELP string to a metric family (the base name,
// without labels). WritePrometheus emits it as a `# HELP` line, once per
// family regardless of how many labeled series the family has. An empty
// help clears the entry. No-op on a nil registry.
func (r *Registry) SetHelp(base, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if help == "" {
		delete(r.helps, base)
		return
	}
	if r.helps == nil {
		r.helps = map[string]string{}
	}
	r.helps[base] = help
}

// Describe registers HELP strings for several metric families at once —
// the batch form of SetHelp, for subsystems that contribute a family of
// related metrics (the shard supervisor, the scanner). Empty values clear
// entries, like SetHelp. No-op on a nil registry.
func (r *Registry) Describe(help map[string]string) {
	for base, text := range help {
		r.SetHelp(base, text)
	}
}

// helpTexts copies the HELP map for the exposition writer.
func (r *Registry) helpTexts() map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.helps) == 0 {
		return nil
	}
	out := make(map[string]string, len(r.helps))
	for k, v := range r.helps {
		out[k] = v
	}
	return out
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (later calls reuse the
// original buckets). Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Stage returns a named scan stage recording into the histogram
// `<name>{stage="<stage>"}`. Returns nil (no-op) on a nil registry.
func (r *Registry) Stage(name, stage string, bounds []float64) *Stage {
	if r == nil {
		return nil
	}
	return &Stage{h: r.Histogram(Name(name, "stage", stage), bounds)}
}

// DurationBuckets are the default bounds (seconds) for per-stage
// virtual-time histograms: 1 ms up to the 6 s scan timeout.
var DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 6}

// DepthBuckets are bounds for small discrete depths (redirect chains).
var DepthBuckets = []float64{0, 1, 2, 3, 4}

// Name builds a full Prometheus series name from a base metric name and
// label key/value pairs: Name("x_total", "class", "timeout") returns
// `x_total{class="timeout"}`. Labels are emitted in the given order; call
// with an even number of kv arguments.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitName separates a full series name into its base metric name and the
// label body (without braces): `x{a="b"}` → ("x", `a="b"`).
func splitName(full string) (base, labels string) {
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i], strings.TrimSuffix(full[i+1:], "}")
	}
	return full, ""
}
