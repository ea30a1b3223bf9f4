package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Error("Counter not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if s.Sum != 5.555 {
		t.Errorf("sum = %v, want 5.555", s.Sum)
	}
}

// TestTallyFlushMatchesObserve: samples staged in tallies and flushed read
// as the same samples observed on the histogram itself, a flush empties its
// tally, and the nil histogram's tally is a no-op.
func TestTallyFlushMatchesObserve(t *testing.T) {
	r := New()
	bounds := []float64{0.01, 0.1, 1}
	direct := r.Histogram("direct_seconds", bounds)
	staged := r.Histogram("staged_seconds", bounds)
	a, b := staged.Tally(), staged.Tally()
	samples := []float64{0.005, 0.05, 0.5, 5, 0.01, 0.25}
	for i, v := range samples {
		direct.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.ObserveDuration(time.Duration(v * float64(time.Second)))
		}
		if i == 2 {
			a.Flush()
		}
	}
	if got := staged.snapshot().Count; got != 2 {
		t.Errorf("before the last flushes the histogram counts %d, want the 2 flushed", got)
	}
	a.Flush()
	b.Flush()
	a.Flush() // empty: adds nothing
	want, got := direct.snapshot(), staged.snapshot()
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Errorf("flushed count/sum = %d/%v, want %d/%v", got.Count, got.Sum, want.Count, want.Sum)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Errorf("bucket %d = %d, want %d", i, got.Counts[i], want.Counts[i])
		}
	}
	var nilHist *Histogram
	nt := nilHist.Tally()
	nt.Observe(1)
	nt.Flush()
	var zero Tally
	zero.Observe(1)
	zero.Flush()
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	st := r.Stage("stage_seconds", "handshake", DurationBuckets)
	c.Inc()
	c.Add(3)
	g.Set(9)
	h.Observe(1)
	st.Start(time.Now()).End(time.Now())
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

func TestStageRecordsSpans(t *testing.T) {
	r := New()
	st := r.Stage("spinscan_stage_seconds", "handshake", DurationBuckets)
	t0 := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	sp := st.Start(t0)
	sp.End(t0.Add(30 * time.Millisecond))
	snap := r.Snapshot()
	h, ok := snap.Histograms[`spinscan_stage_seconds{stage="handshake"}`]
	if !ok {
		t.Fatalf("stage histogram missing; have %v", snap.Histograms)
	}
	if h.Count != 1 {
		t.Errorf("stage count = %d, want 1", h.Count)
	}
}

// TestConcurrentUse exercises parallel writers against snapshot readers;
// run under -race (scripts/check.sh does).
func TestConcurrentUse(t *testing.T) {
	r := New()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A snapshot/exposition reader racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot()
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total")
			h := r.Histogram("conc_seconds", DurationBuckets)
			g := r.Gauge("conc_gauge")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 100)
				g.Add(1)
				// Late registration races registry lookups too.
				r.Counter(Name("conc_labelled_total", "w", "x")).Inc()
			}
		}(w)
	}
	// Wait for writers, then stop the reader.
	<-waitWriters(r, writers*perWriter)
	close(stop)
	wg.Wait()

	if got := r.Counter("conc_total").Value(); got != writers*perWriter {
		t.Errorf("conc_total = %d, want %d", got, writers*perWriter)
	}
	if got := r.Counter(Name("conc_labelled_total", "w", "x")).Value(); got != writers*perWriter {
		t.Errorf("labelled = %d, want %d", got, writers*perWriter)
	}
	snap := r.Snapshot()
	if snap.Histograms["conc_seconds"].Count != writers*perWriter {
		t.Errorf("histogram count = %d", snap.Histograms["conc_seconds"].Count)
	}
}

// waitWriters returns a channel closed once conc_total reaches want.
func waitWriters(r *Registry, want int64) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		for r.Counter("conc_total").Value() < want {
			time.Sleep(time.Millisecond)
		}
		close(ch)
	}()
	return ch
}

func TestNameAndEscaping(t *testing.T) {
	if got := Name("x_total"); got != "x_total" {
		t.Errorf("Name = %q", got)
	}
	if got := Name("x_total", "class", "timeout"); got != `x_total{class="timeout"}` {
		t.Errorf("Name = %q", got)
	}
	if got := Name("x", "a", "1", "b", "2"); got != `x{a="1",b="2"}` {
		t.Errorf("Name = %q", got)
	}
	if got := Name("x", "a", "q\"uo\\te\n"); got != `x{a="q\"uo\\te\n"}` {
		t.Errorf("escaped Name = %q", got)
	}
}

func TestCounterTotalAcrossLabels(t *testing.T) {
	r := New()
	r.Counter(Name("errs_total", "class", "timeout")).Add(3)
	r.Counter(Name("errs_total", "class", "reset")).Add(2)
	r.Counter("other_total").Add(10)
	if got := r.CounterTotal("errs_total"); got != 5 {
		t.Errorf("CounterTotal = %d, want 5", got)
	}
}

// TestPrometheusGolden pins the full text exposition of a small registry.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("scan_domains_total").Add(12)
	r.Counter(Name("scan_errs_total", "class", "reset")).Add(2)
	r.Counter(Name("scan_errs_total", "class", "timeout")).Add(5)
	r.Gauge("scan_week").Set(3)
	h := r.Histogram(Name("scan_stage_seconds", "stage", "handshake"), []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	hp := r.Histogram("scan_depth", []float64{0, 1})
	hp.Observe(0)
	hp.Observe(1)
	hp.Observe(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE scan_depth histogram
scan_depth_bucket{le="0"} 1
scan_depth_bucket{le="1"} 3
scan_depth_bucket{le="+Inf"} 3
scan_depth_sum 2
scan_depth_count 3
# TYPE scan_domains_total counter
scan_domains_total 12
# TYPE scan_errs_total counter
scan_errs_total{class="reset"} 2
scan_errs_total{class="timeout"} 5
# TYPE scan_stage_seconds histogram
scan_stage_seconds_bucket{stage="handshake",le="0.01"} 1
scan_stage_seconds_bucket{stage="handshake",le="0.1"} 2
scan_stage_seconds_bucket{stage="handshake",le="+Inf"} 3
scan_stage_seconds_sum{stage="handshake"} 0.555
scan_stage_seconds_count{stage="handshake"} 3
# TYPE scan_week gauge
scan_week 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// BenchmarkCounterInc is the hot-path budget check: must report 0 allocs/op.
func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterIncDisabled measures the disabled (nil) path.
func BenchmarkCounterIncDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve must also report 0 allocs/op.
func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("bench_seconds", DurationBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 1000)
	}
}

// BenchmarkSpan covers the full stage start/end path.
func BenchmarkSpan(b *testing.B) {
	r := New()
	st := r.Stage("bench_stage_seconds", "handshake", DurationBuckets)
	t0 := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Start(t0).End(t0.Add(time.Duration(i%1000) * time.Microsecond))
	}
}

// TestCounterHotPathAllocFree asserts the acceptance criterion (0 allocs)
// in a regular test so plain `go test` enforces it, not only -bench runs.
func TestCounterHotPathAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("alloc_total")
	h := r.Histogram("alloc_seconds", DurationBuckets)
	tally := h.Tally()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(0.01)
		tally.Observe(0.01)
		tally.Flush()
	})
	if allocs != 0 {
		t.Errorf("hot path allocates %v allocs/op, want 0", allocs)
	}
}
