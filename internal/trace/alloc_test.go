package trace

import (
	"testing"
	"time"
)

// TestDisabledTracingZeroAlloc is the acceptance gate for "provably off
// the hot path": the full per-domain recorder call sequence, exactly as
// the scanner issues it, must allocate nothing when tracing is disabled
// (nil tracer → nil recorder). scripts/check.sh runs this test by name.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	var tr *Tracer
	r := tr.Recorder(0)
	at := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Begin("example.com", at)
		r.StageStart("dns", at)
		r.StageEnd(at)
		r.StageStart("connect", at)
		r.SpanAttrInt("hop", 0)
		r.SpanAttr("ip", "192.0.2.1")
		r.StageEnd(at)
		r.StageStart("observe", at)
		r.SpanAttrInt("edges", 12)
		r.StageEnd(at)
		r.AttrInt("retries", 0)
		r.Error("")
		r.End(at, "ok")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f allocs per scan, want 0", allocs)
	}
}

// TestEnabledTracingSteadyStateAllocs pins the enabled path's amortised
// cost: once the ring is warm and no exemplar accepts the trace, a full
// successful-scan trace must reuse recycled Trace objects (zero
// steady-state allocations).
func TestEnabledTracingSteadyStateAllocs(t *testing.T) {
	tr := New(Config{})
	r := tr.Recorder(0)
	at := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	run := func(d time.Duration) {
		r.Begin("example.com", at)
		r.StageStart("dns", at)
		r.StageEnd(at)
		r.StageStart("connect", at)
		r.SpanAttrInt("hop", 0)
		r.StageEnd(at.Add(d))
		r.AttrInt("retries", 0)
		r.End(at.Add(d), "ok")
	}
	// Warm up: fill the ring and saturate the slowest-exemplar heap with
	// longer traces so steady-state offers are rejected by comparison.
	for i := 0; i < ringSize+exemplars; i++ {
		run(time.Second)
	}
	allocs := testing.AllocsPerRun(1000, func() { run(time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("enabled tracing steady state allocates %.1f allocs per scan, want 0", allocs)
	}
}
