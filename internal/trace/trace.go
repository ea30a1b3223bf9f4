// Package trace is the scanner's per-domain structured tracing layer: a
// zero-dependency, allocation-conscious record of *why* one domain was
// classified the way it was. Every scanned domain produces a bounded Trace
// of stage spans (dns → connect → handshake → h3 → observe → classify)
// with attributes like retry count, hostile profile and spin edge count,
// timestamped on the engine's clock — virtual time for the emulated
// engine, so traces are deterministic for a fixed seed.
//
// Traces feed two consumers:
//
//   - A fixed-size per-worker ring buffer (the flight recorder): panics,
//     watchdog stalls and resource-budget kills dump the last N traces of
//     every worker to disk for postmortem instead of vanishing into a
//     one-line error string. See flight.go.
//   - An exemplar sampler that keeps the K slowest traces and the K most
//     recent failed traces per error class, so the interesting minority of
//     a multi-million-domain campaign stays inspectable. See exemplar.go.
//
// The whole layer is provably off the hot path: a nil *Tracer hands out
// nil *Recorders whose every method is an inlineable nil-check no-op (the
// AllocsPerRun gate in alloc_test.go pins zero allocations), and an
// enabled recorder recycles Trace objects through the ring's freelist so
// steady-state tracing allocates only for retained exemplars.
package trace

import (
	"fmt"
	"time"
)

// Attr is one key/value annotation on a trace or span. Exactly one of Str
// and Int is meaningful: string attrs leave Int at zero, integer attrs
// leave Str empty.
type Attr struct {
	Key string `json:"k"`
	Str string `json:"v,omitempty"`
	Int int64  `json:"n,omitempty"`
}

// Value renders the attr's value for the text view.
func (a Attr) Value() string {
	if a.Str != "" {
		return a.Str
	}
	return fmt.Sprintf("%d", a.Int)
}

// Span is one stage of a domain scan. Start and End are on the engine's
// clock (virtual time under emulation); a zero-duration span marks an
// instantaneous stage (classification, synthesis).
type Span struct {
	Stage string    `json:"stage"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Trace is the full record of one domain scan.
type Trace struct {
	Domain string    `json:"domain"`
	Worker int       `json:"worker"`
	Seq    uint64    `json:"seq"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Outcome is "ok" for clean scans, otherwise the failure class
	// (resilience.Classify label, or "panic"/"stall" for aborted scans).
	Outcome string `json:"outcome"`
	// Err is the first error string the scan produced, verbatim.
	Err   string `json:"err,omitempty"`
	Spans []Span `json:"spans,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Duration is the trace's span on the engine clock.
func (t *Trace) Duration() time.Duration { return t.End.Sub(t.Start) }

// reset truncates the trace for reuse, keeping span/attr capacity.
func (t *Trace) reset() {
	for i := range t.Spans {
		t.Spans[i].Attrs = t.Spans[i].Attrs[:0]
	}
	t.Spans = t.Spans[:0]
	t.Attrs = t.Attrs[:0]
	t.Domain, t.Outcome, t.Err = "", "", ""
	t.Start, t.End = time.Time{}, time.Time{}
}

// clone deep-copies the trace (for exemplar retention: ring traces are
// recycled, exemplars must own their memory).
func (t *Trace) clone() *Trace {
	c := *t
	c.Spans = make([]Span, len(t.Spans))
	for i := range t.Spans {
		c.Spans[i] = t.Spans[i]
		if n := len(t.Spans[i].Attrs); n > 0 {
			c.Spans[i].Attrs = append(make([]Attr, 0, n), t.Spans[i].Attrs...)
		} else {
			c.Spans[i].Attrs = nil
		}
	}
	if n := len(t.Attrs); n > 0 {
		c.Attrs = append(make([]Attr, 0, n), t.Attrs...)
	} else {
		c.Attrs = nil
	}
	return &c
}

// Flight-recorder bounds, the same for every Tracer.
const (
	// ringSize is the per-worker flight-recorder depth (last N traces).
	ringSize = 64
	// exemplars bounds the sampler: the K slowest traces overall plus the
	// K most recent failed traces per error class.
	exemplars = 8
	// maxDumps caps the number of dump files one campaign may write, so a
	// pathological run cannot fill the disk.
	maxDumps = 16
)

// Config parameterises a Tracer. The zero value is usable. The ring depth,
// exemplar count and dump cap are the constants ringSize (64), exemplars (8)
// and maxDumps (16).
type Config struct {
	// Dir, when non-empty, is where flight-recorder dumps are written
	// (flight-NNN-<reason>.json). Empty disables dumps.
	Dir string
	// Logf, when non-nil, receives one structured warning line per flight
	// dump (reason, worker, domain, path).
	Logf func(format string, args ...any)
}
