package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer owns the campaign's trace state: one Recorder per worker shard,
// the shared exemplar sampler, and the flight-recorder dump budget. A nil
// *Tracer is valid and hands out nil (no-op) Recorders, so instrumented
// code needs no enabled/disabled branches.
type Tracer struct {
	cfg Config

	mu   sync.Mutex
	recs map[int]*Recorder

	ex      *exemplarSet
	dumpSeq atomic.Int64
	dumps   atomic.Int64
}

// SyntheticWorkerBase is the top of the recorder-id range reserved for
// campaign-level event sources that are not scan workers (the shard
// supervisor records restart events under SyntheticWorkerBase - shard).
// Scan workers use ids >= 0; the two ranges never collide.
const SyntheticWorkerBase = -1

// New creates a Tracer. cfg zero values select defaults (see Config).
func New(cfg Config) *Tracer {
	return &Tracer{
		cfg:  cfg,
		recs: map[int]*Recorder{},
		ex:   newExemplarSet(),
	}
}

// Recorder returns the recorder for one worker shard, creating it on
// first use; repeated calls (a campaign's later weeks, shard restarts) return
// the same recorder so its flight ring survives. Returns nil (a no-op
// recorder) on a nil tracer.
func (t *Tracer) Recorder(worker int) *Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recs[worker]
	if r == nil {
		r = &Recorder{t: t, worker: worker, ring: make([]*Trace, ringSize)}
		t.recs[worker] = r
	}
	return r
}

// Exemplars returns the sampler's current state (cloned, caller-owned).
// Nil-safe.
func (t *Tracer) Exemplars() ExemplarSnapshot {
	if t == nil {
		return ExemplarSnapshot{}
	}
	return t.ex.snapshot()
}

// Recent returns up to max recent traces across all workers, newest
// first (cloned, caller-owned). max <= 0 means all retained traces.
func (t *Tracer) Recent(max int) []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	workers := make([]*Recorder, 0, len(t.recs))
	for _, r := range t.recs {
		workers = append(workers, r)
	}
	t.mu.Unlock()
	var all []*Trace
	for _, r := range workers {
		all = append(all, r.recent()...)
	}
	sortTracesNewestFirst(all)
	if max > 0 && len(all) > max {
		all = all[:max]
	}
	return all
}

// Recorder builds and retains traces for one worker shard. The building
// side (Begin/Stage*/Attr*/End) is single-goroutine — the worker that owns
// the shard — while the committed ring is read concurrently by the
// dashboard, so ring access is mutex-protected. All methods are no-ops on
// a nil receiver and allocate nothing in that case.
type Recorder struct {
	t      *Tracer
	worker int

	// cur is the trace being built; owned by the worker goroutine.
	cur     *Trace
	pending []Attr // attrs queued before Begin (breaker state, replay)
	dump    string // non-empty: End triggers a flight dump with this reason
	seq     uint64

	// mu guards the committed ring and the freelist (the dashboard reads
	// the ring while the worker commits into it).
	mu   sync.Mutex
	ring []*Trace // fixed-size; ring[(head+i)%len] for i<n, oldest first
	head int
	n    int
	free []*Trace
}

// Begin opens a trace for one domain at the engine-clock instant `at`.
// Attrs queued with Pending/PendingInt are drained into the new trace.
func (r *Recorder) Begin(domain string, at time.Time) {
	if r == nil {
		return
	}
	if r.cur != nil {
		// A trace left open (engine bug) is committed as lost rather than
		// leaked; its End stays at the last known instant.
		r.commit("lost")
	}
	t := r.takeFree()
	t.Domain = domain
	t.Worker = r.worker
	t.Seq = r.seq
	r.seq++
	t.Start, t.End = at, at
	t.Attrs = append(t.Attrs, r.pending...)
	r.pending = r.pending[:0]
	r.cur = t
}

// Pending queues a string attr for the next Begin (used by the campaign
// layer, which learns breaker/replay context before the engine runs).
func (r *Recorder) Pending(key, val string) {
	if r == nil {
		return
	}
	r.pending = append(r.pending, Attr{Key: key, Str: val})
}

// Attr annotates the open trace with a string value.
func (r *Recorder) Attr(key, val string) {
	if r == nil || r.cur == nil {
		return
	}
	r.cur.Attrs = append(r.cur.Attrs, Attr{Key: key, Str: val})
}

// AttrInt annotates the open trace with an integer value.
func (r *Recorder) AttrInt(key string, val int64) {
	if r == nil || r.cur == nil {
		return
	}
	r.cur.Attrs = append(r.cur.Attrs, Attr{Key: key, Int: val})
}

// StageStart opens a new span. Spans are a flat sequence, not a stack: a
// span not closed by StageEnd stays zero-length at its start instant.
func (r *Recorder) StageStart(stage string, at time.Time) {
	if r == nil || r.cur == nil {
		return
	}
	// Reuse the recycled span slot in place so its attr slice keeps its
	// capacity (a plain append would overwrite it with nil and put span
	// attrs back on the heap every scan).
	spans := r.cur.Spans
	if len(spans) < cap(spans) {
		spans = spans[:len(spans)+1]
		sp := &spans[len(spans)-1]
		sp.Stage, sp.Start, sp.End = stage, at, at
		sp.Attrs = sp.Attrs[:0]
	} else {
		spans = append(spans, Span{Stage: stage, Start: at, End: at})
	}
	r.cur.Spans = spans
}

// StageEnd closes the open span at the given instant.
func (r *Recorder) StageEnd(at time.Time) {
	if r == nil || r.cur == nil {
		return
	}
	r.closeOpenSpanAt(at)
}

// SpanAttr annotates the most recent span with a string value.
func (r *Recorder) SpanAttr(key, val string) {
	if r == nil || r.cur == nil || len(r.cur.Spans) == 0 {
		return
	}
	sp := &r.cur.Spans[len(r.cur.Spans)-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Str: val})
}

// SpanAttrInt annotates the most recent span with an integer value.
func (r *Recorder) SpanAttrInt(key string, val int64) {
	if r == nil || r.cur == nil || len(r.cur.Spans) == 0 {
		return
	}
	sp := &r.cur.Spans[len(r.cur.Spans)-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Int: val})
}

// Error records the scan's error string on the open trace (first error
// wins; later calls with an empty string are no-ops).
func (r *Recorder) Error(errStr string) {
	if r == nil || r.cur == nil || errStr == "" || r.cur.Err != "" {
		return
	}
	r.cur.Err = errStr
}

// MarkDump requests a flight-recorder dump when the open trace commits
// (budget kills and stalls are detected mid-scan, but the dump should
// include the finished trace).
func (r *Recorder) MarkDump(reason string) {
	if r == nil || r.cur == nil {
		return
	}
	r.dump = reason
}

// End closes the open trace at the engine-clock instant `at` with the
// given outcome label, commits it to the flight ring and offers it to the
// exemplar sampler. A dump requested via MarkDump is written afterwards.
func (r *Recorder) End(at time.Time, outcome string) {
	if r == nil || r.cur == nil {
		return
	}
	r.closeOpenSpanAt(at)
	r.cur.End = at
	r.commit(outcome)
}

// Event records a complete zero-duration synthetic trace in one call:
// Begin at `at`, the given key/value string attrs (pairs; a trailing odd
// key is ignored), End with the outcome. It is how campaign-layer events
// that never ran an engine — checkpoint replays, breaker skips,
// supervisor restarts — enter the flight ring. Nil-safe.
func (r *Recorder) Event(domain string, at time.Time, outcome string, kv ...string) {
	if r == nil {
		return
	}
	r.Begin(domain, at)
	for i := 0; i+1 < len(kv); i += 2 {
		r.Attr(kv[i], kv[i+1])
	}
	r.End(at, outcome)
}

// Abort commits a partially built trace (panic unwound through the
// engine before End could run) with the given outcome, then dumps the
// flight recorder with the same reason. No-op when no trace is open.
func (r *Recorder) Abort(reason string) {
	if r == nil || r.cur == nil {
		return
	}
	r.dump = reason
	r.commit(reason)
}

// Active reports whether a trace is currently open.
func (r *Recorder) Active() bool { return r != nil && r.cur != nil }

// closeOpenSpanAt sets the last span's end (spans are closed in order).
func (r *Recorder) closeOpenSpanAt(at time.Time) {
	if n := len(r.cur.Spans); n > 0 {
		sp := &r.cur.Spans[n-1]
		if at.After(sp.End) {
			sp.End = at
		}
	}
}

// takeFree pops a recycled trace (or allocates one).
func (r *Recorder) takeFree() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		t := r.free[n-1]
		r.free = r.free[:n-1]
		return t
	}
	return &Trace{}
}

// commit finalises cur into the ring (evicting the oldest into the
// freelist), offers it to the exemplar sampler, and handles a pending
// dump request.
func (r *Recorder) commit(outcome string) {
	t := r.cur
	r.cur = nil
	t.Outcome = outcome
	r.t.ex.offer(t)

	r.mu.Lock()
	if r.n == len(r.ring) {
		old := r.ring[r.head]
		r.ring[r.head] = t
		r.head = (r.head + 1) % len(r.ring)
		old.reset()
		r.free = append(r.free, old)
	} else {
		r.ring[(r.head+r.n)%len(r.ring)] = t
		r.n++
	}
	r.mu.Unlock()

	if reason := r.dump; reason != "" {
		r.dump = ""
		r.t.dumpFlight(reason, r.worker, t.Domain)
	}
}

// recent clones the committed ring, newest first.
func (r *Recorder) recent() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, r.n)
	for i := r.n - 1; i >= 0; i-- {
		out = append(out, r.ring[(r.head+i)%len(r.ring)].clone())
	}
	return out
}

// sortTracesNewestFirst orders traces for the recent view: end time
// descending (virtual end times are comparable across workers of one
// run), with deterministic (worker, seq) tie-breaks — the fast engine
// produces many identical timestamps.
func sortTracesNewestFirst(ts []*Trace) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if !a.End.Equal(b.End) {
			return a.End.After(b.End)
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Seq > b.Seq
	})
}
