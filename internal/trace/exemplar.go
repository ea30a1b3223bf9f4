package trace

import (
	"sort"
	"sync"
)

// exemplarSet is the campaign-wide trace sampler: it retains the K slowest
// traces overall (a min-heap on duration) and the K most recent failed
// traces per outcome class, so an operator can always answer "what did the
// slowest scans do?" and "show me a dns-timeout" without keeping millions
// of traces. Offers clone the trace only on acceptance; the common case
// (fast, successful scan) is a bounded comparison under a mutex.
type exemplarSet struct {
	mu      sync.Mutex
	slowest []*Trace            // min-heap by Duration, size <= exemplars
	failed  map[string][]*Trace // outcome class → ring of <= exemplars clones
}

func newExemplarSet() *exemplarSet {
	return &exemplarSet{failed: map[string][]*Trace{}}
}

// offer considers one committed trace for retention. The trace is still
// owned by the caller's ring: accepted traces are cloned.
func (e *exemplarSet) offer(t *Trace) {
	e.mu.Lock()
	defer e.mu.Unlock()

	if t.Outcome != "" && t.Outcome != "ok" {
		ring := e.failed[t.Outcome]
		if len(ring) == exemplars {
			// Most recent K win: drop the oldest clone.
			copy(ring, ring[1:])
			ring[len(ring)-1] = t.clone()
		} else {
			ring = append(ring, t.clone())
		}
		e.failed[t.Outcome] = ring
	}

	d := t.Duration()
	if len(e.slowest) < exemplars {
		e.heapPush(t.clone())
		return
	}
	if len(e.slowest) > 0 && d > e.slowest[0].Duration() {
		e.slowest[0] = t.clone()
		e.siftDown(0)
	}
}

// ExemplarSnapshot is a point-in-time copy of the sampler's state, as
// served by the /debug/traces endpoint.
type ExemplarSnapshot struct {
	// Slowest holds the K slowest traces, slowest first.
	Slowest []*Trace `json:"slowest,omitempty"`
	// Failed maps outcome class to its most recent failed traces, oldest
	// first.
	Failed map[string][]*Trace `json:"failed,omitempty"`
}

// snapshot clones the current exemplars (caller-owned).
func (e *exemplarSet) snapshot() ExemplarSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := ExemplarSnapshot{Failed: map[string][]*Trace{}}
	for _, t := range e.slowest {
		s.Slowest = append(s.Slowest, t.clone())
	}
	sort.Slice(s.Slowest, func(i, j int) bool {
		if s.Slowest[i].Duration() != s.Slowest[j].Duration() {
			return s.Slowest[i].Duration() > s.Slowest[j].Duration()
		}
		return s.Slowest[i].Domain < s.Slowest[j].Domain
	})
	for class, ring := range e.failed {
		cs := make([]*Trace, 0, len(ring))
		for _, t := range ring {
			cs = append(cs, t.clone())
		}
		s.Failed[class] = cs
	}
	return s
}

// heapPush inserts into the duration min-heap.
func (e *exemplarSet) heapPush(t *Trace) {
	e.slowest = append(e.slowest, t)
	i := len(e.slowest) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.slowest[parent].Duration() <= e.slowest[i].Duration() {
			break
		}
		e.slowest[parent], e.slowest[i] = e.slowest[i], e.slowest[parent]
		i = parent
	}
}

// siftDown restores the min-heap property from index i.
func (e *exemplarSet) siftDown(i int) {
	n := len(e.slowest)
	for {
		small := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && e.slowest[c].Duration() < e.slowest[small].Duration() {
				small = c
			}
		}
		if small == i {
			return
		}
		e.slowest[i], e.slowest[small] = e.slowest[small], e.slowest[i]
		i = small
	}
}
