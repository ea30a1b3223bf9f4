// Package sim provides the time substrate shared by the QUIC-lite transport,
// the network emulator, and the measurement campaign engine: a deterministic
// virtual-time event loop that lets emulated seconds cost microseconds of
// CPU. Emulation code takes a *Loop (and every transport call takes the
// current time explicitly) instead of calling time.Now.
package sim

import (
	"container/heap"
	"time"
)

// event is a scheduled callback in a virtual-time Loop. Events are recycled
// through the Loop's freelist once fired or reaped; gen distinguishes the
// incarnations so a stale Timer cannot cancel a recycled event.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker for deterministic FIFO ordering at equal times
	gen uint64 // incarnation counter, bumped on every recycle
	fn  func(now time.Time)
	// canceled marks an event removed before firing.
	canceled bool
	index    int
}

// eventQueue is a min-heap of events ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Loop is a deterministic discrete-event simulator and virtual clock.
// Callbacks scheduled at the same instant fire in scheduling order.
// Loop is not safe for concurrent use; the whole point is that a simulation
// is single-threaded and reproducible.
type Loop struct {
	now   time.Time
	seq   uint64
	queue eventQueue
	// free recycles fired/reaped events: a campaign schedules millions of
	// short-lived timers, and reusing their event structs keeps the loop's
	// steady-state allocation at zero.
	free []*event
}

// NewLoop returns a Loop whose clock starts at start.
func NewLoop(start time.Time) *Loop {
	return &Loop{now: start}
}

// Now returns the loop's current virtual time.
func (l *Loop) Now() time.Time { return l.now }

// Timer is a value handle to a scheduled callback that can be canceled. The
// zero Timer is valid and Stop on it is a no-op. Timers stay valid after the
// event fires: the generation check makes Stop on a recycled event a no-op
// instead of canceling an unrelated later event.
type Timer struct {
	e   *event
	gen uint64
}

// Stop cancels the timer. Stopping an already-fired or already-stopped timer
// is a no-op. It reports whether the timer was still pending.
func (t Timer) Stop() bool {
	if t.e == nil || t.e.gen != t.gen || t.e.canceled {
		return false
	}
	t.e.canceled = true
	return true
}

// At schedules fn to run when the virtual clock reaches at. Scheduling in
// the past runs the callback at the current time on the next step.
func (l *Loop) At(at time.Time, fn func(now time.Time)) Timer {
	if at.Before(l.now) {
		at = l.now
	}
	var e *event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free = l.free[:n-1]
		e.at, e.fn, e.canceled = at, fn, false
	} else {
		e = &event{at: at, fn: fn}
	}
	e.seq = l.seq
	l.seq++
	heap.Push(&l.queue, e)
	return Timer{e: e, gen: e.gen}
}

// After schedules fn to run after d of virtual time.
func (l *Loop) After(d time.Duration, fn func(now time.Time)) Timer {
	return l.At(l.now.Add(d), fn)
}

// recycle returns a popped event to the freelist, invalidating outstanding
// Timer handles to it.
func (l *Loop) recycle(e *event) {
	e.gen++
	e.fn = nil // release the closure
	l.free = append(l.free, e)
}

// Step fires the earliest pending event, advancing the clock to its
// deadline. It reports whether an event was fired.
func (l *Loop) Step() bool {
	for l.queue.Len() > 0 {
		e := heap.Pop(&l.queue).(*event)
		if e.canceled {
			l.recycle(e)
			continue
		}
		l.now = e.at
		fn := e.fn
		// Recycle before firing: the callback may schedule new events, and
		// the freed struct is immediately reusable for them.
		l.recycle(e)
		fn(l.now)
		return true
	}
	return false
}

// Run fires events until the queue is empty and returns the number fired.
func (l *Loop) Run() int {
	n := 0
	for l.Step() {
		n++
	}
	return n
}

// RunUntil fires events with deadlines at or before t, then advances the
// clock to t. Events scheduled while running are processed if they fall
// within the horizon.
func (l *Loop) RunUntil(t time.Time) {
	for l.queue.Len() > 0 {
		e := l.queue[0]
		if e.canceled {
			l.recycle(heap.Pop(&l.queue).(*event))
			continue
		}
		if e.at.After(t) {
			break
		}
		l.Step()
	}
	if t.After(l.now) {
		l.now = t
	}
}

// Pending returns the number of live (non-canceled) events in the queue.
func (l *Loop) Pending() int {
	n := 0
	for _, e := range l.queue {
		if !e.canceled {
			n++
		}
	}
	return n
}
