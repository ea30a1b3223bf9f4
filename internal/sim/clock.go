// Package sim provides the time substrate shared by the QUIC-lite transport,
// the network emulator, and the measurement campaign engine: a deterministic
// virtual-time event loop that lets emulated seconds cost microseconds of
// CPU. Emulation code takes a *Loop (and every transport call takes the
// current time explicitly) instead of calling time.Now.
package sim

import "time"

// event is a scheduled callback in a virtual-time Loop. Events are recycled
// through the Loop's freelist once fired or reaped; gen distinguishes the
// incarnations so a stale Timer cannot cancel a recycled event.
type event struct {
	at  time.Time
	gen uint64 // incarnation counter, bumped on every recycle
	fn  func(now time.Time)
	// canceled marks an event removed before firing.
	canceled bool
}

// entry is one slot of the Loop's event heap. It carries the ordering key
// by value, so sifting compares two integers and never dereferences an
// event. Keys saturate about 292 years from the start instant; deadlines
// beyond that tie and fire in scheduling order.
type entry struct {
	at  int64  // deadline in nanoseconds since the loop's start instant
	seq uint64 // tie-breaker for deterministic FIFO ordering at equal times
	e   *event
}

// before is the heap order: (at, seq), a total order, so events fire in one
// deterministic sequence whatever the heap's shape.
func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Loop is a deterministic discrete-event simulator and virtual clock.
// Callbacks scheduled at the same instant fire in scheduling order.
// Loop is not safe for concurrent use; the whole point is that a simulation
// is single-threaded and reproducible.
type Loop struct {
	start time.Time
	now   time.Time
	seq   uint64
	// queue is a binary min-heap under entry.before.
	queue []entry
	// free recycles fired/reaped events: a campaign schedules millions of
	// short-lived timers, and reusing their event structs keeps the loop's
	// steady-state allocation at zero.
	free []*event
}

// NewLoop returns a Loop whose clock starts at start.
func NewLoop(start time.Time) *Loop {
	return &Loop{start: start, now: start}
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
	l.push(entry{at: int64(at.Sub(l.start)), seq: l.seq, e: e})
	l.seq++
	return Timer{e: e, gen: e.gen}
}

// push adds x to the heap.
func (l *Loop) push(x entry) {
	q := append(l.queue, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	l.queue = q
}

// pop removes and returns the heap's earliest event.
func (l *Loop) pop() *event {
	q := l.queue
	top := q[0].e
	n := len(q) - 1
	x := q[n]
	q[n] = entry{} // drop the event pointer from the spare capacity
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(x) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = x
	}
	l.queue = q
	return top
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
	for len(l.queue) > 0 {
		e := l.pop()
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
	for len(l.queue) > 0 {
		e := l.queue[0].e
		if e.canceled {
			l.recycle(l.pop())
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
	for _, x := range l.queue {
		if !x.e.canceled {
			n++
		}
	}
	return n
}
