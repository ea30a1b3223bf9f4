package resilience

import (
	"sync"
	"time"
)

// BreakerConfig parameterises the per-prefix/AS circuit breaker. The zero
// value disables breaking. The scanner no longer uses the breaker: its only
// caller is the bench's resilience.breaker row, and it goes with that row
// (ROADMAP item 1).
type BreakerConfig struct {
	// Threshold is the number of consecutive transient failures within one
	// group (prefix or AS) that opens the breaker. Zero disables it.
	Threshold int
	// Cooldown is the virtual time an open breaker waits before letting a
	// half-open probe through. Zero means 30s.
	Cooldown time.Duration
}

// skipCost is the virtual time a skipped domain advances the group clock by
// (the pacing cost of noting and skipping a target).
const skipCost = 250 * time.Millisecond

// Enabled reports whether the breaker is active.
func (c BreakerConfig) Enabled() bool { return c.Threshold > 0 }

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return 30 * time.Second
	}
	return c.Cooldown
}

// State is a breaker group's position in the classic three-state machine.
type State int

const (
	// StateClosed lets every scan through and counts consecutive
	// transient failures.
	StateClosed State = iota
	// StateOpen skips scans until the cooldown elapses on the group's
	// virtual clock.
	StateOpen
	// StateHalfOpen lets exactly one probe scan through; its outcome
	// either closes or re-opens the breaker.
	StateHalfOpen
)

// String returns the conventional state name.
func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Decision is the gate's verdict for one position.
type Decision struct {
	// Skip tells the caller to record a breaker-skipped result instead of
	// scanning.
	Skip bool
	// Probe marks the scan as a half-open probe.
	Probe bool
	// State is the group state the decision was made in.
	State State
	// Aborted reports that the breaker was aborted (campaign interrupt)
	// while waiting; the caller should stop.
	Aborted bool
}

// Outcome is the caller's report of what one position's domain produced.
type Outcome struct {
	// Transient marks a transient-class failure (timeout, stall).
	Transient bool
	// Skipped marks a breaker-skipped result (no scan happened).
	Skipped bool
	// Cost is the virtual time the attempt consumed; skipped outcomes
	// default to skipCost.
	Cost time.Duration
}

// Events reports state transitions caused by one Record call.
type Events struct {
	// Opened: the group transitioned to open (from closed or half-open).
	Opened bool
	// Closed: a half-open probe succeeded and closed the group.
	Closed bool
}

// Breaker is a deterministic per-group circuit breaker shared by all
// campaign workers. Positions within a group are totally ordered: Acquire
// for position p blocks until positions 0..p-1 of the same group have
// recorded their outcomes, which makes every decision a pure function of
// the (deterministic) per-domain outcomes — independent of worker count
// and scheduling. Waits cannot deadlock as long as every worker processes
// its positions in increasing canonical order, which the scanner's strided
// sharding guarantees.
//
// Time is a per-group virtual clock advanced by the reported Outcome.Cost
// of each position (workers' own virtual clocks diverge with scan order,
// so they cannot be used without breaking determinism).
type Breaker struct {
	cfg     BreakerConfig
	mu      sync.Mutex
	cond    *sync.Cond
	groups  map[string]*breakerGroup
	aborted bool
}

type breakerGroup struct {
	next     int // next position allowed to decide
	consec   int // consecutive transient failures while closed
	state    State
	clock    time.Duration // virtual group clock
	openedAt time.Duration
}

// NewBreaker returns a breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	b := &Breaker{cfg: cfg, groups: map[string]*breakerGroup{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *Breaker) group(key string) *breakerGroup {
	g := b.groups[key]
	if g == nil {
		g = &breakerGroup{}
		b.groups[key] = g
	}
	return g
}

// Acquire blocks until every earlier position of the group has recorded
// its outcome, then returns the decision for this position. Callers must
// follow up with exactly one Record for the same (key, pos).
func (b *Breaker) Acquire(key string, pos int) Decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.group(key)
	for g.next != pos && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		return Decision{Aborted: true}
	}
	d := Decision{State: g.state}
	switch g.state {
	case StateOpen:
		if g.clock-g.openedAt >= b.cfg.cooldown() {
			g.state = StateHalfOpen
			d.State = StateHalfOpen
			d.Probe = true
		} else {
			d.Skip = true
		}
	case StateHalfOpen:
		// Unreachable through the gate (the probe's Record always leaves
		// half-open before the next Acquire), but harmless: probe again.
		d.Probe = true
	}
	return d
}

// Record reports the outcome of a position, advances the group state
// machine and clock, and unblocks the next position.
func (b *Breaker) Record(key string, pos int, o Outcome) Events {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.group(key)
	cost := o.Cost
	if cost <= 0 {
		cost = skipCost
	}
	g.clock += cost
	var ev Events
	switch {
	case o.Skipped:
	case g.state == StateClosed:
		if o.Transient {
			g.consec++
			if g.consec >= b.cfg.Threshold {
				g.state = StateOpen
				g.openedAt = g.clock
				ev.Opened = true
			}
		} else {
			g.consec = 0
		}
	case g.state == StateHalfOpen:
		if o.Transient {
			g.state = StateOpen
			g.openedAt = g.clock
			ev.Opened = true
		} else {
			g.state = StateClosed
			g.consec = 0
			ev.Closed = true
		}
	}
	if pos >= g.next {
		g.next = pos + 1
	}
	b.cond.Broadcast()
	return ev
}

// Abort wakes every blocked Acquire with an aborted decision; used when a
// campaign is interrupted so workers parked on the gate can exit.
func (b *Breaker) Abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// GroupState returns the current state of a group (closed for unknown
// keys); exposed for tests and operator tooling.
func (b *Breaker) GroupState(key string) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.groups[key]; ok {
		return g.state
	}
	return StateClosed
}
