package sim

import (
	"math/rand"
	"testing"
	"time"
)

var epoch = time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop(epoch)
	var order []int
	l.After(30*time.Millisecond, func(time.Time) { order = append(order, 3) })
	l.After(10*time.Millisecond, func(time.Time) { order = append(order, 1) })
	l.After(20*time.Millisecond, func(time.Time) { order = append(order, 2) })
	if n := l.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("firing order = %v", order)
	}
	if got := l.Now(); !got.Equal(epoch.Add(30 * time.Millisecond)) {
		t.Errorf("clock = %v, want epoch+30ms", got)
	}
}

func TestLoopSameInstantFIFO(t *testing.T) {
	l := NewLoop(epoch)
	var order []int
	at := epoch.Add(time.Second)
	for i := 0; i < 5; i++ {
		i := i
		l.At(at, func(time.Time) { order = append(order, i) })
	}
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestLoopCancellation(t *testing.T) {
	l := NewLoop(epoch)
	fired := false
	tm := l.After(time.Second, func(time.Time) { fired = true })
	if !tm.Stop() {
		t.Error("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	if l.Run() != 0 || fired {
		t.Error("canceled event fired")
	}
}

func TestLoopReschedulingDuringRun(t *testing.T) {
	l := NewLoop(epoch)
	count := 0
	var tick func(time.Time)
	tick = func(time.Time) {
		count++
		if count < 4 {
			l.After(10*time.Millisecond, tick)
		}
	}
	l.After(10*time.Millisecond, tick)
	l.Run()
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
	if got, want := l.Now(), epoch.Add(40*time.Millisecond); !got.Equal(want) {
		t.Errorf("clock = %v, want %v", got, want)
	}
}

func TestRunUntil(t *testing.T) {
	l := NewLoop(epoch)
	var fired []int
	l.After(10*time.Millisecond, func(time.Time) { fired = append(fired, 1) })
	l.After(50*time.Millisecond, func(time.Time) { fired = append(fired, 2) })
	l.RunUntil(epoch.Add(20 * time.Millisecond))
	if len(fired) != 1 || fired[0] != 1 {
		t.Errorf("fired = %v, want [1]", fired)
	}
	if !l.Now().Equal(epoch.Add(20 * time.Millisecond)) {
		t.Errorf("clock = %v", l.Now())
	}
	if l.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", l.Pending())
	}
	l.RunUntil(epoch.Add(time.Second))
	if len(fired) != 2 {
		t.Errorf("fired = %v, want [1 2]", fired)
	}
}

func TestSchedulingInPastRunsAtNow(t *testing.T) {
	l := NewLoop(epoch)
	l.RunUntil(epoch.Add(time.Second))
	var at time.Time
	l.At(epoch, func(now time.Time) { at = now })
	l.Run()
	if !at.Equal(epoch.Add(time.Second)) {
		t.Errorf("past event ran at %v, want now", at)
	}
}

func BenchmarkLoopScheduleAndFire(b *testing.B) {
	l := NewLoop(epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.After(time.Duration(i%100)*time.Microsecond, func(time.Time) {})
		if i%64 == 63 {
			l.Run()
		}
	}
	l.Run()
}

// TestLoopMatchesReference drives seeded random interleavings of At, After,
// Stop, Step, RunUntil and Pending — many deadlines on the same instant,
// some in the past, some scheduled from inside callbacks — and checks every
// firing against a reference that picks the earliest pending event by
// (deadline, scheduling order).
func TestLoopMatchesReference(t *testing.T) {
	type refEvent struct {
		at      time.Time
		timer   Timer
		pending bool
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLoop(epoch)
		var ref []*refEvent // in scheduling order, so index order breaks ties
		fired := 0
		// instant picks from a small grid around now so deadlines collide.
		instant := func() time.Time {
			return l.Now().Add(time.Duration(rng.Intn(12)-2) * time.Millisecond)
		}
		var schedule func(at time.Time, after bool)
		fire := func(id int) func(now time.Time) {
			return func(now time.Time) {
				next := -1
				for i, r := range ref {
					if r.pending && (next < 0 || r.at.Before(ref[next].at)) {
						next = i
					}
				}
				if next != id {
					t.Fatalf("seed %d: fired event %d, reference fires %d", seed, id, next)
				}
				if !now.Equal(ref[id].at) || !l.Now().Equal(now) {
					t.Fatalf("seed %d: event %d fired at %v (Now %v), want %v", seed, id, now, l.Now(), ref[id].at)
				}
				ref[id].pending = false
				fired++
				for rng.Intn(3) == 0 {
					schedule(instant(), rng.Intn(2) == 0)
				}
			}
		}
		schedule = func(at time.Time, after bool) {
			r := &refEvent{at: at, pending: true}
			if at.Before(l.Now()) {
				r.at = l.Now()
			}
			id := len(ref)
			ref = append(ref, r)
			if after {
				r.timer = l.After(at.Sub(l.Now()), fire(id))
			} else {
				r.timer = l.At(at, fire(id))
			}
		}
		pending := func() int {
			n := 0
			for _, r := range ref {
				if r.pending {
					n++
				}
			}
			return n
		}

		for op := 0; op < 600; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				schedule(instant(), k%2 == 0)
			case k < 6:
				if len(ref) == 0 {
					continue
				}
				r := ref[rng.Intn(len(ref))]
				if got := r.timer.Stop(); got != r.pending {
					t.Fatalf("seed %d op %d: Stop = %v, want %v", seed, op, got, r.pending)
				}
				r.pending = false
			case k < 8:
				want := pending() > 0
				before := fired
				if got := l.Step(); got != want || (fired == before+1) != want {
					t.Fatalf("seed %d op %d: Step = %v (fired %d), want %v", seed, op, got, fired-before, want)
				}
			case k < 9:
				until := instant()
				want := l.Now()
				if until.After(want) {
					want = until
				}
				l.RunUntil(until)
				for i, r := range ref {
					if r.pending && !r.at.After(until) {
						t.Fatalf("seed %d op %d: RunUntil(%v) left event %d at %v", seed, op, until, i, r.at)
					}
				}
				if !l.Now().Equal(want) {
					t.Fatalf("seed %d op %d: Now after RunUntil = %v, want %v", seed, op, l.Now(), want)
				}
			default:
				if (Timer{}).Stop() {
					t.Fatalf("seed %d op %d: the zero Timer stopped something", seed, op)
				}
			}
			if got, want := l.Pending(), pending(); got != want {
				t.Fatalf("seed %d op %d: Pending = %d, want %d", seed, op, got, want)
			}
		}
		l.Run()
		if n := pending(); n != 0 {
			t.Fatalf("seed %d: Run left %d reference events pending", seed, n)
		}
	}
}

// TestLoopSteadyStateZeroAlloc holds the package's promise: once the heap
// and the freelist have grown, scheduling and firing allocate nothing.
func TestLoopSteadyStateZeroAlloc(t *testing.T) {
	l := NewLoop(epoch)
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		l.After(time.Duration(i)*time.Millisecond, fn)
	}
	l.Run()
	if n := testing.AllocsPerRun(1000, func() {
		l.After(time.Millisecond, fn)
		l.At(l.Now(), fn)
		l.Step()
		l.Step()
	}); n != 0 {
		t.Fatalf("At + Step allocate %v times per run, want 0", n)
	}
}
