package sim

import (
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
