package rtt

import (
	"testing"
	"testing/quick"
	"time"
)

func TestFirstSample(t *testing.T) {
	e := New(0)
	if e.HasSample() {
		t.Fatal("fresh estimator claims samples")
	}
	if e.Smoothed() != DefaultInitialRTT || e.Min() != DefaultInitialRTT {
		t.Errorf("defaults: smoothed=%v min=%v", e.Smoothed(), e.Min())
	}
	e.Update(100*time.Millisecond, 50*time.Millisecond, true)
	if !e.HasSample() {
		t.Fatal("HasSample false after Update")
	}
	// ack_delay is ignored on the first sample (RFC 9002 §5.2).
	if e.Smoothed() != 100*time.Millisecond {
		t.Errorf("smoothed = %v, want 100ms", e.Smoothed())
	}
	if e.Min() != 100*time.Millisecond || e.Latest() != 100*time.Millisecond {
		t.Errorf("min=%v latest=%v", e.Min(), e.Latest())
	}
	if e.Var() != 50*time.Millisecond {
		t.Errorf("rttvar = %v, want 50ms", e.Var())
	}
}

func TestAckDelayAdjustment(t *testing.T) {
	e := New(25 * time.Millisecond)
	e.Update(100*time.Millisecond, 0, true)
	// Second sample: 150 ms with 20 ms ack delay → adjusted 130 ms.
	e.Update(150*time.Millisecond, 20*time.Millisecond, true)
	want := (7*100*time.Millisecond + 130*time.Millisecond) / 8
	if e.Smoothed() != want {
		t.Errorf("smoothed = %v, want %v", e.Smoothed(), want)
	}
	if got := e.Samples(); len(got) != 2 || got[1] != 130*time.Millisecond {
		t.Errorf("samples = %v", got)
	}
}

func TestAckDelayCappedAfterHandshake(t *testing.T) {
	e := New(25 * time.Millisecond)
	e.Update(100*time.Millisecond, 0, true)
	e.Update(200*time.Millisecond, 90*time.Millisecond, true)
	// Delay capped to 25 ms → adjusted 175 ms.
	if got := e.Samples()[1]; got != 175*time.Millisecond {
		t.Errorf("adjusted sample = %v, want 175ms", got)
	}

	e2 := New(25 * time.Millisecond)
	e2.Update(100*time.Millisecond, 0, false)
	e2.Update(200*time.Millisecond, 90*time.Millisecond, false)
	// Before handshake confirmation the cap does not apply → 110 ms.
	if got := e2.Samples()[1]; got != 110*time.Millisecond {
		t.Errorf("uncapped sample = %v, want 110ms", got)
	}
}

func TestAckDelayNotAppliedBelowMin(t *testing.T) {
	e := New(100 * time.Millisecond)
	e.Update(100*time.Millisecond, 0, true)
	// Subtracting the full 80 ms would drop below min_rtt → use raw latest.
	e.Update(120*time.Millisecond, 80*time.Millisecond, true)
	if got := e.Samples()[1]; got != 120*time.Millisecond {
		t.Errorf("sample = %v, want raw 120ms", got)
	}
}

func TestMinTracksMinimum(t *testing.T) {
	e := New(0)
	for _, s := range []time.Duration{100, 80, 120, 70, 300} {
		e.Update(s*time.Millisecond, 0, true)
	}
	if e.Min() != 70*time.Millisecond {
		t.Errorf("min = %v, want 70ms", e.Min())
	}
	if e.Latest() != 300*time.Millisecond {
		t.Errorf("latest = %v, want 300ms", e.Latest())
	}
}

func TestNonPositiveSampleClamped(t *testing.T) {
	e := New(0)
	e.Update(-5*time.Millisecond, 0, true)
	if e.Min() != Granularity || e.Latest() != Granularity {
		t.Errorf("min=%v latest=%v, want clamped to %v", e.Min(), e.Latest(), Granularity)
	}
}

func TestPTO(t *testing.T) {
	e := New(25 * time.Millisecond)
	e.Update(100*time.Millisecond, 0, true)
	want := 100*time.Millisecond + 4*50*time.Millisecond + 25*time.Millisecond
	if got := e.PTO(true); got != want {
		t.Errorf("PTO = %v, want %v", got, want)
	}
	if got := e.PTO(false); got != want-25*time.Millisecond {
		t.Errorf("PTO(false) = %v, want %v", got, want-25*time.Millisecond)
	}
}

func TestPTOGranularityFloor(t *testing.T) {
	e := New(time.Millisecond)
	// Identical samples drive rttvar toward 0; the 4*rttvar term must be
	// floored at kGranularity.
	for i := 0; i < 200; i++ {
		e.Update(10*time.Millisecond, 0, true)
	}
	if got := e.PTO(false); got < 10*time.Millisecond+Granularity {
		t.Errorf("PTO = %v, want >= smoothed+granularity", got)
	}
}

func TestMean(t *testing.T) {
	e := New(0)
	if e.Mean() != 0 {
		t.Error("mean of empty estimator not 0")
	}
	e.Update(100*time.Millisecond, 0, true)
	e.Update(200*time.Millisecond, 0, true)
	if got := e.Mean(); got != 150*time.Millisecond {
		t.Errorf("mean = %v, want 150ms", got)
	}
}

func TestSmoothedConvergesQuick(t *testing.T) {
	// Property: after many identical samples the smoothed RTT converges to
	// the sample value and min equals it.
	f := func(ms uint16) bool {
		d := time.Duration(ms%1000+1) * time.Millisecond
		e := New(0)
		for i := 0; i < 100; i++ {
			e.Update(d, 0, true)
		}
		diff := e.Smoothed() - d
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Millisecond && e.Min() == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSmoothedWithinSampleRangeQuick(t *testing.T) {
	// Property: smoothed RTT always lies within [min sample, max sample].
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := New(0)
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for _, r := range raw {
			d := time.Duration(r%2000+1) * time.Millisecond
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			e.Update(d, 0, true)
		}
		return e.Smoothed() >= lo && e.Smoothed() <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	e := New(0)
	e.Update(42*time.Millisecond, 0, true)
	if s := e.String(); s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkUpdate(b *testing.B) {
	e := New(25 * time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Update(time.Duration(50+i%20)*time.Millisecond, 5*time.Millisecond, true)
	}
}

// Reset is New on reused storage: the estimator forgets every sample and
// keeps only the sample list's capacity.
func TestResetMatchesNew(t *testing.T) {
	e := New(10 * time.Millisecond)
	for i := 1; i <= 20; i++ {
		e.Update(time.Duration(i)*time.Millisecond, time.Millisecond, i%2 == 0)
	}
	held := cap(e.Samples())
	for _, mad := range []time.Duration{0, 40 * time.Millisecond} {
		e.Reset(mad)
		fresh := New(mad)
		if e.String() != fresh.String() || e.HasSample() || len(e.Samples()) != 0 || e.PTO(true) != fresh.PTO(true) || e.Latest() != 0 {
			t.Errorf("after Reset(%v): %v, want %v", mad, e, fresh)
		}
		if cap(e.Samples()) != held {
			t.Errorf("Reset dropped the sample list's storage: cap %d, was %d", cap(e.Samples()), held)
		}
		e.Update(7*time.Millisecond, 0, false)
		fresh.Update(7*time.Millisecond, 0, false)
		if e.String() != fresh.String() || len(e.Samples()) != 1 {
			t.Errorf("first sample after Reset(%v): %v, want %v", mad, e, fresh)
		}
	}
}
