package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2023, 5, 15, 12, 0, 0, 0, time.UTC)

// series builds an Observation sequence from (ms offset, pn, spin) triples.
func series(trip ...[3]int) []Observation {
	obs := make([]Observation, len(trip))
	for i, tr := range trip {
		obs[i] = Observation{
			T:    t0.Add(time.Duration(tr[0]) * time.Millisecond),
			PN:   uint64(tr[1]),
			Spin: tr[2] != 0,
		}
	}
	return obs
}

func TestSpinRTTsBasic(t *testing.T) {
	// Edges at 0ms (implicit start value 0), flip at 100ms, 200ms, 300ms.
	obs := series(
		[3]int{0, 1, 0}, [3]int{50, 2, 0},
		[3]int{100, 3, 1}, [3]int{150, 4, 1},
		[3]int{200, 5, 0},
		[3]int{300, 6, 1},
	)
	got := SpinRTTs(obs, false)
	want := []time.Duration{100 * time.Millisecond, 100 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpinRTTsTooShort(t *testing.T) {
	if got := SpinRTTs(nil, false); got != nil {
		t.Errorf("nil series produced %v", got)
	}
	if got := SpinRTTs(series([3]int{0, 1, 0}), false); got != nil {
		t.Errorf("single observation produced %v", got)
	}
	// Flips but only one edge → no sample.
	if got := SpinRTTs(series([3]int{0, 1, 0}, [3]int{100, 2, 1}), false); got != nil {
		t.Errorf("single edge produced %v", got)
	}
}

// TestSpinRTTsReordering reproduces Fig. 1b: a packet from before a spin
// edge arriving after it creates a spurious ultra-short cycle in received
// order (R) that disappears after sorting by packet number (S).
func TestSpinRTTsReordering(t *testing.T) {
	obs := series(
		[3]int{0, 1, 0},
		[3]int{100, 3, 1}, // edge (pn 2 overtaken)
		[3]int{101, 2, 0}, // late pre-edge packet → spurious edge
		[3]int{102, 4, 1}, // spurious edge back
		[3]int{200, 5, 0}, // genuine edge
	)
	r := SpinRTTs(obs, false)
	// Received order: edges at 100 (→1), 101 (→0), 102 (→1), 200 (→0):
	// samples 1ms, 1ms, 98ms.
	if len(r) != 3 || r[0] != time.Millisecond || r[1] != time.Millisecond {
		t.Fatalf("received-order samples = %v", r)
	}
	s := SpinRTTs(obs, true)
	// Sorted by pn: values 0,0,1,1,0 with edge timestamps 100 and 200 —
	// but sorting places pn2(t=101) before pn3(t=100): edge seen at t=100.
	if len(s) != 1 || s[0] != 100*time.Millisecond {
		t.Fatalf("sorted-order samples = %v", s)
	}
}

func TestSpinRTTsSortIsStableAndNonMutating(t *testing.T) {
	obs := series([3]int{0, 1, 0}, [3]int{100, 3, 1}, [3]int{50, 2, 0})
	cp := make([]Observation, len(obs))
	copy(cp, obs)
	SpinRTTs(obs, true)
	for i := range obs {
		if obs[i] != cp[i] {
			t.Fatal("SpinRTTs mutated its input")
		}
	}
}

// spinRTTsReference is SpinRTTs as it was before AppendSpinRTTs: always a
// fresh copy, always sort.SliceStable, a nil result without samples.
func spinRTTsReference(obs []Observation, sortByPN bool) []time.Duration {
	if len(obs) < 2 {
		return nil
	}
	series := obs
	if sortByPN {
		series = make([]Observation, len(obs))
		copy(series, obs)
		sort.SliceStable(series, func(i, j int) bool { return series[i].PN < series[j].PN })
	}
	var rtts []time.Duration
	last := series[0].Spin
	var lastEdge time.Time
	haveEdge := false
	for _, o := range series[1:] {
		if o.Spin == last {
			continue
		}
		last = o.Spin
		if haveEdge {
			rtts = append(rtts, o.T.Sub(lastEdge))
		}
		lastEdge = o.T
		haveEdge = true
	}
	return rtts
}

// TestAppendSpinRTTsMatchesReference: on 10⁴ random series — packets lost,
// duplicated and reordered, spin values flapping — AppendSpinRTTs after a
// prefix appends exactly what the copy-and-sort reference returns, in both
// orders, and leaves the series and the prefix alone; SpinRTTs returns the
// reference's value, nil included.
func TestAppendSpinRTTsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	prefix := []time.Duration{-1, -2}
	inPlace := 0
	for n := 0; n < 10_000; n++ {
		obs := make([]Observation, rng.Intn(40))
		pn, at := uint64(0), time.Duration(0)
		for i := range obs {
			switch r := rng.Intn(10); {
			case r == 0 && pn > 3: // a late packet from before the last few
				obs[i].PN = pn - 1 - uint64(rng.Intn(3))
			case r == 1 && i > 0: // a duplicate
				obs[i].PN = obs[i-1].PN
			default: // the next packet, or a later one after losses
				pn += 1 + uint64(rng.Intn(2))
				obs[i].PN = pn
			}
			at += time.Duration(rng.Intn(30)) * time.Millisecond
			obs[i].T = t0.Add(at)
			obs[i].Spin = (obs[i].PN/uint64(1+n%5))%2 == 1 != (rng.Intn(8) == 0)
		}
		if pnNonDecreasing(obs) {
			inPlace++
		}
		before := append([]Observation(nil), obs...)
		for _, sorted := range []bool{false, true} {
			want := spinRTTsReference(obs, sorted)
			if got := SpinRTTs(obs, sorted); !reflect.DeepEqual(got, want) {
				t.Fatalf("series %d (sorted=%v): SpinRTTs = %v, reference %v\n%v", n, sorted, got, want, obs)
			}
			dst := append(make([]time.Duration, 0, 8), prefix...)
			got := AppendSpinRTTs(dst, obs, sorted)
			if !slices.Equal(got[:len(prefix)], prefix) || len(got)-len(prefix) != len(want) {
				t.Fatalf("series %d (sorted=%v): AppendSpinRTTs = %v, want %v after %v", n, sorted, got, want, prefix)
			}
			for i, w := range want {
				if got[len(prefix)+i] != w {
					t.Fatalf("series %d (sorted=%v): AppendSpinRTTs = %v, want %v after %v", n, sorted, got, want, prefix)
				}
			}
		}
		if !slices.Equal(obs, before) {
			t.Fatalf("series %d: AppendSpinRTTs mutated its input", n)
		}
	}
	if inPlace < 1000 || inPlace > 9000 {
		t.Fatalf("vacuous: %d of 10000 series already in packet-number order", inPlace)
	}
}

// TestAppendSpinRTTsInOrderZeroAlloc: a series already in packet-number
// order is read in place, so with room in dst neither order allocates.
func TestAppendSpinRTTsInOrderZeroAlloc(t *testing.T) {
	obs := make([]Observation, 200)
	for i := range obs {
		obs[i] = Observation{T: t0.Add(time.Duration(i) * time.Millisecond), PN: uint64(i / 2 * 2), Spin: (i/25)%2 == 1}
	}
	dst := make([]time.Duration, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		dst = AppendSpinRTTs(dst[:0], obs, false)
		dst = AppendSpinRTTs(dst, obs, true)
	}); n != 0 {
		t.Errorf("AppendSpinRTTs on an in-order series allocates %.1f times, want 0", n)
	}
	if len(dst) != 2*6 {
		t.Fatalf("%d samples, want 6 in each order", len(dst))
	}
}

func TestHasFlipsAndClassify(t *testing.T) {
	cases := []struct {
		obs  []Observation
		kind SeriesKind
	}{
		{nil, KindEmpty},
		{series([3]int{0, 1, 0}, [3]int{1, 2, 0}), KindAllZero},
		{series([3]int{0, 1, 1}, [3]int{1, 2, 1}), KindAllOne},
		{series([3]int{0, 1, 0}, [3]int{1, 2, 1}), KindFlipping},
	}
	for _, c := range cases {
		if got := ClassifySeries(c.obs); got != c.kind {
			t.Errorf("ClassifySeries = %v, want %v", got, c.kind)
		}
		if got := HasFlips(c.obs); got != (c.kind == KindFlipping) {
			t.Errorf("HasFlips = %v for %v", got, c.kind)
		}
	}
	for k, want := range map[SeriesKind]string{
		KindAllZero: "All Zero", KindAllOne: "All One",
		KindFlipping: "Spin", KindEmpty: "Empty", SeriesKind(9): "Unknown",
	} {
		if k.String() != want {
			t.Errorf("SeriesKind(%d).String() = %q", int(k), k.String())
		}
	}
}

func TestObserverSingleDirection(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	var got []time.Duration
	for _, ob := range series(
		[3]int{0, 1, 0},
		[3]int{100, 2, 1},
		[3]int{200, 3, 0},
		[3]int{310, 4, 1},
	) {
		if s, ok := o.Observe(ServerToClient, ob); ok {
			got = append(got, s.RTT)
		}
	}
	want := []time.Duration{100 * time.Millisecond, 110 * time.Millisecond}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	if m := o.MeanRTT(ServerToClient); m != 105*time.Millisecond {
		t.Errorf("mean = %v", m)
	}
	if m := o.MeanRTT(ClientToServer); m != 0 {
		t.Errorf("mean of empty direction = %v", m)
	}
}

func TestObserverDirectionsIndependent(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	// Client→server edges at 0/100/200; server→client offset by 50ms.
	evts := []struct {
		dir Direction
		ms  int
		pn  int
		v   int
	}{
		{ClientToServer, 0, 1, 0}, {ServerToClient, 50, 1, 0},
		{ClientToServer, 100, 2, 1}, {ServerToClient, 150, 2, 1},
		{ClientToServer, 200, 3, 0}, {ServerToClient, 250, 3, 0},
	}
	for _, e := range evts {
		o.Observe(e.dir, Observation{T: t0.Add(time.Duration(e.ms) * time.Millisecond), PN: uint64(e.pn), Spin: e.v != 0})
	}
	if got := o.MeanRTT(ClientToServer); got != 100*time.Millisecond {
		t.Errorf("c2s mean = %v", got)
	}
	if got := o.MeanRTT(ServerToClient); got != 100*time.Millisecond {
		t.Errorf("s2c mean = %v", got)
	}
	if len(o.Samples()) != 2 {
		t.Errorf("total samples = %d, want 2", len(o.Samples()))
	}
}

func TestObserverPacketNumberGuard(t *testing.T) {
	reordered := series(
		[3]int{0, 1, 0},
		[3]int{100, 3, 1}, // genuine edge
		[3]int{101, 2, 0}, // late packet — guard must drop it
		[3]int{102, 4, 1},
		[3]int{200, 5, 0}, // genuine edge
		[3]int{300, 6, 1}, // genuine edge
	)
	// Without guard: spurious 1ms/1ms samples appear.
	plain := NewObserver(ObserverConfig{})
	for _, ob := range reordered {
		plain.Observe(ServerToClient, ob)
	}
	if len(plain.Samples()) != 4 {
		t.Fatalf("unguarded samples = %d, want 4", len(plain.Samples()))
	}
	// With guard: only the genuine 100ms cycles remain.
	guarded := NewObserver(ObserverConfig{UsePacketNumberGuard: true})
	var got []time.Duration
	for _, ob := range reordered {
		if s, ok := guarded.Observe(ServerToClient, ob); ok {
			got = append(got, s.RTT)
		}
	}
	if len(got) != 2 || got[0] != 100*time.Millisecond || got[1] != 100*time.Millisecond {
		t.Fatalf("guarded samples = %v", got)
	}
}

func TestObserverFilterMarksSamples(t *testing.T) {
	o := NewObserver(ObserverConfig{Filter: StaticThreshold{Min: 10 * time.Millisecond}})
	obs := series(
		[3]int{0, 1, 0},
		[3]int{100, 2, 1},
		[3]int{101, 3, 0}, // 1ms sample → filtered
		[3]int{201, 4, 1}, // 100ms sample → kept
	)
	for _, ob := range obs {
		o.Observe(ServerToClient, ob)
	}
	all, valid := o.Samples(), o.ValidSamples()
	if len(all) != 2 || len(valid) != 1 {
		t.Fatalf("all=%d valid=%d, want 2/1", len(all), len(valid))
	}
	if !all[0].Filtered || all[1].Filtered {
		t.Errorf("filter flags wrong: %+v", all)
	}
	if o.MeanRTT(ServerToClient) != 100*time.Millisecond {
		t.Errorf("mean includes filtered sample: %v", o.MeanRTT(ServerToClient))
	}
}

// Property: on a clean alternating series with constant period, both
// SpinRTTs orderings agree and every sample equals the period.
func TestSpinRTTsQuickCleanSeries(t *testing.T) {
	f := func(periodMS uint8, n uint8) bool {
		period := time.Duration(periodMS%200+1) * time.Millisecond
		count := int(n%20) + 3
		obs := make([]Observation, count)
		for i := range obs {
			obs[i] = Observation{T: t0.Add(time.Duration(i) * period), PN: uint64(i), Spin: i%2 == 1}
		}
		r := SpinRTTs(obs, false)
		s := SpinRTTs(obs, true)
		if len(r) != count-2 || len(s) != len(r) {
			return false
		}
		for i := range r {
			if r[i] != period || s[i] != period {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserverObserve(b *testing.B) {
	o := NewObserver(ObserverConfig{UsePacketNumberGuard: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Observe(ClientToServer, Observation{
			T:    t0.Add(time.Duration(i) * time.Millisecond),
			PN:   uint64(i),
			Spin: (i/50)%2 == 1,
		})
	}
}

func BenchmarkSpinRTTs(b *testing.B) {
	obs := make([]Observation, 1000)
	for i := range obs {
		obs[i] = Observation{T: t0.Add(time.Duration(i) * time.Millisecond), PN: uint64(i), Spin: (i/25)%2 == 1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SpinRTTs(obs, i%2 == 0)
	}
}
