package hostile

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"quicspin/internal/core"
)

// copySortDetect is DetectSpinPattern as it reads every series that is not
// strictly increasing: copy, sort by packet number, drop duplicates, match.
func copySortDetect(obs []core.Observation) Profile {
	if len(obs) < 4 {
		return None
	}
	sorted := make([]core.Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].PN < sorted[j].PN })
	uniq := sorted[:1]
	for _, o := range sorted[1:] {
		if o.PN != uniq[len(uniq)-1].PN {
			uniq = append(uniq, o)
		}
	}
	return spinPattern(uniq)
}

// randomSeries draws a series that may carry a liar's or a flapper's
// pattern, honest waves or noise, at burst or RTT spacing, and then may
// duplicate, reorder or skip packet numbers.
func randomSeries(rng *rand.Rand) []core.Observation {
	patterns := []func(pn uint64) bool{
		func(pn uint64) bool { return pn&1 == 1 },
		func(pn uint64) bool { return pn>>1&1 == 1 },
		func(pn uint64) bool { return pn/6%2 == 1 },
		func(uint64) bool { return rng.Intn(2) == 1 },
	}
	spin := patterns[rng.Intn(len(patterns))]
	gap := 50 * time.Microsecond
	if rng.Intn(3) == 0 {
		gap = 5 * time.Millisecond
	}
	base := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	n := rng.Intn(24)
	pn := uint64(rng.Intn(4))
	obs := make([]core.Observation, 0, 2*n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			pn++ // a lost packet
		}
		obs = append(obs, core.Observation{T: base.Add(time.Duration(pn) * gap), PN: pn, Spin: spin(pn)})
		pn++
	}
	if len(obs) > 1 && rng.Intn(3) == 0 { // duplicated datagrams, maybe disagreeing
		for k := rng.Intn(4) + 1; k > 0; k-- {
			o := obs[rng.Intn(len(obs))]
			if rng.Intn(2) == 0 {
				o.Spin = !o.Spin
			}
			obs = append(obs, o)
		}
	}
	if len(obs) > 1 && rng.Intn(3) == 0 { // reordering
		for k := rng.Intn(3) + 1; k > 0; k-- {
			i := rng.Intn(len(obs) - 1)
			obs[i], obs[i+1] = obs[i+1], obs[i]
		}
	}
	return obs
}

// TestDetectSpinPatternInPlaceMatchesCopy: reading a strictly increasing
// series in place gives the verdict the copy-and-sort path gives, on
// random series with duplicated and reordered packet numbers, and costs no
// allocation.
func TestDetectSpinPatternInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[Profile]int{}
	inPlace := 0
	for i := 0; i < 10_000; i++ {
		obs := randomSeries(rng)
		got, want := DetectSpinPattern(obs), copySortDetect(obs)
		if got != want {
			t.Fatalf("series %d %+v: in place %s, copy and sort %s", i, obs, got, want)
		}
		seen[got]++
		if pnStrictlyIncreasing(obs) {
			inPlace++
		}
	}
	t.Logf("verdicts %v; %d of 10000 series read in place", seen, inPlace)
	if seen[SpinFlap] == 0 || seen[SpinLiar] == 0 || seen[None] == 0 || inPlace == 0 || inPlace == 10_000 {
		t.Fatalf("vacuous draw: verdicts %v, %d series in place", seen, inPlace)
	}
	flap := obsSeries(64, 50*time.Microsecond, func(pn uint64) bool { return pn&1 == 1 })
	if n := testing.AllocsPerRun(100, func() { DetectSpinPattern(flap) }); n != 0 {
		t.Errorf("DetectSpinPattern on a strictly increasing series allocates %.1f times, want 0", n)
	}
}
