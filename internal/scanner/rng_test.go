package scanner

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// seekSeeds are the seeds math/rand's reduction treats specially — zero,
// signs, multiples of 2³¹−1, the zero replacement, the int64 extremes — plus
// a spread of ordinary ones.
func seekSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max + 1, int32max - 1, 1 << 31, -(1 << 31), 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	gen := rand.New(rand.NewSource(26))
	for i := 0; i < 208; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestSeekSourceMatchesMathRand holds the seek source to rand.NewSource draw
// for draw: far past the 607-word wrap, after a re-Seed mid-stream, and
// through every rand.Rand method the engines use. A typo in rngCooked or
// seedPow fails here.
func TestSeekSourceMatchesMathRand(t *testing.T) {
	const draws = 2*rngLen + 800
	s := &seekSource{}
	for _, seed := range seekSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for i := 0; i < draws; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i, got, want)
			}
		}
		// Re-Seed a partly drawn source: no word of the old stream survives.
		s.Seed(seed ^ 0x5eed)
		s.Int63()
		s.Seed(seed)
		ref.Seed(seed)
		for i := 0; i < rngLen+1; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d after re-Seed: Int63 = %d, want %d", seed, i, got, want)
			}
		}
	}

	r := newSeekRand()
	for _, seed := range seekSeeds() {
		ref := rand.New(rand.NewSource(seed))
		r.Seed(seed)
		for i := 0; i < 50; i++ {
			var got, want [13]byte
			r.Read(got[:5])
			ref.Read(want[:5])
			r.Read(got[5:])
			ref.Read(want[5:])
			if !bytes.Equal(got[:], want[:]) {
				t.Fatalf("seed %d: Read = %x, want %x", seed, got, want)
			}
			n := int64(i)*7919 + 1
			if got, want := r.Int63n(n), ref.Int63n(n); got != want {
				t.Fatalf("seed %d: Int63n(%d) = %d, want %d", seed, n, got, want)
			}
			if got, want := r.Intn(i+1), ref.Intn(i+1); got != want {
				t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, i+1, got, want)
			}
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d: Float64 = %v, want %v", seed, got, want)
			}
		}
		got, want := r.Perm(40), ref.Perm(40)
		r.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Perm+Shuffle = %v, want %v", seed, got, want)
			}
		}
	}
}

// FuzzSeekSource checks any seed over any number of draws.
func FuzzSeekSource(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(-1), uint16(rngLen))
	f.Add(int64(math.MinInt64), uint16(3*rngLen))
	f.Add(int64(int32max), uint16(1))
	s := &seekSource{}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for i := 0; i < int(draws); i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i, got, want)
			}
		}
	})
}

// TestSeekSourceZeroAlloc pins the per-domain cost: reseeding the engines'
// reusable Rand and drawing from it allocates nothing.
func TestSeekSourceZeroAlloc(t *testing.T) {
	r := newSeekRand()
	seed := int64(1)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		for i := 0; i < 100; i++ {
			r.Int63n(1000)
		}
	}); n != 0 {
		t.Fatalf("Seed + 100 draws allocate %v times, want 0", n)
	}
}
