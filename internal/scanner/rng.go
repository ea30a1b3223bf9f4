package scanner

import "math/rand"

// lazySource is a rand.Source64 that defers the expensive math/rand
// reseed (a 607-word lagged-Fibonacci state rebuild, ~5 KB of writes) until
// the first draw. Campaign profiling shows the majority of fast-engine CPU
// going into reseeding streams that are then never drawn from: domains that
// fail DNS, resolve to non-QUIC blackholes, or sit behind an injected
// outage return before any randomness is consumed. Arming the seed is O(1);
// only scans that actually roll dice pay for the state rebuild.
//
// The produced stream is byte-identical to rand.NewSource(seed): Seed on
// the wrapped source rebuilds exactly the state a fresh source would have.
type lazySource struct {
	src  rand.Source64
	seed int64
	// armed marks a pending seed: src state is stale until the next draw.
	armed bool
}

// newLazyRand returns a *rand.Rand whose reseeding via (*rand.Rand).Seed is
// O(1) until the first draw. Rand.Seed also resets the Rand's internal
// Read cache, so a reseeded instance is indistinguishable from a freshly
// constructed rand.New(rand.NewSource(seed)).
func newLazyRand() *rand.Rand {
	return rand.New(&lazySource{src: rand.NewSource(0).(rand.Source64)})
}

func (s *lazySource) realize() {
	if s.armed {
		s.src.Seed(s.seed)
		s.armed = false
	}
}

// Seed implements rand.Source by arming the seed without rebuilding state.
func (s *lazySource) Seed(seed int64) {
	s.seed = seed
	s.armed = true
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 {
	s.realize()
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.realize()
	return s.src.Uint64()
}

// fnv64a hashes s with FNV-1a (identical to hash/fnv's Sum64 over the same
// bytes) without the hasher allocation of the standard library.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// domainSeed derives the per-domain stream seed from (Seed, Week, name).
// Both engines reseed with it at the start of every domain, which makes
// spin dice, response plans and path noise a function of the domain alone —
// not of scan order or worker count; the resume machinery relies on that.
func domainSeed(cfg Config, name string) int64 {
	return cfg.Seed ^ int64(cfg.Week)<<32 ^ int64(fnv64a(name))
}
