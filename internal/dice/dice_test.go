package dice

import (
	"bytes"
	"testing"
)

const allPurposes = App + 1

// keyGrid calls f for every stream key of one domain seed that a scan can
// name: every purpose, hop and attempt up to 8, both sides.
func keyGrid(seed int64, f func(Key)) {
	for p := Purpose(0); p < allPurposes; p++ {
		for hop := 0; hop <= 8; hop++ {
			for attempt := 0; attempt <= 8; attempt++ {
				for _, side := range []Side{Client, Server} {
					f(Key{Seed: seed, Purpose: p, Hop: hop, Attempt: attempt, Side: side})
				}
			}
		}
	}
}

// Key derivation is injective over purpose × hop ≤ 8 × attempt ≤ 8 × side
// for 10⁴ domain seeds. A state is a pair of words, so it suffices that
// every key of one seed shares that seed's first word, that the first words
// of distinct seeds differ, and that the second words of distinct
// (purpose, hop, attempt, side) tags differ — which is checked for every key.
func TestKeyDerivationInjective(t *testing.T) {
	const seeds = 10_000
	his := make(map[uint64]int64, seeds)
	var tagLo []uint64 // second word of the i-th grid key, from the first seed
	los := map[uint64]bool{}
	for s := int64(0); s < seeds; s++ {
		seed := s*0x3c6ef372fe94f82b - 5_000 // spread over the sign bit
		var hi0 uint64
		i := 0
		keyGrid(seed, func(k Key) {
			hi, lo := k.state()
			if i == 0 {
				hi0 = hi
				if prev, dup := his[hi]; dup {
					t.Fatalf("seeds %d and %d share the first state word", prev, seed)
				}
				his[hi] = seed
			}
			if hi != hi0 {
				t.Fatalf("%+v: first state word depends on more than the seed", k)
			}
			if s == 0 {
				if los[lo] {
					t.Fatalf("%+v: second state word collides with another key's", k)
				}
				los[lo] = true
				tagLo = append(tagLo, lo)
			} else if lo != tagLo[i] {
				t.Fatalf("%+v: second state word depends on the seed", k)
			}
			i++
		})
	}
}

// Sibling streams — keys one component apart — share no value among their
// first 64 outputs.
func TestSiblingStreamsShareNoValue(t *testing.T) {
	r := New()
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		base := Key{Seed: seed, Purpose: Transport, Hop: 1, Attempt: 1, Side: Server}
		siblings := []Key{base}
		for p := Purpose(0); p < allPurposes; p++ {
			if p != base.Purpose {
				k := base
				k.Purpose = p
				siblings = append(siblings, k)
			}
		}
		for _, edit := range []func(*Key){
			func(k *Key) { k.Seed++ },
			func(k *Key) { k.Seed-- },
			func(k *Key) { k.Hop++ },
			func(k *Key) { k.Hop-- },
			func(k *Key) { k.Attempt++ },
			func(k *Key) { k.Attempt-- },
			func(k *Key) { k.Side = Client },
		} {
			k := base
			edit(&k)
			siblings = append(siblings, k)
		}
		seen := map[uint64]Key{}
		for _, k := range siblings {
			r.Reseed(k)
			for i := 0; i < 64; i++ {
				v := r.Uint64()
				if other, dup := seen[v]; dup {
					t.Fatalf("%+v and %+v share output %#x", k, other, v)
				}
				seen[v] = k
			}
		}
	}
}

// Reseeding restarts a stream wherever it stood, the Read cache included: a
// reused Rand and a fresh one agree on every method the scanner calls.
func TestReseedRestartsStream(t *testing.T) {
	k := Key{Seed: 7, Purpose: Transport, Hop: 2, Side: Server}
	used := New()
	used.Reseed(Key{Seed: 99, Purpose: Netem})
	var junk [3]byte
	used.Read(junk[:]) // leaves a partly consumed Read cache behind
	used.Reseed(k)
	fresh := Seeded(k)
	for i := 0; i < 100; i++ {
		var a, b [5]byte
		used.Read(a[:])
		fresh.Read(b[:])
		if !bytes.Equal(a[:], b[:]) {
			t.Fatalf("draw %d: Read %x after Reseed, fresh stream %x", i, a, b)
		}
		if x, y := used.Intn(16), fresh.Intn(16); x != y {
			t.Fatalf("draw %d: Intn %d after Reseed, fresh stream %d", i, x, y)
		}
		if x, y := used.Float64(), fresh.Float64(); x != y {
			t.Fatalf("draw %d: Float64 %v after Reseed, fresh stream %v", i, x, y)
		}
		if x, y := used.Int63n(1e9), fresh.Int63n(1e9); x != y {
			t.Fatalf("draw %d: Int63n %d after Reseed, fresh stream %d", i, x, y)
		}
	}
}

// Reseeding a stream and drawing from it allocates nothing: engines rekey
// their streams for every domain and connection.
func TestReseedZeroAlloc(t *testing.T) {
	r := New()
	k := Key{Purpose: Transport, Side: Server}
	if n := testing.AllocsPerRun(100, func() {
		k.Seed++
		r.Reseed(k)
		for i := 0; i < 100; i++ {
			r.Int63n(1000)
		}
	}); n != 0 {
		t.Fatalf("Reseed + 100 draws allocate %v times, want 0", n)
	}
}
