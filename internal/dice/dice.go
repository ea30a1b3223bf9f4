// Package dice derives every random stream of a scan from a key: the
// scanned domain's seed, the purpose the draws serve, and — for streams that
// belong to one connection — the connection's redirect hop, retry attempt
// and side. A stream is a pure function of its key, so a draw added to or
// removed from one purpose never moves another purpose's draws, and a
// connection's dice are the same in every engine that keys them alike.
//
// Streams run on math/rand/v2's PCG (two words of state), behind a
// math/rand Source64 so that every consumer keeps its *rand.Rand API.
// Reseeding is O(1) and allocation-free.
package dice

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Purpose names what a stream's draws decide. This list is every random
// draw the scanner and the world's population take; a new draw joins the
// purpose it serves, or becomes a new purpose here.
type Purpose uint8

const (
	// World synthesises the world's population, materialised or on
	// demand: one stream per domain label and one per server address,
	// keyed by a salted seed.
	World Purpose = iota
	// Retry draws the retry backoff jitter: one stream per domain.
	Retry
	// DNS rolls the resolver's injected timeout die: one stream per domain.
	DNS
	// Transport rolls a connection's spin-controller dice first (the
	// disable-every-N roll, then the per-connection grease value), then its
	// connection IDs and per-packet grease: one stream per connection and
	// side.
	Transport
	// Turnaround draws endpoint processing latency: one stream per
	// connection and side.
	Turnaround
	// Netem draws path jitter, loss, reordering and duplication: one stream
	// per connection, shared by both directions of its path.
	Netem
	// App draws the server's response plan and processing delay: one stream
	// per connection, server side.
	App
)

// Side is the end of a connection a stream belongs to.
type Side uint8

const (
	Client Side = iota
	Server
)

// Key identifies one stream. Hop is the redirect hop and Attempt the retry
// attempt within it; both stay zero for per-domain purposes. Distinct keys
// start distinct streams while Hop and Attempt are below 2²⁴.
type Key struct {
	Seed    int64
	Purpose Purpose
	Hop     int
	Attempt int
	Side    Side
}

// state returns the generator state k starts: the seed and the packed
// (purpose, side, hop, attempt) tag, each through a bijective mixer, so the
// map from keys to states is injective.
func (k Key) state() (hi, lo uint64) {
	tag := uint64(k.Purpose)<<56 | uint64(k.Side)<<48 | uint64(k.Hop&0xffffff)<<24 | uint64(k.Attempt&0xffffff)
	return mix(uint64(k.Seed)), mix(tag)
}

// mix is the splitmix64 finalizer: a bijection on 64-bit words.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// source adapts a keyed PCG to math/rand's Source64. Seed replaces the
// key's seed and keeps the rest of the key.
type source struct {
	pcg randv2.PCG
	key Key
}

func (s *source) Seed(seed int64) {
	s.key.Seed = seed
	s.pcg.Seed(s.key.state())
}

func (s *source) Uint64() uint64 { return s.pcg.Uint64() }

func (s *source) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// Rand is one reusable stream: a *rand.Rand that Reseed rekeys in place.
type Rand struct {
	*rand.Rand
	src source
}

// New returns a stream of the zero Key. Engines allocate each of theirs once
// and Reseed it for every domain or connection.
func New() *Rand {
	r := &Rand{}
	r.Rand = rand.New(&r.src)
	r.Reseed(Key{})
	return r
}

// Reseed restarts r as the stream of k, Read cache included, and returns
// the *rand.Rand for callers that take one.
func (r *Rand) Reseed(k Key) *rand.Rand {
	r.src.key = k
	r.Rand.Seed(k.Seed) // (*rand.Rand).Seed also drops the Read cache
	return r.Rand
}

// Seeded returns a new stream of k, for callers that cannot keep a reusable
// one.
func Seeded(k Key) *rand.Rand {
	return New().Reseed(k)
}
