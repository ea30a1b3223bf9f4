// Package netem emulates the network between QUIC-lite endpoints in
// virtual time: configurable one-way delay, jitter, random loss, reordering
// and duplication per directed path, plus an on-path tap for passive
// observers. It substitutes for the real Internet paths of the paper's
// measurement campaign (see DESIGN.md) while exercising exactly the same
// transport code paths.
package netem

import (
	"fmt"
	"math/rand"
	"time"

	"quicspin/internal/sim"
)

// PathConfig shapes one directed path between two attached hosts.
type PathConfig struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// LossRate drops each datagram independently with this probability.
	LossRate float64
	// ReorderRate holds back each datagram with this probability.
	ReorderRate float64
	// ReorderExtra is the additional delay of held-back datagrams; zero
	// means Delay/2 (enough to be overtaken by later traffic).
	ReorderExtra time.Duration
	// DuplicateRate delivers each datagram twice with this probability.
	DuplicateRate float64
}

// Stack composes an overlay segment onto the path, as when traffic
// traverses a vantage point's access link before the server's own shaped
// path: delays, jitters and reorder extras add, while loss, reorder and
// duplicate probabilities combine as independent per-segment events
// (1 − (1−a)(1−b)).
func (c PathConfig) Stack(o PathConfig) PathConfig {
	c.Delay += o.Delay
	c.Jitter += o.Jitter
	c.ReorderExtra += o.ReorderExtra
	c.LossRate = combineProb(c.LossRate, o.LossRate)
	c.ReorderRate = combineProb(c.ReorderRate, o.ReorderRate)
	c.DuplicateRate = combineProb(c.DuplicateRate, o.DuplicateRate)
	return c
}

// combineProb is the probability that at least one of two independent
// events fires, clamped against floating-point drift.
func combineProb(a, b float64) float64 {
	p := 1 - (1-a)*(1-b)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

func (c PathConfig) reorderExtra() time.Duration {
	if c.ReorderExtra != 0 {
		return c.ReorderExtra
	}
	return c.Delay / 2
}

// Handler consumes datagrams delivered to an attached host.
type Handler func(now time.Time, from string, data []byte)

// TapFunc observes datagrams at delivery time (the vantage of an on-path
// observer sitting just in front of the receiver).
type TapFunc func(now time.Time, from, to string, data []byte)

// Mangler rewrites one datagram leaving a host into zero or more datagrams
// before path impairments apply: returning nil swallows the datagram,
// returning several emits a burst. Hostile-endpoint profiles
// (internal/hostile) use this to inject protocol misbehavior on the wire
// without touching the sending transport.
type Mangler func(data []byte) [][]byte

// Stats counts per-network datagram fates.
type Stats struct {
	Sent       int
	Delivered  int
	Dropped    int
	Reordered  int
	Duplicated int
}

// Network connects named hosts through configurable paths over a shared
// virtual-time event loop. It is single-threaded like the loop itself.
type Network struct {
	loop    *sim.Loop
	rng     *rand.Rand
	hosts   map[string]Handler
	paths   map[[2]string]PathConfig
	def     PathConfig
	tap     TapFunc
	stats   Stats
	dropAll map[string]bool // blackholed hosts (e.g. unresponsive targets)
	// lastDelivery enforces FIFO ordering per directed path: real paths
	// are queues, so jitter delays packets but does not reorder them.
	// Only ReorderRate-selected packets escape the clamp.
	lastDelivery map[[2]string]time.Time
	// manglers rewrite datagrams leaving a host (keyed by sender address).
	manglers map[string]Mangler

	// freeDel and freeBufs recycle in-flight delivery records and datagram
	// copies. Handlers and taps must not retain the delivered slice beyond
	// the call (the transport copies retained stream data); in exchange the
	// per-datagram copy in transmit is allocation-free at steady state.
	freeDel  []*delivery
	freeBufs [][]byte
}

// delivery is one scheduled datagram arrival. fn is the loop callback bound
// once per pooled record, so scheduling a delivery allocates nothing after
// the pool warms up.
type delivery struct {
	n        *Network
	from, to string
	data     []byte
	fn       func(now time.Time)
}

// New creates a Network over loop with the given default path config.
// rng drives loss/reorder/duplication decisions and must be non-nil.
func New(loop *sim.Loop, def PathConfig, rng *rand.Rand) *Network {
	return &Network{
		loop:         loop,
		rng:          rng,
		def:          def,
		hosts:        make(map[string]Handler),
		paths:        make(map[[2]string]PathConfig),
		dropAll:      make(map[string]bool),
		lastDelivery: make(map[[2]string]time.Time),
		manglers:     make(map[string]Mangler),
	}
}

// Loop returns the underlying event loop (and virtual clock).
func (n *Network) Loop() *sim.Loop { return n.loop }

// Attach registers addr with a delivery handler. Re-attaching replaces the
// handler.
func (n *Network) Attach(addr string, h Handler) {
	n.hosts[addr] = h
}

// Detach removes a host; datagrams in flight toward it are dropped at
// delivery time.
func (n *Network) Detach(addr string) {
	delete(n.hosts, addr)
}

// SetPath configures the directed path from a to b.
func (n *Network) SetPath(from, to string, cfg PathConfig) {
	n.paths[[2]string{from, to}] = cfg
}

// SetSymmetricPath configures both directions between a and b.
func (n *Network) SetSymmetricPath(a, b string, cfg PathConfig) {
	n.SetPath(a, b, cfg)
	n.SetPath(b, a, cfg)
}

// ClearPath removes the directed path configs between a and b (both
// directions), reverting them to the network default. Long-running
// campaigns call this to keep the path table from growing per probe.
func (n *Network) ClearPath(a, b string) {
	delete(n.paths, [2]string{a, b})
	delete(n.paths, [2]string{b, a})
	delete(n.lastDelivery, [2]string{a, b})
	delete(n.lastDelivery, [2]string{b, a})
}

// Blackhole silently discards all traffic to addr when on is true,
// emulating unresponsive hosts or filtered UDP. The scanner switches it on
// for the length of one connection attempt to inject a transient outage.
func (n *Network) Blackhole(addr string, on bool) {
	if on {
		n.dropAll[addr] = true
	} else {
		delete(n.dropAll, addr)
	}
}

// SetTap installs an observer called at each successful delivery.
func (n *Network) SetTap(t TapFunc) { n.tap = t }

// SetMangler installs a datagram rewriter on everything from sends. A nil
// mangler is ignored. Campaign engines install one per hostile server and
// must ClearMangler when the probe finishes.
func (n *Network) SetMangler(from string, m Mangler) {
	if m == nil {
		return
	}
	n.manglers[from] = m
}

// ClearMangler removes the datagram rewriter of from, if any.
func (n *Network) ClearMangler(from string) {
	delete(n.manglers, from)
}

// SetRng replaces the random stream driving loss, jitter, reordering and
// duplication decisions. Campaign engines reseed it at every domain so
// path noise becomes a function of the scanned domain alone, independent
// of scan order and worker sharding. rng must be non-nil.
func (n *Network) SetRng(rng *rand.Rand) { n.rng = rng }

// Stats returns cumulative datagram counters.
func (n *Network) Stats() Stats { return n.stats }

// TableSizes counts the entries of the network's address-keyed tables.
type TableSizes struct {
	Hosts, Paths, Blackholed, Ordered, Manglers int
}

// TableSizes returns the size of every address-keyed table. A campaign that
// tears each probe down (Detach, ClearPath, ClearMangler) holds them constant
// once its servers are attached; tests of bounded memory assert that.
func (n *Network) TableSizes() TableSizes {
	return TableSizes{
		Hosts:      len(n.hosts),
		Paths:      len(n.paths),
		Blackholed: len(n.dropAll),
		Ordered:    len(n.lastDelivery),
		Manglers:   len(n.manglers),
	}
}

func (n *Network) pathConfig(from, to string) PathConfig {
	if cfg, ok := n.paths[[2]string{from, to}]; ok {
		return cfg
	}
	return n.def
}

// Send injects a datagram from one host toward another. Delivery is
// scheduled on the loop according to the path configuration. The data slice
// is copied, so callers may reuse their buffers.
func (n *Network) Send(from, to string, data []byte) {
	n.stats.Sent++
	if n.dropAll[to] {
		n.stats.Dropped++
		return
	}
	if m := n.manglers[from]; m != nil {
		pieces := m(data)
		if len(pieces) == 0 {
			n.stats.Dropped++
			return
		}
		for _, piece := range pieces {
			n.transmit(from, to, piece)
		}
		return
	}
	n.transmit(from, to, data)
}

// transmit pushes one datagram through the path impairments (loss, delay,
// jitter, FIFO/reorder, duplication) and schedules its delivery. The data
// slice is copied here.
func (n *Network) transmit(from, to string, data []byte) {
	cfg := n.pathConfig(from, to)
	if cfg.LossRate > 0 && n.rng.Float64() < cfg.LossRate {
		n.stats.Dropped++
		return
	}
	delay := cfg.Delay
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	at := n.loop.Now().Add(delay)
	key := [2]string{from, to}
	if cfg.ReorderRate > 0 && n.rng.Float64() < cfg.ReorderRate {
		// Deliberately held back: may overtake later traffic.
		at = at.Add(cfg.reorderExtra())
		n.stats.Reordered++
	} else {
		// FIFO: a packet never arrives before its predecessor on the path.
		if last, ok := n.lastDelivery[key]; ok && at.Before(last) {
			at = last
		}
		// Ordering state is kept only toward attached hosts: nobody detaches
		// on behalf of a departed peer (a server still retransmitting to a
		// probe address that is never reused), so an entry made for one would
		// stay forever. The datagram itself is dropped at delivery time.
		if _, attached := n.hosts[to]; attached {
			n.lastDelivery[key] = at
		}
	}
	cp := n.getBuf(len(data))
	copy(cp, data)
	n.deliverAt(at, from, to, cp)
	if cfg.DuplicateRate > 0 && n.rng.Float64() < cfg.DuplicateRate {
		n.stats.Duplicated++
		dup := n.getBuf(len(cp))
		copy(dup, cp)
		n.deliverAt(at.Add(time.Millisecond), from, to, dup)
	}
}

// getBuf returns a length-size datagram buffer from the pool. Undersized
// pool entries are dropped rather than cycled; steady-state traffic is
// MTU-bounded, so the pool converges to a handful of full-size buffers.
func (n *Network) getBuf(size int) []byte {
	if k := len(n.freeBufs); k > 0 {
		b := n.freeBufs[k-1]
		n.freeBufs = n.freeBufs[:k-1]
		if cap(b) >= size {
			return b[:size]
		}
	}
	c := size
	if c < 2048 {
		c = 2048
	}
	return make([]byte, size, c)
}

func (n *Network) deliverAt(at time.Time, from, to string, data []byte) {
	var d *delivery
	if k := len(n.freeDel); k > 0 {
		d = n.freeDel[k-1]
		n.freeDel = n.freeDel[:k-1]
	} else {
		d = &delivery{n: n}
		d.fn = d.run
	}
	d.from, d.to, d.data = from, to, data
	n.loop.At(at, d.fn)
}

func (d *delivery) run(now time.Time) {
	n, from, to, data := d.n, d.from, d.to, d.data
	// Release the record before running the handler: nested sends reuse it.
	d.from, d.to, d.data = "", "", nil
	n.freeDel = append(n.freeDel, d)
	defer func() { n.freeBufs = append(n.freeBufs, data) }()
	h, ok := n.hosts[to]
	if !ok || n.dropAll[to] {
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	if n.tap != nil {
		n.tap(now, from, to, data)
	}
	h(now, from, data)
}

// Delta returns the counter increments from prev to s — per-connection
// attribution of the cumulative network counters (the scanner's trace
// layer snapshots Stats around each exchange).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Sent:       s.Sent - prev.Sent,
		Delivered:  s.Delivered - prev.Delivered,
		Dropped:    s.Dropped - prev.Dropped,
		Reordered:  s.Reordered - prev.Reordered,
		Duplicated: s.Duplicated - prev.Duplicated,
	}
}

// String summarises network statistics.
func (s Stats) String() string {
	return fmt.Sprintf("netem{sent=%d delivered=%d dropped=%d reordered=%d dup=%d}",
		s.Sent, s.Delivered, s.Dropped, s.Reordered, s.Duplicated)
}
