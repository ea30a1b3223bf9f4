package core

import (
	"cmp"
	"slices"
	"time"
)

// SpinRTTs computes RTT samples from a single-direction series of spin-bit
// observations exactly the way the paper does (§3.3): every change of the
// spin value between consecutive packets is a spin edge, and the time
// between two consecutive edges is one RTT sample.
//
// With sortByPN false the series is processed in received order, which is
// what an on-path observer sees (paper terminology "R"). With sortByPN true
// the series is first stably sorted by packet number, undoing network
// reordering ("S"). The input slice is never modified. It returns nil when
// the series yields no sample.
func SpinRTTs(obs []Observation, sortByPN bool) []time.Duration {
	return AppendSpinRTTs(nil, obs, sortByPN)
}

// AppendSpinRTTs is SpinRTTs appending the samples to dst, so a caller with
// storage of its own computes them without allocating. A series whose
// packet numbers never decrease is already in packet-number order, and the
// stable sort would leave it as it is: it is read in place. Only a
// reordered series is sorted, in a copy.
func AppendSpinRTTs(dst []time.Duration, obs []Observation, sortByPN bool) []time.Duration {
	if len(obs) < 2 {
		return dst
	}
	series := obs
	if sortByPN && !pnNonDecreasing(obs) {
		series = slices.Clone(obs)
		slices.SortStableFunc(series, func(a, b Observation) int { return cmp.Compare(a.PN, b.PN) })
	}
	last := series[0].Spin
	var lastEdge time.Time
	haveEdge := false
	for _, o := range series[1:] {
		if o.Spin == last {
			continue
		}
		last = o.Spin
		if haveEdge {
			dst = append(dst, o.T.Sub(lastEdge))
		}
		lastEdge = o.T
		haveEdge = true
	}
	return dst
}

// pnNonDecreasing reports whether obs is already in packet-number order.
func pnNonDecreasing(obs []Observation) bool {
	for i := 1; i < len(obs); i++ {
		if obs[i].PN < obs[i-1].PN {
			return false
		}
	}
	return true
}

// HasFlips reports whether the series contains both spin values, i.e. the
// connection is a candidate spin-bit user in the paper's classification.
func HasFlips(obs []Observation) bool {
	if len(obs) == 0 {
		return false
	}
	first := obs[0].Spin
	for _, o := range obs[1:] {
		if o.Spin != first {
			return true
		}
	}
	return false
}

// SeriesKind classifies a spin-bit series the way Table 3 of the paper does.
type SeriesKind int

const (
	// KindAllZero: every observed packet carried spin value 0.
	KindAllZero SeriesKind = iota
	// KindAllOne: every observed packet carried spin value 1.
	KindAllOne
	// KindFlipping: both values were observed; the connection either spins
	// or greases. The grease filter (analysis package) separates the two.
	KindFlipping
	// KindEmpty: no short-header packets observed.
	KindEmpty
)

// String returns the Table 3 column name of the kind.
func (k SeriesKind) String() string {
	switch k {
	case KindAllZero:
		return "All Zero"
	case KindAllOne:
		return "All One"
	case KindFlipping:
		return "Spin"
	case KindEmpty:
		return "Empty"
	default:
		return "Unknown"
	}
}

// ClassifySeries assigns the Table 3 category of a spin observation series.
func ClassifySeries(obs []Observation) SeriesKind {
	if len(obs) == 0 {
		return KindEmpty
	}
	if HasFlips(obs) {
		return KindFlipping
	}
	if obs[0].Spin {
		return KindAllOne
	}
	return KindAllZero
}

// Direction identifies the two halves of a bidirectional flow as seen by an
// on-path observer.
type Direction int

const (
	// ClientToServer packets travel from the connection initiator.
	ClientToServer Direction = iota
	// ServerToClient packets travel toward the initiator.
	ServerToClient
)

// RTTSample is one spin-bit RTT measurement produced by the Observer.
type RTTSample struct {
	// T is the time the measurement completed (second edge).
	T time.Time
	// RTT is the measured duration.
	RTT time.Duration
	// Dir is the direction whose edges produced the sample.
	Dir Direction
	// Filtered marks samples rejected by the configured heuristics; they
	// are reported for diagnostics but must not feed estimates.
	Filtered bool
}

// ObserverConfig tunes the passive Observer.
type ObserverConfig struct {
	// UsePacketNumberGuard accepts an edge only when the packet carrying it
	// has the largest packet number seen in its direction, suppressing
	// reordering-induced ultra-short spin cycles (RFC 9312 §4.2 and
	// Fig. 1b of the paper). Requires observation of packet numbers, which
	// a real observer of encrypted QUIC does not have; the paper's
	// client-side vantage point does.
	UsePacketNumberGuard bool
	// Filter optionally rejects implausible samples (see Heuristic types).
	// Rejected samples are emitted with Filtered = true.
	Filter SampleFilter
	// UseVEC consumes the Valid Edge Counter carried in the reserved bits:
	// only edges with VEC == 3 are treated as valid measurement edges.
	UseVEC bool
}

// EdgeState is the packed per-direction spin-edge state machine behind the
// Observer, exported so that fixed-memory observers (internal/flowtable) can
// embed the exact same semantics in a table slot. It is 24 bytes, holds no
// pointers, and the zero value is ready to use.
//
// Time is carried as UnixNano int64 rather than time.Time so the struct
// stays flat; in the repo's virtual-time harness the nanosecond difference
// is identical to time.Time.Sub.
type EdgeState struct {
	largestPN uint64
	lastEdge  int64 // UnixNano of the last valid edge
	edges     uint32
	flags     uint8
}

const (
	esHaveValue uint8 = 1 << iota
	esValue
	esHavePN
	esHaveEdge
)

// Step processes one short-header packet: spin value, VEC bits, packet
// number and arrival time tNanos (UnixNano). guardPN and useVEC correspond
// to ObserverConfig.UsePacketNumberGuard and UseVEC. It returns the
// completed RTT in nanoseconds when this packet closes a sample.
//
// The branch order replicates Observer.Observe exactly: PN guard, first
// value capture, value-change detection, VEC validity, edge pairing.
func (d *EdgeState) Step(guardPN, useVEC bool, tNanos int64, pn uint64, spin bool, vec uint8) (int64, bool) {
	if guardPN {
		if d.flags&esHavePN != 0 && pn <= d.largestPN {
			return 0, false
		}
		d.flags |= esHavePN
		d.largestPN = pn
	}
	if d.flags&esHaveValue == 0 {
		d.flags |= esHaveValue
		if spin {
			d.flags |= esValue
		}
		return 0, false
	}
	if spin == (d.flags&esValue != 0) {
		return 0, false
	}
	d.flags ^= esValue
	d.edges++
	if useVEC && vec != VECFullyValid {
		// Invalid edge: it must not produce a sample, and it also must not
		// serve as the start of the next one.
		d.flags &^= esHaveEdge
		return 0, false
	}
	if d.flags&esHaveEdge == 0 {
		d.flags |= esHaveEdge
		d.lastEdge = tNanos
		return 0, false
	}
	rtt := tNanos - d.lastEdge
	d.lastEdge = tNanos
	return rtt, true
}

// Edges returns the number of accepted spin transitions seen so far (value
// changes that survived the packet-number guard, valid or not under VEC).
func (d *EdgeState) Edges() uint32 { return d.edges }

// Observer is a passive on-path spin-bit observer. Feed it every
// short-header packet of one flow via Observe and collect RTT samples.
//
// Edges are detected per direction; the time between two consecutive edges
// in the same direction is a full RTT (an observer positioned anywhere on
// the path sees one edge per direction per round trip).
type Observer struct {
	cfg     ObserverConfig
	dirs    [2]EdgeState
	samples []RTTSample
}

// NewObserver returns an Observer with the given configuration.
func NewObserver(cfg ObserverConfig) *Observer {
	return &Observer{cfg: cfg}
}

// Observe processes one short-header packet travelling in dir. It returns
// the RTT sample completed by this packet, if any.
func (o *Observer) Observe(dir Direction, obs Observation) (RTTSample, bool) {
	rtt, ok := o.dirs[dir].Step(o.cfg.UsePacketNumberGuard, o.cfg.UseVEC, obs.T.UnixNano(), obs.PN, obs.Spin, obs.VEC)
	if !ok {
		return RTTSample{}, false
	}
	s := RTTSample{T: obs.T, RTT: time.Duration(rtt), Dir: dir}
	if o.cfg.Filter != nil && !o.cfg.Filter.Accept(s.RTT) {
		s.Filtered = true
	}
	o.samples = append(o.samples, s)
	return s, true
}

// Edges returns the number of accepted spin transitions observed in dir.
func (o *Observer) Edges(dir Direction) uint32 { return o.dirs[dir].Edges() }

// Samples returns every sample produced so far, including filtered ones.
// The slice aliases internal state and must not be modified.
func (o *Observer) Samples() []RTTSample { return o.samples }

// ValidSamples returns the samples that passed the configured filter.
func (o *Observer) ValidSamples() []RTTSample {
	out := make([]RTTSample, 0, len(o.samples))
	for _, s := range o.samples {
		if !s.Filtered {
			out = append(out, s)
		}
	}
	return out
}

// MeanRTT returns the mean of the valid samples in dir, or 0 if none.
func (o *Observer) MeanRTT(dir Direction) time.Duration {
	var sum time.Duration
	n := 0
	for _, s := range o.samples {
		if s.Dir == dir && !s.Filtered {
			sum += s.RTT
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}
