package conformance

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

// ChaosCase is one deterministic netem schedule an invariant run drives a
// full QUIC-lite exchange through.
type ChaosCase struct {
	// Name labels the case in reports.
	Name string
	// Path shapes both directions between client and server.
	Path netem.PathConfig
	// Seed drives every random decision of the case (loss dice, spin
	// policy dice, connection IDs). Equal cases replay identically.
	Seed int64
	// BodyBytes is the response size; zero means 64 KiB (enough bursts for
	// several spin periods).
	BodyBytes int
	// Timeout bounds the virtual exchange; zero means 30 s.
	Timeout time.Duration
}

func (c ChaosCase) bodyBytes() int {
	if c.BodyBytes == 0 {
		return 64 * 1024
	}
	return c.BodyBytes
}

func (c ChaosCase) timeout() time.Duration {
	if c.Timeout == 0 {
		return 30 * time.Second
	}
	return c.Timeout
}

// DefaultChaosCases returns the standard sweep: loss × reordering ×
// duplication over a 10 ms one-way path, plus a jitter-free pristine case.
//
// The sweep keeps Jitter + ReorderExtra ≤ Delay. Under that constraint two
// consecutive accepted spin edges in one direction are at least one
// one-way delay apart, which is what makes the RTT floor invariant provable
// rather than merely probable.
func DefaultChaosCases() []ChaosCase {
	const delay = 10 * time.Millisecond
	cases := []ChaosCase{{
		Name: "pristine",
		Path: netem.PathConfig{Delay: delay},
		Seed: 1,
	}}
	seed := int64(2)
	for _, loss := range []float64{0, 0.05, 0.2} {
		for _, reorder := range []float64{0, 0.1, 0.3} {
			for _, dup := range []float64{0, 0.1} {
				if loss == 0 && reorder == 0 && dup == 0 {
					continue // covered by dedicated jitter-only case below
				}
				cases = append(cases, ChaosCase{
					Name: fmt.Sprintf("loss%.0f%%+reorder%.0f%%+dup%.0f%%", loss*100, reorder*100, dup*100),
					Path: netem.PathConfig{
						Delay:         delay,
						Jitter:        2 * time.Millisecond,
						LossRate:      loss,
						ReorderRate:   reorder,
						ReorderExtra:  3 * time.Millisecond,
						DuplicateRate: dup,
					},
					Seed: seed,
				})
				seed++
			}
		}
	}
	cases = append(cases, ChaosCase{
		Name: "jitter-only",
		Path: netem.PathConfig{Delay: delay, Jitter: 2 * time.Millisecond},
		Seed: seed,
	})
	return cases
}

// Violation is one broken invariant.
type Violation struct {
	Case     string
	Observer string // "raw", "guarded", "vec", or "harness"
	Detail   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s: %s", v.Case, v.Observer, v.Detail)
}

// CaseResult is the outcome of one chaos case.
type CaseResult struct {
	Case ChaosCase
	// ShortPackets counts tapped short-header packets per direction
	// (ClientToServer, ServerToClient).
	ShortPackets [2]int
	// Samples maps observer name to its total sample count.
	Samples map[string]int
	// Completed reports whether the HTTP exchange finished in time.
	Completed bool
	// Violations lists every invariant broken during the case.
	Violations []Violation
}

// InvariantReport aggregates a chaos sweep.
type InvariantReport struct {
	Cases []CaseResult
}

// OK reports whether every case held every invariant.
func (r *InvariantReport) OK() bool {
	for i := range r.Cases {
		if len(r.Cases[i].Violations) > 0 {
			return false
		}
	}
	return true
}

// Summary renders a short human-readable report.
func (r *InvariantReport) Summary() string {
	var b strings.Builder
	total, bad := 0, 0
	for i := range r.Cases {
		total++
		if len(r.Cases[i].Violations) > 0 {
			bad++
		}
	}
	fmt.Fprintf(&b, "invariants: %d chaos cases, %d with violations", total, bad)
	for i := range r.Cases {
		for _, v := range r.Cases[i].Violations {
			b.WriteString("\n  ")
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// CheckInvariants runs every case and collects the results.
func CheckInvariants(cases []ChaosCase) *InvariantReport {
	rep := &InvariantReport{Cases: make([]CaseResult, len(cases))}
	for i, c := range cases {
		rep.Cases[i] = RunChaosCase(c)
	}
	return rep
}

// tapState parses tapped datagrams and feeds three observers with
// different validation settings, checking invariants on every sample.
type tapState struct {
	res *CaseResult
	// observers in checking order: raw (no guards), guarded (packet-number
	// guard), vec (guard + Valid Edge Counter).
	raw, guarded, vec *core.Observer
	// largest tracks the per-direction largest packet number for header
	// packet-number expansion.
	largest [2]uint64
	havePN  [2]bool
	// floor is the path's one-way delay; rawFloor marks schedules where
	// even the unguarded observer must respect it (no reordering and no
	// duplication: delivery order equals send order per direction).
	floor    time.Duration
	rawFloor bool
}

func (ts *tapState) violate(observer, format string, args ...any) {
	ts.res.Violations = append(ts.res.Violations, Violation{
		Case: ts.res.Case.Name, Observer: observer, Detail: fmt.Sprintf(format, args...),
	})
}

// observe feeds one short-header observation to every observer and checks
// the per-sample invariants.
func (ts *tapState) observe(dir core.Direction, ob core.Observation) {
	for _, o := range []struct {
		name string
		obs  *core.Observer
	}{{"raw", ts.raw}, {"guarded", ts.guarded}, {"vec", ts.vec}} {
		before := len(o.obs.Samples())
		s, ok := o.obs.Observe(dir, ob)
		after := len(o.obs.Samples())
		// Edge counts are monotone: one Observe call appends at most one
		// sample, and never removes any.
		want := before
		if ok {
			want++
		}
		if after != want {
			ts.violate(o.name, "sample count jumped from %d to %d on one packet", before, after)
		}
		if !ok {
			continue
		}
		// Spin-RTT floor: two accepted edges in one direction are at least
		// one one-way delay apart. The unguarded observer only inherits the
		// floor when the path cannot reorder or duplicate.
		if o.name == "raw" && !ts.rawFloor {
			continue
		}
		if s.RTT < ts.floor {
			ts.violate(o.name, "sample %v at %v undercuts one-way delay floor %v", s.RTT, s.T, ts.floor)
		}
	}
}

func (ts *tapState) tap(now time.Time, from, to string, data []byte) {
	dir := core.ClientToServer
	if from == "server" {
		dir = core.ServerToClient
	}
	for len(data) > 0 {
		largest := wire.NoAckedPacket
		if ts.havePN[dir] {
			largest = ts.largest[dir]
		}
		hdr, _, consumed, err := wire.ParseHeader(data, transport.DefaultConnIDLen, largest)
		if err != nil {
			ts.violate("harness", "unparseable datagram from %s: %v", from, err)
			return
		}
		if !hdr.IsLong {
			ts.res.ShortPackets[dir]++
			if !ts.havePN[dir] || hdr.PacketNumber > ts.largest[dir] {
				ts.largest[dir] = hdr.PacketNumber
				ts.havePN[dir] = true
			}
			ts.observe(dir, core.Observation{T: now, PN: hdr.PacketNumber, Spin: hdr.SpinBit, VEC: hdr.Reserved})
		}
		data = data[consumed:]
	}
}

// RunChaosCase drives one client/server HTTP/3-lite exchange through the
// case's netem schedule with an on-path three-observer tap, and returns the
// observed invariant checks.
func RunChaosCase(c ChaosCase) CaseResult {
	res := CaseResult{Case: c, Samples: map[string]int{}}
	start := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	loop := sim.NewLoop(start)
	rng := rand.New(rand.NewSource(c.Seed))
	net := netem.New(loop, c.Path, rng)

	ts := &tapState{
		res:      &res,
		raw:      core.NewObserver(core.ObserverConfig{}),
		guarded:  core.NewObserver(core.ObserverConfig{UsePacketNumberGuard: true}),
		vec:      core.NewObserver(core.ObserverConfig{UsePacketNumberGuard: true, UseVEC: true}),
		floor:    c.Path.Delay,
		rawFloor: c.Path.ReorderRate == 0 && c.Path.DuplicateRate == 0,
	}
	net.SetTap(ts.tap)

	// Server: spin-enabled policy with the VEC extension, serving one page.
	body := make([]byte, c.bodyBytes())
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	srv := h3.NewServer(func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{Status: 200, Headers: map[string]string{"server": "chaos/1.0"}, Body: body}
	})
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng, SpinPolicy: core.Policy{Mode: core.ModeSpin}, EnableVEC: true}
	})
	server := netem.NewServerHost(net, "server", ep)
	server.OnActivity = srv.ServeEndpoint

	conn := transport.NewClientConn(transport.Config{Rng: rng, EnableVEC: true}, start)
	client := netem.NewClientHost(net, "client", "server", conn)
	hc := h3.NewClientConn(conn)
	reqID, err := hc.Do(&h3.Request{Method: "GET", Authority: "chaos.test", Path: "/", Headers: map[string]string{}})
	if err != nil {
		ts.violate("harness", "queueing request: %v", err)
		return res
	}
	client.OnActivity = func(c *transport.Conn, now time.Time) {
		if res.Completed {
			return
		}
		if resp, complete, err := hc.Response(reqID); complete {
			res.Completed = err == nil && resp != nil && resp.Status == 200
		}
	}
	client.Kick()

	deadline := start.Add(c.timeout())
	for !res.Completed && loop.Now().Before(deadline) {
		if !loop.Step() {
			break
		}
	}
	conn.Close(loop.Now(), 0, "conformance done")
	client.Kick()
	for loop.Step() {
	}

	res.Samples["raw"] = len(ts.raw.Samples())
	res.Samples["guarded"] = len(ts.guarded.Samples())
	res.Samples["vec"] = len(ts.vec.Samples())

	if !res.Completed {
		ts.violate("harness", "exchange did not complete within %v", c.timeout())
	}
	if res.ShortPackets[0] == 0 || res.ShortPackets[1] == 0 {
		ts.violate("harness", "tap saw no short-header packets (c→s %d, s→c %d)", res.ShortPackets[0], res.ShortPackets[1])
	}
	if res.Samples["guarded"] == 0 {
		// A spinning 64 KiB transfer spans several round trips; a guarded
		// observer that produced nothing means the harness is broken.
		ts.violate("guarded", "no spin-RTT samples on a spinning connection")
	}
	checkVecSubset(ts)
	return res
}

// checkVecSubset asserts that the VEC-validated sample multiset is
// contained in the guarded observer's multiset: both accept the identical
// packet series (same packet-number guard), and every VEC-valid sample
// spans two adjacent edges of that series, so it must also appear — at the
// same time, with the same duration — in the guarded observer's output.
func checkVecSubset(ts *tapState) {
	type key struct {
		dir core.Direction
		t   int64
		rtt time.Duration
	}
	avail := map[key]int{}
	for _, s := range ts.guarded.Samples() {
		avail[key{s.Dir, s.T.UnixNano(), s.RTT}]++
	}
	for _, s := range ts.vec.Samples() {
		k := key{s.Dir, s.T.UnixNano(), s.RTT}
		if avail[k] == 0 {
			ts.violate("vec", "sample (%v, %v, dir %d) not in guarded observer's set", s.T, s.RTT, s.Dir)
			continue
		}
		avail[k]--
	}
}
