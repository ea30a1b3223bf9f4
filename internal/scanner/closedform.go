package scanner

import (
	"math/rand"
	"net/netip"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/dice"
	"quicspin/internal/fault"
	"quicspin/internal/hostile"
	"quicspin/internal/transport"
	"quicspin/internal/websim"
)

// closedForm synthesises a connection's outcome without packet emulation,
// from the same ground truth as the emulated engine (servers, policies,
// response plans) and a closed-form model of its packet timing. Both engines
// hold one in their scan state: the fast engine reports every connection
// through it, the emulated engine the connections whose reported numbers
// packets cannot change (see emulatedEngine.connect). It draws from its own
// streams, keyed by the state's domain dice, and reads the state's virtual
// clock.
type closedForm struct {
	// st is the scan state that holds it: the world, the configuration,
	// telemetry, the trace recorder, the clock, the domain dice and the
	// slabs of the domain being scanned.
	st *scanState
	// transport, app and netem are the streams of the connection being
	// synthesised, rekeyed by synthesize: the server's spin dice and
	// per-packet grease (the emulated server's transport stream), its
	// response plan, and the path jitter the closed-form timing stands in
	// for.
	transport, app, netem *dice.Rand

	// times, plan and ctrl are per-connection synthesis scratch, reused
	// across connections to keep the campaign hot loop allocation-free.
	times []time.Duration
	plan  []websim.Chunk
	ctrl  *core.Controller
	// obs is the last synthesised series, nil for one that cannot flip. It
	// lies in the spare capacity of the domain's observation slab, past its
	// length, where report keeps it by extending the slab over it; the
	// slab's next append overwrites it.
	obs []core.Observation
}

func newClosedForm(st *scanState) closedForm {
	return closedForm{
		st:        st,
		transport: dice.New(),
		app:       dice.New(),
		netem:     dice.New(),
		ctrl:      core.NewController(false, core.Policy{}, nil),
	}
}

// Model constants mirroring the emulated transport.
const (
	fastMTUPayload   = 1100 // stream bytes per short packet (after headers)
	fastBurstSize    = 10   // transport.DefaultMaxInFlight
	fastStackSamples = 4
)

// synthesis is one connection's closed-form outcome before it is reported:
// the result, filled in place, the virtual instants of its stage timeline,
// and what report keeps or tallies for it.
type synthesis struct {
	out *ConnResult
	// srv is the answering QUIC server, nil when nothing answered.
	srv *websim.Server
	// start, hsAt and end are the attempt's virtual instants; a zero hsAt
	// means no handshake completed.
	start, hsAt, end time.Time
	// budget names the transport resource budget the exchange trips, if any.
	budget string
	// observed marks an exchange with a response phase: the observe span,
	// and the stack-RTT samples in stack.
	observed bool
	stack    [fastStackSamples]time.Duration
}

// connect synthesises and reports one connection attempt into out.
func (c *closedForm) connect(out *ConnResult, target string, ip netip.Addr, hop, attempt int, path string, _ int) {
	s := synthesis{out: out}
	c.synthesize(&s, target, ip, hop, attempt, path, false)
	c.report(&s)
}

// synthesize fills s, and the result s.out points at, with the outcome of
// the attempt of redirect hop hop and retry attempt attempt at ip. With
// settledOnly it gives up — and reports false — on an answering server whose
// outcome packets could change: a hostile one, or one whose controller
// rolled Spin or per-packet grease for this connection. Nothing is reported
// or kept until report.
func (c *closedForm) synthesize(s *synthesis, target string, ip netip.Addr, hop, attempt int, path string, settledOnly bool) bool {
	st := c.st
	s.out.reset(target, ip, hop)
	s.start = st.clock()
	// The nil check spares the fault-free hot loop ip.String()'s allocation.
	if f := st.cfg.Faults; f != nil && f.Hit(fault.Net, fault.Blackout, ip.String(), attempt) {
		// Mirror the emulated engine during an injected outage: every
		// packet is lost, so the handshake times out.
		c.timedOut(s, "timeout: no QUIC handshake")
		return true
	}
	srv := st.world.ServerAt(ip)
	if srv == nil || !srv.QUIC {
		c.timedOut(s, "timeout: no QUIC handshake")
		return true
	}
	s.srv = srv
	if settledOnly && srv.Hostile != hostile.None {
		return false
	}
	if srv.Hostile == hostile.Slowloris {
		// The slowloris peer strings the handshake along without ever
		// completing it: the scan burns the full timeout, handshake-less.
		c.timedOut(s, hostile.ErrText(hostile.Slowloris))
		return true
	}
	s.out.QUIC = true
	// Nothing above draws, so most attempts — unanswered ones — key no
	// stream.
	c.transport.Reseed(st.dice.conn(dice.Transport, hop, attempt, dice.Server))
	c.app.Reseed(st.dice.conn(dice.App, hop, attempt, dice.Server))
	c.netem.Reseed(st.dice.conn(dice.Netem, hop, attempt, dice.Client))
	switch srv.Hostile {
	case hostile.MalformedHeader, hostile.MalformedFrames, hostile.PacketStorm,
		hostile.OversizedBody, hostile.HeaderFlood, hostile.QlogGarbage,
		hostile.MidstreamReset:
		// Post-handshake misbehavior: the scan completes the handshake but
		// never obtains a usable response (QUIC=true, Status=0), matching
		// the emulated engine's graceful degradation.
		c.hostileOutcome(s, srv)
		return true
	}

	// The server's spin controller rolls its dice (1-in-N disable,
	// per-connection grease) as the first draws of the connection's server
	// transport stream, exactly as the emulated server's transport does, so
	// both engines see the same dice. Reset is NewController's body: the
	// same dice in the same order. Nothing else draws from this stream, so
	// rolling before the path draws moves no draw.
	c.ctrl.Reset(false, srv.PolicyForWeek(st.cfg.Week), c.transport.Rand)
	if m := c.ctrl.EffectiveMode(); settledOnly && (m == core.ModeSpin || m == core.ModeGreasePerPacket) {
		return false
	}

	rtt := c.pathRTT(srv)
	// Stack samples: one per handshake flight plus data-phase samples,
	// each jittered around the network RTT.
	for i := range s.stack {
		s.stack[i] = jittered(c.netem.Rand, rtt, 0.04)
	}

	// Response content.
	d := st.world.DomainByHost(target)
	s.out.Server = srv.Software
	respBytes := 512
	switch {
	case d == nil:
		s.out.Status = 404
	case d.RedirectTo != "" && path == "/":
		s.out.Status = 301
		s.out.Redirect = d.RedirectURL()
	default:
		s.out.Status = 200
		respBytes = d.BodyBytes
	}

	// The emulated engine's virtual timeline: the handshake completes at
	// ~1.5 RTT, the request phase runs until the last received packet — or
	// until the deadline, where the emulated engine gives up on a response
	// still in flight.
	s.hsAt = s.start.Add(3 * rtt / 2)
	lastAt, complete := c.synthesizeObservations(s, rtt, respBytes, connTimeout-3*rtt/2)
	s.end = s.hsAt.Add(lastAt)
	if !complete {
		s.out.Status, s.out.Server, s.out.Redirect = 0, "", ""
		s.out.setErr("timeout: no response")
		s.end = s.start.Add(connTimeout)
	}
	s.observed = true
	return true
}

// report emits s's telemetry and trace spans — once per connection, here or
// in the emulated engine's packet path, never both — and keeps its samples
// and, when it flips, its observations in the domain's slabs.
func (c *closedForm) report(s *synthesis) {
	st, out := c.st, s.out
	if rec := st.rec; rec != nil {
		rec.StageStart("connect", s.start)
		rec.SpanAttrInt("hop", int64(out.Hop))
		rec.SpanAttr("target", out.Target)
		rec.SpanAttr("ip", out.IP.String())
		if s.srv != nil && s.srv.Hostile != hostile.None {
			rec.SpanAttr("hostile", s.srv.Hostile.String())
		}
	}
	if s.budget != "" {
		st.tm.bumpBudget(s.budget)
		st.rec.MarkDump("budget")
	}
	var observed *ConnResult
	if s.observed {
		out.StackRTTs = keep(st.slabs, &st.slabs.rtts, s.stack[:]...)
		observed = out
	}
	st.tally.connTimeline(st.rec, s.start, s.hsAt, s.end, observed, c.obs)
	st.settled = true
	// Only series with flips are retained: the synthesis ran in the slab's
	// spare capacity, and the retained minority is kept where it lies.
	if out.HasFlips() {
		first := len(st.slabs.obs)
		st.slabs.obs = st.slabs.obs[:first+len(c.obs)]
		out.Observations = tail(st.slabs.obs, first)
	}
}

// timedOut is the outcome of an attempt that never completes a handshake. It
// models the emulated engine's stage timing: a blackholed target burns the
// full virtual timeout.
func (c *closedForm) timedOut(s *synthesis, err string) {
	s.out.setErr(err)
	s.end = s.start.Add(connTimeout)
}

// hostileOutcome models a post-handshake hostile exchange: profiles that
// characteristically trip a per-connection resource budget report the
// budget's error text (and bump its counter) like the emulated transport
// does; the rest carry the profile's canonical hostile error.
func (c *closedForm) hostileOutcome(s *synthesis, srv *websim.Server) {
	switch srv.Hostile {
	case hostile.MalformedHeader:
		s.budget = transport.BudgetMalformedDatagram
	case hostile.MalformedFrames:
		s.budget = transport.BudgetMalformedFrame
	case hostile.PacketStorm:
		s.budget = transport.BudgetRecvPackets
	}
	if s.budget != "" {
		s.out.setErr(hostile.BudgetErrText(s.budget))
	} else {
		s.out.setErr(hostile.ErrText(srv.Hostile))
	}
	// Handshake at ~1.5 RTT as usual, and roughly one more round trip until
	// the degradation cutoff.
	rtt := c.pathRTT(srv)
	s.hsAt = s.start.Add(3 * rtt / 2)
	s.end = s.hsAt.Add(rtt)
}

func (c *closedForm) pathRTT(srv *websim.Server) time.Duration {
	// Base RTT plus symmetric jitter as netem would apply; the vantage
	// point's extra one-way delay and jitter enter the closed form exactly
	// as the emulated engine's stacked netem path applies them (once per
	// direction).
	v := &c.st.cfg.Vantage
	base := srv.BaseRTT + 2*v.ExtraDelay
	j := time.Duration(c.st.world.Profile.PathJitterMs*float64(time.Millisecond)) + v.ExtraJitter
	if j <= 0 {
		return base
	}
	return base + time.Duration(c.netem.Int63n(int64(2*j)))
}

// synthesizeObservations emulates the received 1-RTT packet series of the
// client: HANDSHAKE_DONE + response bursts, with the spin value evolving
// as the server reflects the client's wave. Packets arriving after cutoff
// (relative to handshake completion) are never seen. It returns the arrival
// time of the last packet seen, relative to handshake completion (the
// request stage duration), and whether the whole response arrived.
func (c *closedForm) synthesizeObservations(s *synthesis, rtt time.Duration, respBytes int, cutoff time.Duration) (time.Duration, bool) {
	srv, ctrl := s.srv, c.ctrl
	c.plan = srv.AppendResponsePlan(c.plan[:0], c.app.Rand, respBytes)
	plan := c.plan
	// Receive times of server packets, relative to handshake completion. The
	// in-flight window is the connection's, not the chunk's: a chunk written
	// while an earlier one is still in flight queues behind it.
	times := c.times[:0]
	times = append(times, 0) // HANDSHAKE_DONE (+ request ACK)
	var next time.Duration
	complete := true
	for _, ch := range plan {
		pkts := (ch.Bytes + fastMTUPayload - 1) / fastMTUPayload
		if pkts < 1 {
			pkts = 1
		}
		bursts := (pkts + fastBurstSize - 1) / fastBurstSize
		at := max(ch.At, next)
		for b := 0; b < bursts; b++ {
			n := fastBurstSize
			if b == bursts-1 {
				n = pkts - b*fastBurstSize
			}
			for k := 0; k < n; k++ {
				if t := at + time.Duration(k)*50*time.Microsecond; t <= cutoff {
					times = append(times, t)
				} else {
					complete = false
				}
			}
			at += rtt
		}
		next = at
	}
	c.times = times // keep the grown scratch for the next connection

	// Client spin wave: the client flips its value when it receives a new
	// largest packet; the server's packets reflect the client value that
	// was current roughly one client-ack earlier. We model the reflected
	// value as flipping at every burst boundary ≥ one RTT after the
	// previous flip (the ack round trip).
	spin := false // server starts reflecting the client's 0
	mode := ctrl.EffectiveMode()
	lastFlip := -rtt
	var pn uint64
	var lastAt time.Duration
	// Only a series with flips is kept (see report), and only these modes
	// and spin liars can flip: a constant series is counted, not written,
	// for it holds neither an edge nor a liar's pattern. A series that can
	// flip goes straight into the spare capacity of the domain's observation
	// slab, grown first to hold one observation per packet.
	canFlip := mode == core.ModeSpin || mode == core.ModeGreasePerPacket ||
		srv.Hostile == hostile.SpinFlap || srv.Hostile == hostile.SpinLiar
	var obs []core.Observation
	if canFlip {
		slabs := c.st.slabs
		reserve(slabs, &slabs.obs, len(times))
		obs = slabs.obs[len(slabs.obs):len(slabs.obs)]
	}
	for _, at := range times {
		if at > lastAt {
			lastAt = at
		}
		if mode == core.ModeSpin && at >= lastFlip+rtt && at > 0 {
			spin = !spin
			lastFlip = at
		}
		v := spin
		if mode != core.ModeSpin {
			// Fixed values, the per-connection grease value and per-packet
			// grease draws, all from the controller's transport stream.
			v = ctrl.Next()
		}
		// Spin liars override the policy's value with their synthetic wire
		// pattern (after the controller, so its draws stay identical).
		switch srv.Hostile {
		case hostile.SpinFlap:
			v = pn%2 == 1
		case hostile.SpinLiar:
			v = (pn/2)%2 == 1
		}
		if canFlip {
			obs = append(obs, core.Observation{T: s.hsAt.Add(at), PN: pn, Spin: v})
		}
		pn++
		if v {
			s.out.OnePkts++
		} else {
			s.out.ZeroPkts++
		}
	}
	c.obs = obs
	// Run the same pure spin-pattern detector the emulated engine applies,
	// before the no-flip discard (the detector needs the series).
	if p := hostile.DetectSpinPattern(obs); p != hostile.None {
		s.out.setErr(hostile.ErrText(p))
	}
	return lastAt, complete
}

func jittered(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	f := 1 + (rng.Float64()*2-1)*frac
	return time.Duration(float64(d) * f)
}
