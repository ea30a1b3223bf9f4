package scanner

import (
	"math/rand"
	"net/netip"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/dice"
	"quicspin/internal/dns"
	"quicspin/internal/fault"
	"quicspin/internal/hostile"
	"quicspin/internal/trace"
	"quicspin/internal/transport"
	"quicspin/internal/websim"
)

// fastEngine synthesises scan outcomes without packet emulation, using the
// same ground truth (servers, policies, response plans) and a closed-form
// model of the emulated engine's packet timing. It exists for
// campaign-scale runs; TestEnginesAgree validates it against the emulated
// engine.
type fastEngine struct {
	world *websim.World
	cfg   Config
	tm    *scanTelemetry
	rec   *trace.Recorder
	// clock feeds runChain's trace timestamps; bound once so the per-scan
	// call passes an existing closure instead of allocating one.
	clock    func() time.Time
	resolver *dns.Resolver
	now      time.Time
	dice     domainDice
	// transport, app and netem are the streams of the connection being
	// synthesised, rekeyed by connect: the server's spin dice and per-packet
	// grease (the emulated server's transport stream), its response plan,
	// and the path jitter the closed-form timing stands in for.
	transport, app, netem *dice.Rand

	// times, obs, plan and ctrl are per-connection synthesis scratch, reused
	// across connections to keep the campaign hot loop allocation-free;
	// retained observation series are copied out (see
	// synthesizeObservations).
	times []time.Duration
	obs   []core.Observation
	plan  []websim.Chunk
	ctrl  *core.Controller
	// slabs keeps the results of the domain being scanned (scanDomain).
	slabs *slabs
}

func newFastEngine(w *websim.World, cfg Config, tm *scanTelemetry, rec *trace.Recorder) *fastEngine {
	e := &fastEngine{
		world:     w,
		cfg:       cfg,
		tm:        tm,
		rec:       rec,
		now:       campaignStart(cfg.Week),
		dice:      newDomainDice(),
		transport: dice.New(),
		app:       dice.New(),
		netem:     dice.New(),
		ctrl:      core.NewController(false, core.Policy{}, nil),
	}
	e.resolver = dns.NewResolver(w.DNSBackend(), e.dice.dns.Rand)
	e.clock = func() time.Time { return e.now }
	e.resolver.EnableCache()
	e.resolver.SetTelemetry(cfg.Telemetry)
	e.resolver.SetFaults(cfg.Faults)
	return e
}

func (e *fastEngine) scanDomain(d *websim.Domain, s *slabs) DomainResult {
	e.dice.reseed(e.cfg, d.Name)
	e.slabs = s
	// No virtual clock to advance here: retry backoff only draws jitter
	// from the retry stream (sleep is a no-op).
	return runChain(e.cfg, e.dice.retry.Rand, e.resolver, nil, e.tm, e.rec, e.clock, d, s, e.connect)
}

// healthy implements engine; the fast engine holds no loop state that can
// stall.
func (e *fastEngine) healthy() bool { return true }

// clockNow implements engine: the week's fixed campaign-start instant
// (the fast engine's closed-form timeline is anchored there).
func (e *fastEngine) clockNow() time.Time { return e.now }

// Model constants mirroring the emulated transport.
const (
	fastMTUPayload   = 1100 // stream bytes per short packet (after headers)
	fastBurstSize    = 10   // transport.DefaultMaxInFlight
	fastStackSamples = 4
)

func (e *fastEngine) connect(target string, ip netip.Addr, hop, attempt int, path string) ConnResult {
	out := ConnResult{Target: target, IP: ip, Hop: hop}
	rec := e.rec
	if rec != nil {
		rec.StageStart("connect", e.now)
		rec.SpanAttrInt("hop", int64(hop))
		rec.SpanAttr("target", target)
		rec.SpanAttr("ip", ip.String())
	}
	// The nil check spares the fault-free hot loop ip.String()'s allocation.
	if f := e.cfg.Faults; f != nil && f.Hit(fault.Net, fault.Blackout, ip.String(), attempt) {
		// Mirror the emulated engine during an injected outage: every
		// packet is lost, so the handshake times out.
		return e.timedOut(out, "timeout: no QUIC handshake")
	}
	srv := e.world.ServerAt(ip)
	if srv == nil || !srv.QUIC {
		return e.timedOut(out, "timeout: no QUIC handshake")
	}
	if rec != nil && srv.Hostile != hostile.None {
		rec.SpanAttr("hostile", srv.Hostile.String())
	}
	if srv.Hostile == hostile.Slowloris {
		// The slowloris peer strings the handshake along without ever
		// completing it: the scan burns the full timeout, handshake-less.
		return e.timedOut(out, hostile.ErrText(hostile.Slowloris))
	}
	out.QUIC = true
	// Nothing above draws, so most attempts — unanswered ones — key no
	// stream.
	e.transport.Reseed(e.dice.conn(dice.Transport, hop, attempt, dice.Server))
	e.app.Reseed(e.dice.conn(dice.App, hop, attempt, dice.Server))
	e.netem.Reseed(e.dice.conn(dice.Netem, hop, attempt, dice.Client))
	switch srv.Hostile {
	case hostile.MalformedHeader, hostile.MalformedFrames, hostile.PacketStorm,
		hostile.OversizedBody, hostile.HeaderFlood, hostile.QlogGarbage,
		hostile.MidstreamReset:
		// Post-handshake misbehavior: the scan completes the handshake but
		// never obtains a usable response (QUIC=true, Status=0), matching
		// the emulated engine's graceful degradation.
		return e.hostileOutcome(out, srv)
	}

	rtt := e.pathRTT(srv)
	// Stack samples: one per handshake flight plus data-phase samples,
	// each jittered around the network RTT.
	var stack [fastStackSamples]time.Duration
	for i := range stack {
		stack[i] = jittered(e.netem.Rand, rtt, 0.04)
	}
	out.StackRTTs = keep(e.slabs, &e.slabs.rtts, stack[:]...)

	// Response content.
	d := e.world.DomainByHost(target)
	out.Server = srv.Software
	respBytes := 512
	switch {
	case d == nil:
		out.Status = 404
	case d.RedirectTo != "" && path == "/":
		out.Status = 301
		out.Redirect = "https://www." + d.RedirectTo + "/landing"
	default:
		out.Status = 200
		respBytes = d.BodyBytes
	}

	// Spin series synthesis: the server's spin controller rolls its dice
	// (1-in-N disable, per-connection grease) as the first draws of the
	// connection's server transport stream, exactly as the emulated server's
	// transport does, so both engines see the same dice. Reset is
	// NewController's body: the same dice in the same order.
	e.ctrl.Reset(false, srv.PolicyForWeek(e.cfg.Week), e.transport.Rand)
	lastAt, complete := e.synthesizeObservations(&out, e.ctrl, srv, rtt, respBytes, connTimeout-3*rtt/2)

	// The emulated engine's virtual timeline: the handshake completes at
	// ~1.5 RTT, the request phase runs until the last received packet — or
	// until the deadline, where the emulated engine gives up on a response
	// still in flight.
	hsAt := e.now.Add(3 * rtt / 2)
	end := hsAt.Add(lastAt)
	if !complete {
		out.Status, out.Server, out.Redirect, out.Err = 0, "", "", "timeout: no response"
		end = e.now.Add(connTimeout)
	}
	e.tm.connTimeline(rec, e.now, hsAt, end, &out, e.obs)
	return out
}

// timedOut is the outcome of an attempt that never completes a handshake. It
// models the emulated engine's stage timing: a blackholed target burns the
// full virtual timeout.
func (e *fastEngine) timedOut(out ConnResult, err string) ConnResult {
	out.Err = err
	e.tm.connTimeline(e.rec, e.now, time.Time{}, e.now.Add(connTimeout), nil, nil)
	return out
}

// hostileOutcome models a post-handshake hostile exchange: profiles that
// characteristically trip a per-connection resource budget report the
// budget's error text (and bump its counter) like the emulated transport
// does; the rest carry the profile's canonical hostile error.
func (e *fastEngine) hostileOutcome(out ConnResult, srv *websim.Server) ConnResult {
	switch srv.Hostile {
	case hostile.MalformedHeader:
		out.Err = hostile.BudgetErrText(transport.BudgetMalformedDatagram)
		e.tm.bumpBudget(transport.BudgetMalformedDatagram)
		e.rec.MarkDump("budget")
	case hostile.MalformedFrames:
		out.Err = hostile.BudgetErrText(transport.BudgetMalformedFrame)
		e.tm.bumpBudget(transport.BudgetMalformedFrame)
		e.rec.MarkDump("budget")
	case hostile.PacketStorm:
		out.Err = hostile.BudgetErrText(transport.BudgetRecvPackets)
		e.tm.bumpBudget(transport.BudgetRecvPackets)
		e.rec.MarkDump("budget")
	default:
		out.Err = hostile.ErrText(srv.Hostile)
	}
	// Handshake at ~1.5 RTT as usual, and roughly one more round trip until
	// the degradation cutoff.
	rtt := e.pathRTT(srv)
	hsAt := e.now.Add(3 * rtt / 2)
	e.tm.connTimeline(e.rec, e.now, hsAt, hsAt.Add(rtt), nil, nil)
	return out
}

func (e *fastEngine) pathRTT(srv *websim.Server) time.Duration {
	// Base RTT plus symmetric jitter as netem would apply; the vantage
	// point's extra one-way delay and jitter enter the closed form exactly
	// as the emulated engine's stacked netem path applies them (once per
	// direction).
	base := srv.BaseRTT + 2*e.cfg.Vantage.ExtraDelay
	j := time.Duration(e.world.Profile.PathJitterMs*float64(time.Millisecond)) + e.cfg.Vantage.ExtraJitter
	if j <= 0 {
		return base
	}
	return base + time.Duration(e.netem.Int63n(int64(2*j)))
}

// synthesizeObservations emulates the received 1-RTT packet series of the
// client: HANDSHAKE_DONE + response bursts, with the spin value evolving
// as the server reflects the client's wave. Packets arriving after cutoff
// (relative to handshake completion) are never seen. It returns the arrival
// time of the last packet seen, relative to handshake completion (the
// request stage duration), and whether the whole response arrived.
func (e *fastEngine) synthesizeObservations(out *ConnResult, ctrl *core.Controller, srv *websim.Server, rtt time.Duration, respBytes int, cutoff time.Duration) (time.Duration, bool) {
	e.plan = srv.AppendResponsePlan(e.plan[:0], e.app.Rand, respBytes)
	plan := e.plan
	// Receive times of server packets, relative to handshake completion. The
	// in-flight window is the connection's, not the chunk's: a chunk written
	// while an earlier one is still in flight queues behind it.
	times := e.times[:0]
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
	e.times = times // keep the grown scratch for the next connection

	// Client spin wave: the client flips its value when it receives a new
	// largest packet; the server's packets reflect the client value that
	// was current roughly one client-ack earlier. We model the reflected
	// value as flipping at every burst boundary ≥ one RTT after the
	// previous flip (the ack round trip).
	spin := false // server starts reflecting the client's 0
	mode := ctrl.EffectiveMode()
	lastFlip := -rtt
	base := campaignStart(e.cfg.Week).Add(3 * rtt / 2) // handshake done at ~1.5 RTT
	var pn uint64
	var lastAt time.Duration
	obs := e.obs[:0]
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
		ob := core.Observation{T: base.Add(at), PN: pn, Spin: v}
		pn++
		if v {
			out.OnePkts++
		} else {
			out.ZeroPkts++
		}
		obs = append(obs, ob)
	}
	e.obs = obs // keep the grown scratch for the next connection
	// Run the same pure spin-pattern detector the emulated engine applies,
	// before the no-flip discard (the detector needs the series).
	if p := hostile.DetectSpinPattern(obs); p != hostile.None {
		out.Err = hostile.ErrText(p)
	}
	// Only series with flips are retained, so the synthesis above runs
	// entirely in scratch and the retained minority is copied to the slab.
	if out.HasFlips() {
		out.Observations = keep(e.slabs, &e.slabs.obs, obs...)
	}
	return lastAt, complete
}

func jittered(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	f := 1 + (rng.Float64()*2-1)*frac
	return time.Duration(float64(d) * f)
}
