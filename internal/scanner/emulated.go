package scanner

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"time"

	"quicspin/internal/dice"
	"quicspin/internal/fault"
	"quicspin/internal/h3"
	"quicspin/internal/hostile"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/trace"
	"quicspin/internal/transport"
	"quicspin/internal/websim"
)

// emulatedEngine scans domains with full packet-level QUIC-lite exchanges
// over a private virtual-time network. One engine instance serves one
// worker shard; everything is single-threaded on its loop, whose clock is
// the scan state's.
type emulatedEngine struct {
	scanState

	loop      *sim.Loop
	net       *netem.Network
	servers   map[netip.Addr]*netem.ServerHost // instantiated server IPs
	clientSeq int
	// arena recycles every connection this engine drives, client and server
	// side alike (all on the engine's one goroutine): their buffers at once,
	// the connections themselves when scanDomain has drained the loop.
	arena *transport.Arena
	// kits are the client kits, one per connection of the domain being
	// scanned: kits[:kitsUsed] are taken, and scanDomain's drain frees them all.
	kits     []*exchange
	kitsUsed int
	// netem and serverTurnaround are the current connection's streams for
	// the consumers every connection shares — the network and the server
	// hosts — rekeyed by emulate. A path that emulate has cleared falls back
	// to the network default, which draws nothing, so an earlier
	// connection's late traffic never rolls this connection's path dice. A
	// server host's turnaround has no such guard: an earlier connection's
	// late server events draw from the stream keyed to the live one, which
	// shifts the live connection's server timing — for a flipping
	// connection, its spin-RTT samples. A connection's emulated outcome
	// therefore depends on whether the connections before it in its domain
	// were emulated, so connect settles in closed form only a connection
	// that ends its domain's chain: none comes after it.
	netem, serverTurnaround *dice.Rand
	// serverDelay draws a server host's turnaround, bound once like clock.
	serverDelay func() time.Duration
	// req is what every server host parses a request into. Only the handler
	// reads it, before it returns; no string of it is kept.
	req h3.Request
	// stalled marks the engine unhealthy after a watchdog kill: the loop
	// still holds undrained events, so the worker must rebuild the engine
	// before scanning another domain.
	stalled bool
}

func newEmulatedEngine(w *websim.World, cfg *Config, tally *domainTally, rec *trace.Recorder) *emulatedEngine {
	loop := sim.NewLoop(campaignStart(cfg.Week))
	e := &emulatedEngine{
		loop:             loop,
		arena:            transport.NewArena(),
		servers:          map[netip.Addr]*netem.ServerHost{},
		netem:            dice.New(),
		serverTurnaround: dice.New(),
	}
	e.init(w, cfg, tally, rec, loop.Now)
	e.dial = e.connect
	// Retry backoff advances this worker's virtual clock; the loop also
	// fires any pending events inside the backoff window.
	e.sleep = func(d time.Duration) { loop.RunUntil(loop.Now().Add(d)) }
	e.net = netem.New(loop, netem.PathConfig{Delay: 10 * time.Millisecond}, e.netem.Rand)
	e.serverDelay = func() time.Duration { return e.world.Turnaround(e.serverTurnaround.Rand) }
	return e
}

// campaignStart anchors virtual time: one week apart per campaign week.
func campaignStart(week int) time.Time {
	base := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC) // CW 15, 2022
	return base.AddDate(0, 0, 7*(week-1))
}

func (e *emulatedEngine) scanDomain(d *websim.Domain, s *slabs, res *DomainResult) {
	e.runChain(d, s, res)
	// Drain the loop completely: leftover events (server retransmissions,
	// response-chunk timers, idle timeouts) belong to this domain and must
	// not fire inside the next domain's scan. A stalled loop is not drained
	// — it may never empty; the worker rebuilds the engine instead.
	if !e.stalled {
		for e.loop.Step() {
		}
		// Nothing is scheduled any more, so no callback holds a connection
		// released during this domain or a client kit taken for it: both may
		// be handed out again.
		e.arena.Drained()
		e.kitsUsed = 0
	}
}

// healthy implements engine; false after a watchdog stall.
func (e *emulatedEngine) healthy() bool { return !e.stalled }

// defaultWatchdogSteps bounds the event-loop iterations of one connection
// deterministically; a healthy exchange needs a few thousand. Exceeding it
// means the loop is re-arming events without advancing toward the virtual
// deadline — a stall.
const defaultWatchdogSteps = 4 << 20

// watchdogWall is the wall-clock bound beside the step budget: a connection
// whose loop has spun this long is declared stalled.
const watchdogWall = 30 * time.Second

// connect performs one connection attempt against ip. Packets decide a
// connection's reported numbers only where the server answers and its spin
// value can change from packet to packet; everywhere else the outcome is the
// closed form's. So an attempt that nothing answers (no server, no QUIC, an
// injected blackout), or whose well-behaved server rolled a fixed value for
// it (Zero, One, per-connection grease, Spin disabled by the 1-in-N roll),
// takes the closed form — provided it ends the domain's chain (endsChain):
// a later connection of the domain would miss the server-turnaround draws of
// this one's late events (see serverTurnaround). Everything else is
// emulated.
func (e *emulatedEngine) connect(out *ConnResult, target string, ip netip.Addr, hop, attempt int, path string, retriesLeft int) {
	if e.stalled {
		out.reset(target, ip, hop)
		out.setErr("stall: engine marked unhealthy")
		return
	}
	if !e.cfg.emulateAll {
		s := synthesis{out: out}
		if e.cf.synthesize(&s, target, ip, hop, attempt, path, true) && endsChain(out, retriesLeft) {
			// The attempt's virtual time passes as if packets had carried
			// it, so the engine's clock keeps its pace.
			e.loop.RunUntil(s.end)
			e.cf.report(&s)
			return
		}
	}
	e.emulate(out, target, ip, hop, attempt, path)
}

// emulate performs one request/response exchange against ip over the
// emulated network, into out.
func (e *emulatedEngine) emulate(out *ConnResult, target string, ip netip.Addr, hop, attempt int, path string) {
	out.reset(target, ip, hop)
	srv := e.world.ServerAt(ip)
	e.site(ip, srv) // instantiate the server stack (nil for blackholes)

	e.clientSeq++
	clientAddr := fmt.Sprintf("probe-%d", e.clientSeq)
	serverAddr := ip.String()
	e.netem.Reseed(e.dice.conn(dice.Netem, hop, attempt, dice.Client))
	e.serverTurnaround.Reseed(e.dice.conn(dice.Turnaround, hop, attempt, dice.Server))
	if e.cfg.Faults.Hit(fault.Net, fault.Blackout, serverAddr, attempt) {
		// An injected outage: the server hears nothing for this attempt.
		e.net.Blackhole(serverAddr, true)
		defer e.net.Blackhole(serverAddr, false)
	}
	if srv != nil {
		path := e.world.PathConfig(srv)
		if v := e.cfg.Vantage; v.ExtraDelay != 0 || v.ExtraJitter != 0 {
			// The vantage point's extra path sits between the probe and
			// every server, so it stacks onto the server's own shaping.
			path = path.Stack(netem.PathConfig{Delay: v.ExtraDelay, Jitter: v.ExtraJitter})
		}
		e.net.SetSymmetricPath(clientAddr, serverAddr, path)
	}
	// Wire-level misbehavior: a fresh per-connection mangler on the
	// server's outbound traffic (nil for well-behaved and site-level
	// hostile profiles).
	hostileProfile := hostile.None
	if srv != nil && srv.QUIC {
		hostileProfile = srv.Hostile
	}
	if m := hostile.NewMangler(hostileProfile); m != nil {
		e.net.SetMangler(serverAddr, m)
		defer e.net.ClearMangler(serverAddr)
	}

	start := e.loop.Now()
	rec := e.rec
	var netBefore netem.Stats
	if rec != nil {
		rec.StageStart("connect", start)
		rec.SpanAttrInt("hop", int64(hop))
		rec.SpanAttr("target", target)
		rec.SpanAttr("ip", serverAddr)
		if hostileProfile != hostile.None {
			rec.SpanAttr("hostile", hostileProfile.String())
		}
		netBefore = e.net.Stats()
	}
	x := e.kit(clientAddr, hop, attempt)
	conn := transport.NewClientConn(transport.Config{Rng: x.dice.transport.Rand, Budget: transport.DefaultBudget(), Arena: e.arena}, start)
	x.attach(e, serverAddr, conn)
	// The one teardown, on every exit: the host detaches and stops its timer,
	// the path and ordering entries of the never-reused client address go, and
	// the connection returns to the arena — quarantined until scanDomain has
	// drained the loop. Everything the result keeps is copied out before
	// (resp.Body aliases the connection's receive buffer and is not kept). A
	// stalled exit runs it too, harmlessly: that loop is never drained and
	// the worker rebuilds the engine, arena and all.
	defer func() {
		x.host.Close()
		e.net.ClearPath(clientAddr, serverAddr)
		conn.Release()
	}()
	reqID, err := x.hc.Do(&h3.Request{Method: "GET", Authority: target, Path: path, Headers: scannerHeaders})
	if err != nil {
		out.setErr(err.Error())
		if rec != nil {
			rec.StageEnd(e.loop.Now())
		}
		return
	}
	x.reqID = reqID
	x.host.Kick()

	deadline := e.loop.Now().Add(connTimeout)
	budget := e.cfg.watchdogSteps
	if budget <= 0 {
		budget = defaultWatchdogSteps
	}
	wallStart := time.Now()
	steps := 0
	for !x.done && e.loop.Now().Before(deadline) {
		if !e.loop.Step() {
			break
		}
		steps++
		// Watchdog: a deterministic step budget, plus a wall-clock bound
		// checked every 1024 steps (cheap enough for the hot path). Either
		// trips only when the loop spins without advancing virtual time.
		if steps >= budget || (steps%1024 == 0 && time.Since(wallStart) > watchdogWall) {
			e.stalled = true
			e.tm.stalls.Inc()
			stage := "h3"
			if x.hsAt.IsZero() {
				stage = "handshake"
			}
			// The message names the target, the stage the loop died in, and
			// the step budget — all pure functions of (Seed, Week, domain),
			// so results stay deterministic. The flight-recorder dump path
			// travels via the structured trace log, never the result.
			out.setErr(fmt.Sprintf("stall: %s stage for %s exceeded the watchdog budget (%d steps)", stage, target, budget))
			if rec != nil {
				rec.StageEnd(e.loop.Now())
				rec.SpanAttr("stage", stage)
				rec.MarkDump("stall")
			}
			return
		}
	}

	now := e.loop.Now()
	out.QUIC = conn.HandshakeComplete()
	obs := conn.Observations()
	for _, o := range obs {
		if o.Spin {
			out.OnePkts++
		} else {
			out.ZeroPkts++
		}
	}
	if out.HasFlips() {
		out.Observations = keep(e.slabs, &e.slabs.obs, obs...)
	}
	out.StackRTTs = keep(e.slabs, &e.slabs.rtts, conn.RTT().Samples()...)
	resp := x.resp
	// TermError is never wrapped (see its doc), so the concrete type decides.
	be, _ := conn.TermError().(*transport.BudgetError)
	switch {
	case be != nil:
		// A tripped resource budget wins over everything else: the scan was
		// aborted deliberately, whatever else was in flight.
		out.setErr(hostile.BudgetErrText(be.Kind))
		e.tm.bumpBudget(be.Kind)
		rec.MarkDump("budget")
	case x.verdict != hostile.None:
		out.setErr(hostile.ErrText(x.verdict))
	case resp == nil && out.QUIC && remoteClose(conn):
		out.setErr(hostile.ErrText(hostile.MidstreamReset))
	case resp == nil && !out.QUIC && conn.Stats().PacketsReceived > 0:
		// A lost honest handshake leaves PacketsReceived at zero (the SHLO
		// flight is one coalesced datagram); parseable packets without a
		// completed handshake mean the peer is stringing us along.
		out.setErr(hostile.ErrText(hostile.Slowloris))
	case resp != nil:
		out.Status = resp.Status
		out.Server = resp.Server()
		if resp.IsRedirect() {
			out.Redirect = resp.Location()
		}
		if p := hostile.DetectSpinPattern(obs); p != hostile.None {
			out.setErr(hostile.ErrText(p))
		}
	case x.respErr != nil:
		out.setErr(x.respErr.Error())
	case !out.QUIC:
		out.setErr("timeout: no QUIC handshake")
	default:
		out.setErr("timeout: no response")
	}

	e.tally.connTimeline(rec, start, x.hsAt, now, out, obs)
	if rec != nil {
		delta := e.net.Stats().Delta(netBefore)
		rec.SpanAttrInt("pkts_sent", int64(delta.Sent))
		rec.SpanAttrInt("pkts_dropped", int64(delta.Dropped))
	}

	conn.Close(now, 0, "scan complete")
	x.host.Kick()
}

// exchange is one connection's kit: the client's netem host and h3 client,
// the connection's own random streams, and what the activity hook learns
// while connect steps the loop — a struct's fields, with the hooks bound
// once, rather than locals captured by a closure per connection. Like a
// released transport.Conn it cannot serve the next connection at once: a
// flush the host scheduled before it was closed still fires later, so a kit
// is taken per connection and all are free again when scanDomain has
// drained the loop.
type exchange struct {
	host *netem.ClientHost
	hc   h3.ClientConn
	addr string // the client's address, unique to this connection
	dice connDice
	// served is the server side's response to the connection's one request,
	// written from the kit; it lives as long as the kit, so the chunks
	// scheduled against it stay valid until scanDomain's drain.
	served served

	reqID     uint64
	done      bool
	hsAt      time.Time // virtual handshake-completion instant (stage span)
	resp      *h3.Response
	respErr   error
	verdict   hostile.Profile
	inspected bool // response head vetted: no further inspection needed
}

// served is a server's response being streamed: the encoded head and the
// shared body, written chunk by chunk as the response plan says.
type served struct {
	head, body []byte
	plan       []websim.Chunk
	next, off  int // the plan's next chunk, and the byte it starts at
	conn       *transport.Conn
	id         uint64
	host       *netem.ServerHost
	// write is writeChunk, bound once per kit: the loop fires one call per
	// chunk of the plan.
	write func(time.Time)
}

// kit takes a free client kit for the connection of redirect hop hop and
// retry attempt attempt from clientAddr (unique per connection: a reused
// address would receive the previous hop's stale datagrams), with its
// streams keyed and nothing learned yet.
func (e *emulatedEngine) kit(clientAddr string, hop, attempt int) *exchange {
	var x *exchange
	if e.kitsUsed < len(e.kits) {
		x = e.kits[e.kitsUsed]
		*x = exchange{host: x.host, hc: x.hc, dice: x.dice, served: served{
			head: x.served.head[:0], plan: x.served.plan[:0], write: x.served.write,
		}}
	} else {
		x = &exchange{dice: connDice{dice.New(), dice.New(), dice.New(), dice.New()}}
		x.served.write = x.served.writeChunk
		e.kits = append(e.kits, x)
	}
	e.kitsUsed++
	x.addr = clientAddr
	x.dice.reseed(&e.dice, hop, attempt)
	return x
}

// connDice are one connection's own streams: the client's transport and
// turnaround, and the server side's transport (its spin dice come first)
// and application (response plan). A late event of the connection draws
// from them and from no other connection's.
type connDice struct {
	transport, turnaround, serverTransport, app *dice.Rand
}

// reseed keys the streams to the connection of redirect hop hop and retry
// attempt attempt of d's domain.
func (c connDice) reseed(d *domainDice, hop, attempt int) {
	c.transport.Reseed(d.conn(dice.Transport, hop, attempt, dice.Client))
	c.turnaround.Reseed(d.conn(dice.Turnaround, hop, attempt, dice.Client))
	c.serverTransport.Reseed(d.conn(dice.Transport, hop, attempt, dice.Server))
	c.app.Reseed(d.conn(dice.App, hop, attempt, dice.Server))
}

// attach points the kit's host and h3 client at conn, the new connection to
// serverAddr.
func (x *exchange) attach(e *emulatedEngine, serverAddr string, conn *transport.Conn) {
	if x.host == nil {
		x.host = netem.NewClientHost(e.net, x.addr, serverAddr, conn)
		world, turnaround := e.world, x.dice.turnaround.Rand
		x.host.ProcessDelay = func() time.Duration { return world.Turnaround(turnaround) }
		x.host.OnActivity = x.onActivity
	} else {
		x.host.Reset(x.addr, serverAddr, conn)
	}
	x.hc.Reset(conn)
}

// kitOf returns the kit of the client at peer, one of this domain's
// connections (the loop is drained between domains).
func (e *emulatedEngine) kitOf(peer string) *exchange {
	for i := e.kitsUsed - 1; i > 0; i-- {
		if e.kits[i].addr == peer {
			return e.kits[i]
		}
	}
	return e.kits[0]
}

// onActivity is the client host's hook: it runs after every connection event
// and decides when the exchange is over.
func (x *exchange) onActivity(c *transport.Conn, now time.Time) {
	if x.hsAt.IsZero() && c.HandshakeComplete() {
		x.hsAt = now
	}
	if x.done {
		return
	}
	// Graceful degradation: inspect the partial response stream on
	// every delivery, so a hostile response (flood, oversize, garbage)
	// is classified from its wire signature instead of being read to
	// completion — or forever.
	if !x.inspected {
		if data, _ := c.StreamRecv(x.reqID); len(data) > 0 {
			x.verdict = hostile.InspectStream(data)
			if x.verdict != hostile.None {
				x.done = true
				return
			}
			// Once the header block has terminated acceptably, nothing
			// later in the body can change the verdict.
			if bytes.Contains(data, []byte("\n\n")) {
				x.inspected = true
			}
		}
	}
	if r, complete, err := x.hc.Response(x.reqID); complete {
		x.done, x.resp, x.respErr = true, r, err
	}
	if c.Terminating() {
		x.done = true
	}
}

// remoteClose reports whether the connection was terminated by a peer
// CONNECTION_CLOSE (as opposed to a local close or timeout).
func remoteClose(conn *transport.Conn) bool {
	te, ok := conn.TermError().(*transport.TransportError)
	return ok && te.Remote
}

// site builds, on first use, the worker-local server stack for ip. Non-QUIC
// or unallocated addresses stay blackholes: the client's packets are
// delivered to nobody.
func (e *emulatedEngine) site(ip netip.Addr, srv *websim.Server) {
	if srv == nil || !srv.QUIC || e.servers[ip] != nil {
		return
	}
	week := e.cfg.Week
	// Each server connection rolls its spin dice as the first draws of its
	// own server transport stream, held by the client's kit.
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{
			Rng:        e.kitOf(peer).dice.serverTransport.Rand,
			SpinPolicy: srv.PolicyForWeek(week),
			Arena:      e.arena,
		}
	})
	host := netem.NewServerHost(e.net, ip.String(), ep)
	host.ProcessDelay = e.serverDelay
	// Serve with application timing: when a request completes, build the
	// response and stream it according to the server's response plan
	// (TTFB + dynamic-page chunk gaps).
	host.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for st, ok := ep.AcceptStream(); ok; st, ok = ep.AcceptStream() {
			// The scanner sends one request per connection, so the
			// connection's kit holds its one response.
			x := e.kitOf(st.Peer)
			conn, id, app := st.Conn, st.ID, x.dice.app.Rand
			// Site-level hostile behavior: replace the application
			// response with the profile's pathological payload.
			switch srv.Hostile {
			case hostile.OversizedBody, hostile.HeaderFlood, hostile.QlogGarbage:
				e.hostileResponse(host, srv, conn, id, app)
				continue
			}
			r := &x.served
			r.head, r.body = e.respond(r.head[:0], srv, st.Data)
			if srv.Hostile == hostile.MidstreamReset {
				// Send half the response, then slam the door.
				r.head = append(r.head, r.body...)
				e.midstreamReset(host, srv, conn, id, app, r.head)
				continue
			}
			e.streamResponse(r, host, srv, conn, id, app)
		}
	}
	e.servers[ip] = host
}

// streamResponse schedules the chunked application writes of r — head
// followed by body, never joined — according to the server's response plan.
// One r.write fires per chunk: the plan's times are nondecreasing and the
// loop fires ties in the order they were scheduled, so the calls come in
// plan order.
func (e *emulatedEngine) streamResponse(r *served, host *netem.ServerHost, srv *websim.Server, conn *transport.Conn, id uint64, app *rand.Rand) {
	r.plan = srv.AppendResponsePlan(r.plan[:0], app, len(r.head)+len(r.body))
	r.next, r.off, r.conn, r.id, r.host = 0, 0, conn, id, host
	for _, ch := range r.plan {
		e.loop.After(ch.At, r.write)
	}
}

// writeChunk writes the response's next chunk. The chunk that spans the
// boundary of head and body is two stream writes before the one flush, so
// the stream and its packets are those of writing the joined bytes.
func (r *served) writeChunk(time.Time) {
	start, end := r.off, r.off+r.plan[r.next].Bytes
	r.next, r.off = r.next+1, end
	if r.conn.Terminating() {
		return
	}
	fin, head := r.next == len(r.plan), r.head
	if start < len(head) {
		cut := min(end, len(head))
		_ = r.conn.SendStream(r.id, head[start:cut], fin && cut == end)
	}
	if end > len(head) {
		_ = r.conn.SendStream(r.id, r.body[max(start, len(head))-len(head):end-len(head)], fin)
	}
	r.host.Kick()
}

// hostileResponse streams the profile's pathological payload after the
// site's usual time-to-first-byte, never finishing the stream (the scanner
// must classify from the partial head, not wait it out).
func (e *emulatedEngine) hostileResponse(host *netem.ServerHost, srv *websim.Server, conn *transport.Conn, id uint64, app *rand.Rand) {
	data := hostile.ResponseBytes(srv.Hostile, srv.Software)
	ttfb := srv.ProcessingDelay(app)
	e.loop.After(ttfb, func(time.Time) {
		if conn.Terminating() {
			return
		}
		_ = conn.SendStream(id, data, false)
		host.Kick()
	})
}

// midstreamReset streams the first half of an honest response, then closes
// the connection with an application error before the body completes.
func (e *emulatedEngine) midstreamReset(host *netem.ServerHost, srv *websim.Server, conn *transport.Conn, id uint64, app *rand.Rand, enc []byte) {
	ttfb := srv.ProcessingDelay(app)
	half := enc[:len(enc)/2]
	e.loop.After(ttfb, func(time.Time) {
		if conn.Terminating() {
			return
		}
		_ = conn.SendStream(id, half, false)
		host.Kick()
	})
	e.loop.After(ttfb+100*time.Millisecond, func(now time.Time) {
		if conn.Terminating() {
			return
		}
		conn.Close(now, 0x10, "internal error")
		host.Kick()
	})
}

// unknownAuthority is the body of the 404 for a host the world does not
// know.
var unknownAuthority = []byte("unknown authority")

// respond parses the request data and renders the response — the landing
// page, a redirect, a 404 or a 400 — appending its head to head and
// returning the head and the body, which is shared and must not be written
// to. The Server header is the one webserver attribution reads. Header
// lines are written in name order, as h3.AppendResponseHead writes a map.
func (e *emulatedEngine) respond(head []byte, srv *websim.Server, data []byte) ([]byte, []byte) {
	req := &e.req
	if err := req.Parse(data); err != nil {
		head = h3.AppendStatus(head, 400, 0)
		return append(h3.AppendHeader(head, "server", srv.Software), '\n'), nil
	}
	status, body := 200, []byte(nil)
	d := e.world.DomainByHost(req.Authority)
	redirect := d != nil && d.RedirectTo != "" && req.Path == "/"
	switch {
	case d == nil:
		status, body = 404, unknownAuthority
	case redirect:
		status = 301
	default:
		body = patternBody(d.BodyBytes)
	}
	head = h3.AppendStatus(head, status, len(body))
	head = h3.AppendHeader(head, "content-type", "text/html")
	if redirect {
		head = h3.AppendHeader(head, "location", d.RedirectURL())
	}
	head = h3.AppendHeader(head, "server", srv.Software)
	return append(head, '\n'), body
}

// patternPage is the shared landing page every response body is sliced
// from: byte i is 'a'+i%26. It is read-only once published — workers slice
// it concurrently — and replaced by a longer page when a body outgrows it.
var patternPage atomic.Pointer[[]byte]

// patternBody returns the n-byte landing page. The result is shared and
// must not be written to.
func patternBody(n int) []byte {
	if p := patternPage.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	page := make([]byte, max(n, 256<<10))
	for i := range page {
		page[i] = byte('a' + i%26)
	}
	patternPage.Store(&page)
	return page[:n:n]
}
