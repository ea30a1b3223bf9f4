package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"strconv"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
	"quicspin/internal/websim"
	"quicspin/internal/wire"
)

// composer scans the domains of an all-QUIC world the way the emulated
// engine does, but with the harness's own host glue between the layers:
// every call into sim, netem, transport, h3 and core sits inside a span, so
// one connection's wall time splits into per-layer self times. It is the
// cost-attribution table for one emulated connection; the scanner itself
// stays unmodified.
type composer struct {
	tr  *tracer
	cur int32 // innermost open span
	req int32
	ids [len(connSpanNames)]int32 // interned span names, by sp* index

	world *websim.World
	week  int
	loop  *sim.Loop
	net   *netem.Network
	rng   *rand.Rand
	sites map[netip.Addr]*site
	seq   int
	steps int // loop events fired
}

const connWeek = 12

func (c *composer) enter(sp int) int32 {
	id := c.tr.begin(c.ids[sp], c.cur, c.req)
	c.cur = id
	return id
}

func (c *composer) leave(id int32) {
	c.tr.end(id, 1)
	c.cur = c.tr.spans[id].parent
}

// The spans of one composed connection. Everything but conn.total is a
// layer whose self time the attribution reports.
const (
	spTotal = iota
	spSetup
	spSim
	spNetem
	spRecv
	spPoll
	spTimer
	spH3Client
	spH3Server
	spObserve
)

var connSpanNames = [...]string{
	spTotal: "conn.total", spSetup: "conn.setup", spSim: "conn.sim", spNetem: "conn.netem",
	spRecv: "conn.transport_recv", spPoll: "conn.transport_poll", spTimer: "conn.transport_timer",
	spH3Client: "conn.h3_client", spH3Server: "conn.h3_server", spObserve: "conn.observe",
}

// site is one server IP on the composer's network: the harness's version
// of netem.ServerHost plus the scanner's response streaming.
type site struct {
	c     *composer
	addr  string
	srv   *websim.Server
	ep    *transport.Endpoint
	timer sim.Timer
	seen  map[*transport.Conn]bool
}

func (c *composer) site(ip netip.Addr, srv *websim.Server) *site {
	if s, ok := c.sites[ip]; ok {
		return s
	}
	s := &site{c: c, addr: ip.String(), srv: srv, seen: map[*transport.Conn]bool{}}
	s.ep = transport.NewEndpoint(func(string) transport.Config {
		return transport.Config{Rng: c.rng, SpinPolicy: srv.PolicyForWeek(c.week)}
	})
	c.net.Attach(s.addr, func(now time.Time, from string, data []byte) {
		id := c.enter(spRecv)
		_ = s.ep.Receive(now, from, data)
		c.leave(id)
		s.activity(now)
	})
	c.sites[ip] = s
	return s
}

// activity serves completed requests, then flushes after the endpoint's
// turnaround delay, as netem.ServerHost does with a ProcessDelay set.
func (s *site) activity(now time.Time) {
	c := s.c
	id := c.enter(spH3Server)
	s.serve()
	c.leave(id)
	c.loop.After(c.world.Turnaround(c.rng), s.flush)
}

func (s *site) serve() {
	c := s.c
	for _, conn := range s.ep.Conns() {
		if s.seen[conn] || !conn.HandshakeComplete() || conn.Terminating() {
			continue
		}
		data, complete := conn.StreamRecv(h3.FirstStreamID)
		if !complete {
			continue
		}
		s.seen[conn] = true
		resp := &h3.Response{Status: 400, Headers: map[string]string{"server": s.srv.Software}}
		if req, err := h3.ParseRequest(data); err == nil {
			resp = &h3.Response{Status: 404, Headers: map[string]string{"server": s.srv.Software, "content-type": "text/html"}}
			if d := c.world.DomainByHost(req.Authority); d != nil {
				resp.Status = 200
				resp.Body = make([]byte, d.BodyBytes)
				for i := range resp.Body {
					resp.Body[i] = byte('a' + i%26)
				}
			}
		}
		enc := h3.EncodeResponse(resp)
		off := 0
		plan := s.srv.ResponsePlan(c.rng, len(enc))
		for i, ch := range plan {
			piece, fin := enc[off:off+ch.Bytes], i == len(plan)-1
			off += ch.Bytes
			c.loop.After(ch.At, func(now time.Time) {
				if conn.Terminating() {
					return
				}
				id := c.enter(spH3Server)
				_ = conn.SendStream(h3.FirstStreamID, piece, fin)
				c.leave(id)
				s.flush(now)
			})
		}
	}
}

func (s *site) flush(now time.Time) {
	c := s.c
	id := c.enter(spPoll)
	out := s.ep.Poll(now)
	c.leave(id)
	for _, o := range out {
		id = c.enter(spNetem)
		c.net.Send(s.addr, o.Peer, o.Data)
		c.leave(id)
	}
	id = c.enter(spTimer)
	s.timer.Stop()
	s.timer = sim.Timer{}
	if deadline, ok := s.ep.NextTimeout(); ok {
		s.timer = c.loop.At(deadline, s.onTimer)
	}
	c.leave(id)
}

func (s *site) onTimer(now time.Time) {
	id := s.c.enter(spTimer)
	s.ep.Advance(now)
	s.c.leave(id)
	s.activity(now)
}

// probe is the client side of one connection: the harness's version of
// netem.ClientHost.
type probe struct {
	c            *composer
	addr, remote string
	conn         *transport.Conn
	hc           *h3.ClientConn
	reqID        uint64
	timer        sim.Timer
	done         bool
}

func (p *probe) activity(now time.Time) {
	c := p.c
	id := c.enter(spH3Client)
	if _, complete, _ := p.hc.Response(p.reqID); complete || p.conn.Terminating() {
		p.done = true
	}
	c.leave(id)
	c.loop.After(c.world.Turnaround(c.rng), p.flush)
}

func (p *probe) flush(now time.Time) {
	c := p.c
	id := c.enter(spPoll)
	out := p.conn.Poll(now)
	c.leave(id)
	for _, d := range out {
		id = c.enter(spNetem)
		c.net.Send(p.addr, p.remote, d)
		c.leave(id)
	}
	id = c.enter(spTimer)
	p.timer.Stop()
	p.timer = sim.Timer{}
	if deadline, ok := p.conn.NextTimeout(); ok {
		p.timer = c.loop.At(deadline, p.onTimer)
	}
	c.leave(id)
}

func (p *probe) onTimer(now time.Time) {
	id := p.c.enter(spTimer)
	p.conn.Advance(now)
	p.c.leave(id)
	p.activity(now)
}

// connect runs one request/response exchange for domain d and reports
// whether the response arrived complete.
func (c *composer) connect(d *websim.Domain, seed int64) bool {
	total := c.enter(spTotal)
	defer c.leave(total)

	id := c.enter(spSetup)
	// The scanner reseeds every random stream per domain, so that outcomes
	// do not depend on scan order.
	c.rng.Seed(seed)
	c.net.SetRng(c.rng)
	srv := c.world.ServerAt(d.V4)
	s := c.site(d.V4, srv)
	c.seq++
	p := &probe{c: c, addr: "probe-" + strconv.Itoa(c.seq), remote: s.addr}
	c.net.SetSymmetricPath(p.addr, p.remote, c.world.PathConfig(srv))
	p.conn = transport.NewClientConn(transport.Config{Rng: c.rng, Budget: transport.DefaultBudget()}, c.loop.Now())
	p.hc = h3.NewClientConn(p.conn)
	p.reqID, _ = p.hc.Do(&h3.Request{Method: "GET", Authority: d.Host(), Path: "/", Headers: map[string]string{"user-agent": "quicspin-bench"}})
	c.net.Attach(p.addr, func(now time.Time, _ string, data []byte) {
		if p.conn.Closed() {
			return
		}
		id := c.enter(spRecv)
		_ = p.conn.Receive(now, data)
		c.leave(id)
		p.activity(now)
	})
	observer := core.NewObserver(core.ObserverConfig{})
	c.net.SetTap(func(now time.Time, from, _ string, data []byte) {
		if wire.IsLongHeader(data[0]) {
			return
		}
		id := c.enter(spObserve)
		dir := core.ServerToClient
		if from == p.addr {
			dir = core.ClientToServer
		}
		observer.Observe(dir, core.Observation{T: now, Spin: data[0]&wire.SpinBitMask != 0})
		c.leave(id)
	})
	p.flush(c.loop.Now())
	c.leave(id)

	id = c.enter(spSim)
	deadline := c.loop.Now().Add(6 * time.Second) // the scanner's default timeout
	for !p.done && c.loop.Now().Before(deadline) && c.loop.Step() {
		c.steps++
	}
	c.leave(id)
	id = c.enter(spH3Client)
	_, complete, err := p.hc.Response(p.reqID)
	c.leave(id)

	id = c.enter(spSetup)
	now := c.loop.Now()
	p.conn.Close(now, 0, "scan complete")
	p.flush(now)
	p.timer.Stop()
	c.net.Detach(p.addr)
	c.net.ClearPath(p.addr, p.remote)
	c.leave(id)
	// Leftover events (the server's close handling, idle timers) belong to
	// this connection and are drained before the next one starts.
	id = c.enter(spSim)
	for c.loop.Step() {
		c.steps++
	}
	c.leave(id)
	return complete && err == nil
}

// runConnections composes opt.sz.connections emulated connections, one
// request id each, and turns their spans into the conn.* metrics. Means, not
// medians, are reported: the attribution must add up to the total.
func runConnections(tr *tracer, opt options, vals map[string]float64) (failures []string) {
	world := allQUICWorld(opt.seed, opt.sz.connections)
	start := epoch.AddDate(0, 0, 7*(connWeek-1))
	loop := sim.NewLoop(start)
	rng := rand.New(rand.NewSource(opt.seed))
	c := &composer{
		tr: tr, cur: -1,
		world: world, week: connWeek, loop: loop, rng: rng,
		net:   netem.New(loop, netem.PathConfig{Delay: 10 * time.Millisecond}, rng),
		sites: map[netip.Addr]*site{},
	}
	for sp, n := range connSpanNames {
		c.ids[sp] = tr.name(n)
	}
	// Room for every span up front, and the earlier phases' garbage gone:
	// neither the trace's growth nor their collection bills a connection.
	tr.spans = slices.Grow(tr.spans, 500*opt.sz.connections)
	runtime.GC()
	first := len(tr.spans)
	sent0 := c.net.Stats().Sent
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, complete := world.NumDomains(), 0
	for i := 0; i < n; i++ {
		c.req = int32(i + 1)
		if c.connect(world.DomainAt(i), opt.seed+int64(connWeek)+int64(i)<<8) {
			complete++
		}
	}
	runtime.ReadMemStats(&m1)

	spans, self := tr.spans[first:], selfTimes(tr.spans)[first:]
	byName := map[int32]float64{}
	var totalNs float64
	for i := range spans {
		byName[spans[i].name] += float64(self[i])
		if spans[i].name == c.ids[spTotal] {
			totalNs += float64(spans[i].end - spans[i].start)
		}
	}
	conns := float64(n)
	vals["conn.total.ns"] = totalNs / conns
	var selfNs float64
	for sp, name := range connSpanNames {
		if sp != spTotal {
			vals[name+".self_ns"] = byName[c.ids[sp]] / conns
			selfNs += byName[c.ids[sp]]
		}
	}
	if math.Abs(selfNs-totalNs) > 0.10*totalNs {
		failures = append(failures, fmt.Sprintf("composed connections: layer self times sum to %.0f ns, conn.total is %.0f ns", selfNs/conns, totalNs/conns))
	}
	vals["conn.packets"] = float64(c.net.Stats().Sent-sent0) / conns
	vals["conn.loop_events"] = float64(c.steps) / conns
	vals["conn.allocs"] = float64(m1.Mallocs-m0.Mallocs) / conns
	if per := vals["scanner.emulated_conn.ns"]; per > 0 {
		vals["conn.explains_scanner"] = vals["conn.total.ns"] / per
	}
	if complete*10 < n*9 {
		failures = append(failures, fmt.Sprintf("composed connections: only %d of %d responses arrived complete", complete, n))
	}
	return failures
}
