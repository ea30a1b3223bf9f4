package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/core"
	"quicspin/internal/dns"
	"quicspin/internal/flowtable"
	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/qlog"
	"quicspin/internal/resilience"
	"quicspin/internal/rtt"
	"quicspin/internal/scanner"
	"quicspin/internal/shard"
	"quicspin/internal/sim"
	"quicspin/internal/telemetry"
	"quicspin/internal/transport"
	"quicspin/internal/websim"
	"quicspin/internal/wire"
)

// driver times one layer at a time: the harness calls the layer's public
// functions on inputs made from the seed, spans passes of calls calls each,
// and reports the median ns per call. Cheap operations get a thousand calls
// per span; operations that cost microseconds get fewer, so a span stays
// well above the clock's resolution without the drives taking minutes.
type driver struct {
	tr    *tracer
	spans int
	div   int
	vals  map[string]float64
	tmp   string
}

// sinkhole takes the drives' results so the compiler cannot drop the calls.
var sinkhole struct {
	n   int
	err error
}

// driveResult is what one drive measured, per operation.
type driveResult struct{ ns, allocs, bytes float64 }

// measure times spans passes of fn(calls) under the span name stem, after
// one unrecorded warm-up pass. prep, when non-nil, runs untimed before every
// pass. The heap counters are read around each span, outside its clock reads.
func (d *driver) measure(stem string, calls int, prep func(), fn func(n int)) driveResult {
	name := d.tr.name(stem)
	first := len(d.tr.spans)
	var m0, m1 runtime.MemStats
	var objects, heapBytes uint64
	for i := -1; i < d.spans; i++ {
		if prep != nil {
			prep()
		}
		if i < 0 {
			fn(calls)
			continue
		}
		runtime.ReadMemStats(&m0)
		id := d.tr.begin(name, -1, 0)
		fn(calls)
		d.tr.end(id, calls)
		runtime.ReadMemStats(&m1)
		objects += m1.Mallocs - m0.Mallocs
		heapBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	perOp := make([]float64, 0, d.spans)
	for _, s := range d.tr.spans[first:] {
		perOp = append(perOp, float64(s.end-s.start)/float64(calls))
	}
	total := float64(d.spans * calls)
	return driveResult{ns: median(perOp), allocs: float64(objects) / total, bytes: float64(heapBytes) / total}
}

// store files a result under whichever of stem.ns, stem.allocs and
// stem.bytes the metric table lists.
func (d *driver) store(stem string, r driveResult) driveResult {
	for suffix, v := range map[string]float64{".ns": r.ns, ".allocs": r.allocs, ".bytes": r.bytes} {
		if _, listed := perLayerUnit[stem+suffix]; listed {
			d.vals[stem+suffix] = v
		}
	}
	return r
}

// drive measures a loop of calls calls per span (fewer on the smoke pass).
func (d *driver) drive(stem string, calls int, prep func(), fn func(n int)) driveResult {
	return d.store(stem, d.measure(stem, max(calls/d.div, 1), prep, fn))
}

// whole is drive for an operation that only comes in bulk — parsing a
// trace, scanning a world: one span runs fn once and covers ops operations.
func (d *driver) whole(stem string, ops int, fn func()) driveResult {
	return d.store(stem, d.measure(stem, ops, nil, func(int) { fn() }))
}

// atMost caps the spans of the drives fn runs: for operations that take
// milliseconds, where two hundred spans would take minutes.
func (d *driver) atMost(spans int, fn func()) {
	if keep := d.spans; keep > spans {
		d.spans = spans
		defer func() { d.spans = keep }()
	}
	fn()
}

func runLayerDrives(tr *tracer, opt options, vals map[string]float64) {
	d := &driver{tr: tr, spans: opt.sz.driveSpans, div: opt.sz.driveDivisor, vals: vals, tmp: opt.tmpRoot}

	rng := rand.New(rand.NewSource(opt.seed))
	prof := websim.DefaultProfile()
	prof.Scale, prof.Seed = opt.sz.driveScale, opt.seed // ~1100 domains with the calibrated mix of outcomes
	world := websim.Generate(prof)

	d.wire(rng)
	d.transport(rng)
	d.netemSim(rng)
	d.h3()
	d.qlog()
	d.coreRTT()
	d.names(world, prof, rng)
	d.scanner(world, opt.seed)
	d.telemetry()
	results := d.analysis(world, opt.seed)
	d.resilience(results)
	d.submit(world, results)
	d.flowtable(rng)
}

func randomCID(rng *rand.Rand) wire.ConnectionID {
	var b [transport.DefaultConnIDLen]byte
	rng.Read(b[:])
	return wire.NewConnectionID(b[:])
}

func (d *driver) wire(rng *rand.Rand) {
	body := make([]byte, 1024)
	rng.Read(body)
	short := wire.Header{DstConnID: randomCID(rng), PacketNumber: 1000, SpinBit: true, Reserved: 3}
	payload := (&wire.StreamFrame{Offset: 4096, Data: body}).Append(nil)
	buf := make([]byte, 0, 2048)
	d.drive("wire.short_append", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendShortHeader(buf[:0], &short, payload, 999)
		}
	})
	pkt, _ := wire.AppendShortHeader(nil, &short, payload, 999)
	var h wire.Header
	d.drive("wire.short_parse", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			_, sinkhole.n, sinkhole.err = wire.ParseHeaderInto(&h, pkt, transport.DefaultConnIDLen, 999)
		}
	})
	long := wire.Header{IsLong: true, Type: wire.TypeInitial, Version: wire.Version1, DstConnID: randomCID(rng), SrcConnID: randomCID(rng)}
	crypto := (&wire.CryptoFrame{Data: body[:300]}).Append(nil)
	d.drive("wire.long_append", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendLongHeader(buf[:0], &long, crypto, wire.NoAckedPacket)
		}
	})
	lpkt, _ := wire.AppendLongHeader(nil, &long, crypto, wire.NoAckedPacket)
	d.drive("wire.long_parse", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			_, sinkhole.n, sinkhole.err = wire.ParseHeaderInto(&h, lpkt, transport.DefaultConnIDLen, wire.NoAckedPacket)
		}
	})
	// The typical 1-RTT payload: an ACK riding with a full STREAM frame.
	frames := (&wire.AckFrame{Ranges: []wire.AckRange{{Smallest: 1, Largest: 30}}, DelayMicros: 800}).Append(nil)
	frames = append(frames, payload...)
	var arena wire.FrameArena
	d.drive("wire.frames_parse", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			fs, err := arena.Parse(frames)
			sinkhole.n, sinkhole.err = len(fs), err
		}
	})
	d.drive("wire.varint", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendVarint(buf[:0], uint64(i)<<7|0x55)
			_, sinkhole.n, sinkhole.err = wire.ConsumeVarint(buf)
		}
	})
}

// connPair is a client connection and a server endpoint joined back to
// back: datagrams one side polls are received by the other at once, with no
// network in between.
type connPair struct {
	now    time.Time
	client *transport.Conn
	ep     *transport.Endpoint
}

func newConnPair(rng *rand.Rand) *connPair {
	return &connPair{
		now:    epoch,
		client: transport.NewClientConn(transport.Config{Rng: rng}, epoch),
		ep:     transport.NewEndpoint(func(string) transport.Config { return transport.Config{Rng: rng} }),
	}
}

// exchange carries one flight each way and reports whether anything moved.
func (p *connPair) exchange() bool {
	moved := false
	for _, dg := range p.client.Poll(p.now) {
		_ = p.ep.Receive(p.now, "client", dg)
		moved = true
	}
	for _, out := range p.ep.Poll(p.now) {
		_ = p.client.Receive(p.now, out.Data)
		moved = true
	}
	return moved
}

// pump exchanges flights until done reports true, firing the earliest timer
// whenever both sides fall silent.
func (p *connPair) pump(done func() bool) {
	for i := 0; i < 10000 && !done(); i++ {
		p.now = p.now.Add(time.Millisecond)
		if p.exchange() {
			continue
		}
		next, ok := p.client.NextTimeout()
		if t, ok2 := p.ep.NextTimeout(); ok2 && (!ok || t.Before(next)) {
			next, ok = t, true
		}
		if !ok {
			return
		}
		if next.After(p.now) {
			p.now = next
		}
		p.client.Advance(p.now)
		p.ep.Advance(p.now)
	}
}

func (p *connPair) handshake() { p.pump(p.client.HandshakeConfirmed) }

func (d *driver) transport(rng *rand.Rand) {
	d.drive("transport.handshake", 20, nil, func(n int) {
		for i := 0; i < n; i++ {
			p := newConnPair(rng)
			p.handshake()
			sinkhole.n += p.client.Stats().PacketsSent
		}
	})
	// One op: the server receives two ack-eliciting 1-RTT packets, which
	// makes it acknowledge at once, and the client processes that ACK.
	var p *connPair
	one := []byte{'x'}
	d.drive("transport.recv_ack", 100, func() { p = newConnPair(rng); p.handshake() }, func(n int) {
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				_ = p.client.SendStream(0, one, false)
				for _, dg := range p.client.Poll(p.now) {
					_ = p.ep.Receive(p.now, "client", dg)
				}
			}
			for _, out := range p.ep.Poll(p.now) {
				_ = p.client.Receive(p.now, out.Data)
			}
		}
	})
	body := make([]byte, 32<<10)
	rng.Read(body)
	prep := func() {
		p = newConnPair(rng)
		p.handshake()
		_ = p.client.SendStream(0, one, true) // opens stream 0 on the server
		p.pump(func() bool { _, done := p.ep.Conns()[0].StreamRecv(0); return done })
	}
	d.drive("transport.stream_32k", 1, prep, func(int) {
		_ = p.ep.Conns()[0].SendStream(0, body, true)
		p.pump(func() bool { _, done := p.client.StreamRecv(0); return done })
	})
}

func (d *driver) netemSim(rng *rand.Rand) {
	start := epoch
	loop := sim.NewLoop(start)
	network := netem.New(loop, netem.PathConfig{Delay: 10 * time.Millisecond}, rng)
	network.Attach("a", func(time.Time, string, []byte) {})
	network.Attach("b", func(_ time.Time, _ string, data []byte) { sinkhole.n += len(data) })
	dg := make([]byte, datagramSize)
	d.drive("netem.send_deliver", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			network.Send("a", "b", dg)
			loop.Step()
		}
	})
	// What every scanned connection pays: a fresh probe address with its
	// own shaped path, torn down afterwards.
	path := netem.PathConfig{Delay: 20 * time.Millisecond, Jitter: time.Millisecond}
	seq := 0
	d.drive("netem.attach_detach", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			addr := "probe-" + strconv.Itoa(seq)
			network.Attach(addr, func(time.Time, string, []byte) {})
			network.SetSymmetricPath(addr, "b", path)
			network.ClearPath(addr, "b")
			network.Detach(addr)
		}
	})
	fire := func(time.Time) { sinkhole.n++ }
	d.drive("sim.schedule_fire", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			loop.After(time.Millisecond, fire)
			loop.Step()
		}
	})
}

func (d *driver) h3() {
	req := &h3.Request{Method: "GET", Authority: "www.example.com", Path: "/", Headers: map[string]string{"user-agent": "quicspin-bench"}}
	d.drive("h3.request", 200, nil, func(n int) {
		for i := 0; i < n; i++ {
			r, err := h3.ParseRequest(h3.EncodeRequest(req))
			sinkhole.err = err
			sinkhole.n += len(r.Path)
		}
	})
	resp := &h3.Response{Status: 200, Headers: map[string]string{"server": "LiteSpeed", "content-type": "text/html"}, Body: make([]byte, 32<<10)}
	d.drive("h3.response_32k", 20, nil, func(n int) {
		for i := 0; i < n; i++ {
			r, err := h3.ParseResponse(h3.EncodeResponse(resp))
			sinkhole.err = err
			sinkhole.n += len(r.Body)
		}
	})
}

func (d *driver) qlog() {
	at := epoch
	hdr := qlog.TraceHeader{QlogVersion: qlog.Version, VantagePoint: "client", ReferenceTime: at}
	spin := true
	pkt := qlog.PacketHeader{PacketType: "1RTT", PacketNumber: 7, SpinBit: &spin}
	w, err := qlog.NewWriter(io.Discard, hdr, false)
	if err != nil {
		panic(err)
	}
	d.drive("qlog.packet_write", 200, nil, func(n int) {
		for i := 0; i < n; i++ {
			pkt.PacketNumber++
			sinkhole.err = w.PacketReceived(at.Add(time.Duration(i)*time.Millisecond), pkt, datagramSize)
		}
	})
	const events = 1000
	var trace bytes.Buffer
	tw, err := qlog.NewWriter(&trace, hdr, false)
	if err != nil {
		panic(err)
	}
	for i := 0; i < events; i++ {
		pkt.PacketNumber = uint64(i)
		_ = tw.PacketReceived(at.Add(time.Duration(i)*time.Millisecond), pkt, datagramSize)
	}
	_ = tw.Close()
	data := trace.Bytes()
	// One span parses the whole trace; its ops are the events in it.
	d.atMost(50, func() {
		d.whole("qlog.parse_event", events, func() {
			t, err := qlog.Parse(bytes.NewReader(data))
			sinkhole.err = err
			sinkhole.n += len(t.Events)
		})
	})
}

// spinWave is a clean spin square wave: perEdge observations per half
// period, packet numbers rising.
func spinWave(n, perEdge int) []core.Observation {
	t0 := epoch
	obs := make([]core.Observation, n)
	for i := range obs {
		obs[i] = core.Observation{T: t0.Add(time.Duration(i) * 5 * time.Millisecond), PN: uint64(i), Spin: (i/perEdge)%2 == 1}
	}
	return obs
}

func (d *driver) coreRTT() {
	wave := spinWave(1000, spinHalfPeriod)
	d.drive("core.observe", 1000, nil, func(n int) {
		o := core.NewObserver(core.ObserverConfig{UsePacketNumberGuard: true})
		for i := 0; i < n; i++ {
			o.Observe(core.ServerToClient, wave[i%len(wave)])
		}
		sinkhole.n += len(o.Samples())
	})
	d.drive("core.edge_step", 1000, nil, func(n int) {
		var e core.EdgeState
		for i := 0; i < n; i++ {
			rtt, ok := e.Step(true, true, watchEpoch+int64(i)*tickNanos, uint64(i), (i/spinHalfPeriod)%2 == 1, 3)
			if ok {
				sinkhole.n += int(rtt)
			}
		}
	})
	// One span extracts the RTT series of the whole wave; ops are its
	// observations.
	d.whole("core.spin_rtts", len(wave), func() { sinkhole.n += len(core.SpinRTTs(wave, false)) })
	d.drive("rtt.update", 1000, nil, func(n int) {
		e := rtt.New(25 * time.Millisecond)
		for i := 0; i < n; i++ {
			e.Update(time.Duration(40+i%7)*time.Millisecond, time.Millisecond, true)
		}
		sinkhole.n += int(e.Smoothed())
	})
}

// names drives the lookups a fast-engine domain is made of: DNS, the
// world's population and the IP→AS→org attribution.
func (d *driver) names(world *websim.World, prof websim.Profile, rng *rand.Rand) {
	hosts := make([]string, world.NumDomains())
	var addrs []netip.Addr
	for i := range hosts {
		dom := world.DomainAt(i)
		hosts[i] = dom.Host()
		if dom.V4.IsValid() {
			addrs = append(addrs, dom.V4)
		}
	}
	cold := dns.NewResolver(world.DNSBackend(), rng)
	d.drive("dns.lookup_miss", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			a, _ := cold.Lookup(hosts[i%len(hosts)], dns.TypeA)
			sinkhole.n += len(a)
		}
	})
	warm := dns.NewResolver(world.DNSBackend(), rng)
	warm.EnableCache()
	for _, h := range hosts {
		_, _ = warm.Lookup(h, dns.TypeA)
	}
	d.vals["dns.lookup.allocs"] = d.drive("dns.lookup_hit", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			a, _ := warm.Lookup(hosts[i%len(hosts)], dns.TypeA)
			sinkhole.n += len(a)
		}
	}).allocs

	d.drive("websim.domain_at", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			sinkhole.n += len(world.DomainAt(i % len(hosts)).Name)
		}
	})
	// One span generates the toy world; its ops are the domains in it.
	d.atMost(20, func() {
		d.whole("websim.generate_domain", len(hosts), func() { sinkhole.n += websim.Generate(prof).NumDomains() })
	})
	db := world.ASDB()
	d.drive("asdb.lookup", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			sinkhole.n += len(db.OrgOf(addrs[i%len(addrs)]))
		}
	})
}

// allQUICWorld is a population in which every domain resolves and answers
// QUIC without redirecting: one scanned domain is exactly one connection.
func allQUICWorld(seed int64, domains int) *websim.World {
	prof := websim.DefaultProfile()
	prof.Seed = seed
	prof.Scale = prof.ZoneDomains / domains
	prof.TopDomains = 1
	prof.TopResolveRate, prof.ZoneResolveRate = 1, 1
	prof.TopQUICRate, prof.ZoneQUICRate = 1, 1
	prof.RedirectRate = 0
	prof.LegacyOrgs = nil
	return websim.Generate(prof)
}

func (d *driver) scanner(world *websim.World, seed int64) {
	scan := func(w *websim.World, engine scanner.Engine) func() {
		return func() {
			cfg := scanner.Config{Week: 12, Engine: engine, Seed: seed + 12, Workers: 1, Telemetry: telemetry.New()}
			sinkhole.err = scanner.RunStream(w, cfg, func(int, *scanner.DomainResult) error { sinkhole.n++; return nil })
		}
	}
	// One span scans the toy world on one worker; ops are its domains.
	d.atMost(50, func() {
		d.whole("scanner.fast_domain", world.NumDomains(), scan(world, scanner.EngineFast))
	})
	d.atMost(10, func() { // an emulated pass over the toy world takes ~80 ms
		d.whole("scanner.emulated_domain", world.NumDomains(), scan(world, scanner.EngineEmulated))
		quic := allQUICWorld(seed, 200/d.div+1)
		d.whole("scanner.emulated_conn", quic.NumDomains(), scan(quic, scanner.EngineEmulated))
	})
}

func (d *driver) telemetry() {
	reg := telemetry.New()
	c := reg.Counter("bench_ops_total")
	d.drive("telemetry.counter_inc", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	st := reg.Stage("bench_stage_seconds", "total", telemetry.DurationBuckets)
	at := epoch
	d.drive("telemetry.stage_span", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			st.Start(at).End(at.Add(time.Duration(i) * time.Microsecond))
		}
	})
}

// scanResults scans the toy world with the fast engine and keeps a deep
// copy of every result (the scanner reuses delivered records).
func scanResults(world *websim.World, seed int64) []scanner.DomainResult {
	var out []scanner.DomainResult
	cfg := scanner.Config{Week: 12, Engine: scanner.EngineFast, Seed: seed + 12, Workers: 1}
	err := scanner.RunStream(world, cfg, func(_ int, r *scanner.DomainResult) error {
		c := *r
		c.Conns = append([]scanner.ConnResult(nil), r.Conns...)
		for i := range c.Conns {
			c.Conns[i].Observations = append([]core.Observation(nil), c.Conns[i].Observations...)
			c.Conns[i].StackRTTs = append([]time.Duration(nil), c.Conns[i].StackRTTs...)
		}
		out = append(out, c)
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

func (d *driver) analysis(world *websim.World, seed int64) []scanner.DomainResult {
	results := scanResults(world, seed)
	db := world.ASDB()
	fold := func() *analysis.Accumulator {
		acc := analysis.NewAccumulator(12, false, db)
		for i := range results {
			acc.Add(&results[i])
		}
		return acc
	}
	// One span folds every result of the toy world; ops are the domains.
	d.whole("analysis.add", len(results), func() { sinkhole.n += len(fold().OverviewRows()) })
	acc := fold()
	blob := acc.Marshal()
	d.vals["analysis.blob.bytes"] = float64(len(blob))
	d.drive("analysis.marshal", 10, nil, func(n int) {
		for i := 0; i < n; i++ {
			sinkhole.n += len(acc.Marshal())
		}
	})
	d.drive("analysis.unmarshal", 10, nil, func(n int) {
		for i := 0; i < n; i++ {
			_, sinkhole.err = analysis.UnmarshalAccumulator(blob, db)
		}
	})
	d.vals["analysis.codec.allocs"] = d.drive("analysis.codec_round", 10, nil, func(n int) {
		for i := 0; i < n; i++ {
			_, sinkhole.err = analysis.UnmarshalAccumulator(acc.Marshal(), db)
		}
	}).allocs
	var into, from *analysis.Accumulator
	prep := func() {
		into, _ = analysis.UnmarshalAccumulator(blob, db)
		from, _ = analysis.UnmarshalAccumulator(blob, db)
	}
	d.drive("analysis.merge", 1, prep, func(int) { sinkhole.err = into.Merge(from) })
	d.drive("analysis.render", 5, nil, func(n int) {
		for i := 0; i < n; i++ {
			sinkhole.n += len(acc.RenderOverview().String()) + len(acc.RenderSpinConfig().String()) + len(acc.RenderOrgTable(8).String())
		}
	})
	return results
}

func (d *driver) resilience(results []scanner.DomainResult) {
	dir, err := os.MkdirTemp(d.tmp, "drive-journal-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	appendAll := func(sub string, cfg resilience.JournalConfig) (records int64) {
		j, err := resilience.OpenJournalWith(dir+"/"+sub, cfg)
		if err != nil {
			panic(err)
		}
		seq := 0
		d.drive("resilience."+sub, 100, nil, func(n int) {
			for i := 0; i < n; i++ {
				r := &results[seq%len(results)]
				sinkhole.err = j.Append(seq%2, "w12/"+strconv.Itoa(seq)+"/"+r.Domain, r)
				seq++
			}
		})
		if err := j.Close(); err != nil {
			panic(err)
		}
		return j.Count()
	}
	records := appendAll("journal_append", resilience.JournalConfig{})
	d.vals["resilience.journal_record.bytes"] = float64(dirBytes(dir+"/journal_append")) / float64(records)
	appendAll("journal_rotate_append", resilience.JournalConfig{SegmentBytes: 64 << 10})
	// One span replays the plain journal; ops are the records in it.
	d.atMost(5, func() {
		d.whole("resilience.journal_replay_record", int(records), func() {
			recs, _, err := resilience.Replay(dir + "/journal_append")
			sinkhole.n, sinkhole.err = len(recs), err
		})
	})
	br := resilience.NewBreaker(resilience.BreakerConfig{Threshold: 5})
	pos := 0
	d.drive("resilience.breaker", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			br.Acquire("AS13335", pos)
			br.Record("AS13335", pos, resilience.Outcome{Cost: 100 * time.Millisecond})
			pos++
		}
	})
}

// submit ships a shard's serialized campaign to a collector over loopback
// UDP — the host's loopback interface, not a link.
func (d *driver) submit(world *websim.World, results []scanner.DomainResult) {
	camp := analysis.NewCampaignAccumulator()
	acc := camp.StartWeek(12, false, world.ASDB())
	for i := range results {
		acc.Add(&results[i])
	}
	blob := camp.Marshal()
	col, err := shard.NewCollector(1, nil)
	if err != nil {
		return // no loopback socket here: shard.submit_udp.* stay absent
	}
	defer col.Close()
	retries := 0
	policy := shard.SubmitPolicy{OnRetry: func(int, error) { retries++ }}
	d.atMost(10, func() { // a submission takes ~80 ms: a handshake and a transfer over real sockets, with real-time ACK timers
		d.drive("shard.submit_udp", 1, nil, func(int) {
			sinkhole.err = shard.SubmitWithPolicy(col.Addr().String(), 0, blob, policy)
		})
		d.vals["shard.submit_udp.retries"] = float64(retries) / float64(d.spans+1)
	})
}

func (d *driver) flowtable(rng *rand.Rand) {
	ping := wire.PingFrame{}.Append(nil)
	cid := randomCID(rng)
	shortPkt := func(pn uint64) []byte {
		acked := wire.NoAckedPacket
		if pn > 0 {
			acked = pn - 1
		}
		h := wire.Header{DstConnID: cid, PacketNumber: pn, SpinBit: (pn/spinHalfPeriod)%2 == 1, Reserved: 3}
		b, err := wire.AppendShortHeader(nil, &h, ping, acked)
		if err != nil {
			panic(err)
		}
		return b
	}
	cycle := make([][]byte, pnCycle)
	for i := range cycle {
		cycle[i] = shortPkt(uint64(i))
	}
	tn := watchEpoch
	hit := newWatchTable(0)
	seq := 0
	d.drive("flowtable.ingest_hit", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			tn += tickNanos
			hit.Ingest(tn, 7, 8, cycle[seq%pnCycle])
			seq++
		}
	})
	// Admission into an empty slot: a fresh table per span, filled to a
	// quarter at most.
	var tbl *flowtable.Table
	key := uint64(1) << 40
	d.drive("flowtable.ingest_admit", 1000, func() { tbl = newWatchTable(0) }, func(n int) {
		for i := 0; i < n; i++ {
			key++
			tn += tickNanos
			tbl.Ingest(tn, key, 9, cycle[0])
		}
	})
	// Admission by LRU eviction: a small table that is always full.
	full := newWatchTable(256)
	for i := 0; i < 4096; i++ {
		key++
		tn += tickNanos
		full.Ingest(tn, key, 9, cycle[0])
	}
	d.drive("flowtable.ingest_evict", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			key++
			tn += tickNanos
			full.Ingest(tn, key, 9, cycle[0])
		}
	})
	churn := &churnWorkload{}
	if err := churn.setup(rng.Int63()); err != nil {
		panic(err)
	}
	first := churn.templates[0][0]
	d.drive("flowtable.ingest_long", 1000, nil, func(n int) {
		for i := 0; i < n; i++ {
			tn += tickNanos
			hit.Ingest(tn, 7, 8, first)
		}
	})
	resident := newWatchTable(0)
	for i := 0; i < fullSizes.residentFlows; i++ {
		for pn := uint64(0); pn < 2*spinHalfPeriod+1; pn++ {
			tn += tickNanos
			resident.Ingest(tn, uint64(1000+i), 9, cycle[pn])
		}
	}
	d.drive("flowtable.snapshot", 1, nil, func(n int) {
		for i := 0; i < n; i++ {
			sinkhole.n += len(resident.Snapshot(topK, false).Slowest)
		}
	})
	now := time.Unix(0, tn)
	d.drive("flowtable.sweep_idle", 20, nil, func(n int) {
		for i := 0; i < n; i++ {
			sinkhole.n += resident.SweepIdle(now)
		}
	})
	if st := full.Stats(); st.EvictedLRU == 0 {
		panic(fmt.Sprintf("flowtable.ingest_evict drove no eviction: %+v", st))
	}
}
