package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"quicspin/internal/flowtable"
	"quicspin/internal/telemetry"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

const (
	// watchBatch is the feeders' hand-off size: IngestBatch on the churn
	// workload, the span granularity on both.
	watchBatch = 256
	// pnCycle is how many packets per direction a resident flow's trace
	// holds: a full turn of the one-byte packet number, so replaying the
	// trace keeps the decoded packet numbers rising.
	pnCycle = 256
	// spinHalfPeriod is how many packets per direction share a spin value.
	spinHalfPeriod = 4
	// tickNanos is the virtual time between two tapped datagrams.
	tickNanos = 1000
	topK      = 10 // spinwatch's -top default
)

// epoch is the Monday of the campaign's first week: virtual time starts here.
var (
	epoch      = time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	watchEpoch = epoch.UnixNano()
)

// newWatchTable builds the table the way cmd/spinwatch does by default:
// VEC-gated edges, packet-number guard, counters exported to a registry.
func newWatchTable(slots int) *flowtable.Table {
	return flowtable.New(flowtable.Config{
		Slots:     slots,
		DCIDLen:   transport.DefaultConnIDLen,
		UseVEC:    true,
		Telemetry: telemetry.New(),
	})
}

// tapped is one datagram of a prebuilt trace.
type tapped struct {
	src, dst uint64
	data     []byte
}

// mallocs reads the process's cumulative heap object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// checkWatchStats holds a rep's counters against what the feeders offered.
// The per-packet path must not allocate. The count is the whole process's,
// so a few dozen heap objects for starting the feeders plus one per thousand
// datagrams (the CPU profiler of a traced run, the runtime's own
// bookkeeping) pass; an allocation per packet or per batch of 256 cannot.
func checkWatchStats(res *repResult, st flowtable.Stats, offered, garbage, ingestMallocs uint64) {
	if st.Datagrams != offered {
		res.fail("table counted %d datagrams, %d were offered", st.Datagrams, offered)
	}
	if live := int64(st.NewFlows) - int64(st.EvictedIdle) - int64(st.EvictedLRU); live != int64(st.ActiveFlows) {
		res.fail("flows admitted (%d) minus evicted (%d idle, %d LRU) is %d, table holds %d", st.NewFlows, st.EvictedIdle, st.EvictedLRU, live, st.ActiveFlows)
	}
	if st.ParseErrors != garbage {
		res.fail("table counted %d parse errors, %d garbage datagrams were injected", st.ParseErrors, garbage)
	}
	if st.Samples == 0 {
		res.fail("no spin RTT sample from %d datagrams", offered)
	}
	if ingestMallocs > 64+offered/1000 {
		res.fail("ingest path allocated %d heap objects over %d datagrams, want 0 per packet", ingestMallocs, offered)
	}
}

func watchTraceMetrics(rt *repTrace, st flowtable.Stats, first int) {
	rt.set("run.samples_per_flow", float64(st.Samples)/float64(st.NewFlows))
	rt.set("run.evict_lru_per_kpkt", 1000*float64(st.EvictedLRU)/float64(st.Datagrams))
	rt.set("run.parse_error_ratio", float64(st.ParseErrors)/float64(st.Datagrams))
	var perPacket []float64
	for _, s := range rt.tr.spans[first:] {
		if s.n > 0 && s.parent == rt.root {
			perPacket = append(perPacket, float64(s.end-s.start)/float64(s.n))
		}
	}
	rt.set("run.batch_p50.ns", quantile(perPacket, 0.50))
	rt.set("run.batch_p99.ns", quantile(perPacket, 0.99))
}

// residentWorkload is the bare per-packet floor: one feeder replays a trace
// of resident flows through Table.Ingest, so every packet is a lookup hit.
type residentWorkload struct {
	flows, wraps int

	trace []tapped
	first flowtable.Stats // the first rep's counters; every rep must match
	seen  bool
}

// setup builds one pnCycle of every flow in both directions: minimum-size
// 1-RTT packets carrying a PING, the spin bit toggling every spinHalfPeriod
// packets per direction. Flow keys are redrawn until the default table
// admits them all without an eviction, so the workload never leaves the
// hit path.
func (r *residentWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ping := wire.PingFrame{}.Append(nil)
	type flow struct {
		client, server uint64
		cid            [2]wire.ConnectionID
	}
	var flows []flow
	for attempt := 0; ; attempt++ {
		if attempt == 100 {
			return fmt.Errorf("no eviction-free placement of %d flows found", r.flows)
		}
		flows = make([]flow, r.flows)
		probe := newWatchTable(0)
		for i := range flows {
			f := &flows[i]
			f.client, f.server = rng.Uint64(), rng.Uint64()
			for d := range f.cid {
				f.cid[d] = randomCID(rng)
			}
			pkt, err := wire.AppendShortHeader(nil, &wire.Header{DstConnID: f.cid[0]}, ping, wire.NoAckedPacket)
			if err != nil {
				return err
			}
			probe.Ingest(watchEpoch, f.client, f.server, pkt)
		}
		if st := probe.Stats(); st.ActiveFlows == r.flows && st.EvictedLRU == 0 {
			break
		}
	}
	r.trace = make([]tapped, 0, pnCycle*2*r.flows)
	arena := make([]byte, 0, cap(r.trace)*16)
	for k := 0; k < pnCycle; k++ {
		acked := wire.NoAckedPacket
		if k > 0 {
			acked = uint64(k - 1)
		}
		hdr := wire.Header{PacketNumber: uint64(k), SpinBit: (k/spinHalfPeriod)%2 == 1, Reserved: 3}
		for i := range flows {
			f := &flows[i]
			for d := 0; d < 2; d++ {
				hdr.DstConnID = f.cid[d]
				start := len(arena)
				var err error
				if arena, err = wire.AppendShortHeader(arena, &hdr, ping, acked); err != nil {
					return err
				}
				p := tapped{src: f.client, dst: f.server, data: arena[start:len(arena):len(arena)]}
				if d == 1 {
					p.src, p.dst = f.server, f.client
				}
				r.trace = append(r.trace, p)
			}
		}
	}
	return nil
}

func (r *residentWorkload) rep(rt *repTrace) repResult {
	offered := uint64(r.wraps) * uint64(len(r.trace))
	res := repResult{ops: int64(offered)}
	var batchName int32
	first := 0
	if rt != nil {
		batchName = rt.tr.name("flowtable.ingest_batch")
		first = len(rt.tr.spans)
	}
	m := startMeasure()
	tbl := newWatchTable(0)
	tn := watchEpoch
	before := mallocs()
	for w := 0; w < r.wraps; w++ {
		for lo := 0; lo < len(r.trace); lo += watchBatch {
			hi := min(lo+watchBatch, len(r.trace))
			var id int32
			if rt != nil {
				id = rt.tr.begin(batchName, rt.root, rt.req)
			}
			for i := lo; i < hi; i++ {
				p := &r.trace[i]
				tn += tickNanos
				tbl.Ingest(tn, p.src, p.dst, p.data)
			}
			if rt != nil {
				rt.tr.end(id, hi-lo)
			}
		}
	}
	ingestMallocs := mallocs() - before
	snap := tbl.Snapshot(topK, false)
	res.measure = m.stop()

	st := snap.Stats
	if rt != nil {
		// The spans themselves are heap objects of the harness.
		ingestMallocs = 0
	}
	checkWatchStats(&res, st, offered, 0, ingestMallocs)
	if st.NewFlows != uint64(r.flows) || st.EvictedLRU != 0 || st.EvictedIdle != 0 {
		res.fail("resident flows left the hit path: %d admitted, %d idle and %d LRU evictions, want %d, 0, 0", st.NewFlows, st.EvictedIdle, st.EvictedLRU, r.flows)
	}
	if !r.seen {
		r.first, r.seen = st, true
	} else if st != r.first {
		res.fail("table counters %+v differ from the first rep's %+v", st, r.first)
	}
	if rt != nil {
		watchTraceMetrics(rt, st, first)
	}
	return res
}

func (r *residentWorkload) finish() []string { return nil }

// churnWorkload keeps live flows at 1.5x the table's capacity: W feeders on
// disjoint flow sets push IngestBatch calls into one small table, every flow
// lasting flowDatagrams datagrams before a fresh key replaces it.
type churnWorkload struct {
	feeders, slots, live, datagrams int

	seed      int64
	templates [][][]byte // [template][datagram] bytes, shared by all feeders
	runt      []byte     // the garbage datagram: always a parse error
}

const (
	flowDatagrams  = 64
	burstDatagrams = 8 // offered to one flow before the feeder moves on
	churnTemplates = 16
	datagramSize   = 1200
	garbageEvery   = 100 // every hundredth offered datagram is garbage
)

// setup builds the flow templates: a coalesced Initial+Handshake datagram
// followed by full-size 1-RTT packets alternating between the directions.
// Feeders stamp fresh address pairs onto them, so the bytes are shared.
func (c *churnWorkload) setup(seed int64) error {
	c.seed = seed
	rng := rand.New(rand.NewSource(seed))
	c.templates = make([][][]byte, churnTemplates)
	body := make([]byte, datagramSize)
	rng.Read(body)
	for t := range c.templates {
		var cid [2]wire.ConnectionID
		for d := range cid {
			cid[d] = randomCID(rng)
		}
		flow := make([][]byte, 0, flowDatagrams)
		long := wire.Header{IsLong: true, Type: wire.TypeInitial, Version: wire.Version1, DstConnID: cid[0], SrcConnID: cid[1]}
		first, err := wire.AppendLongHeader(nil, &long, (&wire.CryptoFrame{Data: body[:300]}).Append(nil), wire.NoAckedPacket)
		if err != nil {
			return err
		}
		long.Type = wire.TypeHandshake
		hs := (&wire.CryptoFrame{Data: body[:datagramSize-len(first)-40]}).Append(nil)
		if first, err = wire.AppendLongHeader(first, &long, hs, wire.NoAckedPacket); err != nil {
			return err
		}
		flow = append(flow, first)
		var pn [2]uint64
		for j := 1; j < flowDatagrams; j++ {
			d := j % 2
			acked := wire.NoAckedPacket
			if pn[d] > 0 {
				acked = pn[d] - 1
			}
			hdr := wire.Header{DstConnID: cid[d], PacketNumber: pn[d], SpinBit: (pn[d]/spinHalfPeriod)%2 == 1, Reserved: 3}
			stream := (&wire.StreamFrame{Offset: pn[d] * datagramSize, Data: body[:datagramSize-24]}).Append(nil)
			pkt, err := wire.AppendShortHeader(make([]byte, 0, datagramSize), &hdr, stream, acked)
			if err != nil {
				return err
			}
			flow = append(flow, pkt)
			pn[d]++
		}
		c.templates[t] = flow
	}
	// A short header cut off inside its connection ID: wire.ErrTruncated.
	c.runt = []byte{wire.FixedBit, byte(rng.Intn(256)), byte(rng.Intn(256))}
	var h wire.Header
	if _, _, err := wire.ParseHeaderInto(&h, c.runt, transport.DefaultConnIDLen, wire.NoAckedPacket); err == nil {
		return fmt.Errorf("garbage datagram % x parses", c.runt)
	}
	return nil
}

// lane is one of a feeder's concurrently live flows.
type lane struct {
	client   uint64
	template int
	next     int // next datagram of the template
}

// feed offers n datagrams in batches. A feeder visits one lane at a time and
// offers a burst of its flow — a flight and the ACKs it draws — before moving
// on. Lanes are drawn with a quadratic skew (a quarter of them get half the
// visits), the way flow rates are skewed on a real link: a table that evicts
// by recency can then keep the busy flows and lose the slow ones, which is
// what its samples-per-flow ratio measures.
func (c *churnWorkload) feed(tbl *flowtable.Table, feeder, n int, tr *tracer, rt *repTrace) (garbage uint64) {
	rng := rand.New(rand.NewSource(c.seed + int64(feeder)))
	lanes := make([]lane, c.live/c.feeders)
	server := uint64(0x5e77e7) + uint64(feeder)
	nextClient := uint64(feeder+1) << 56
	for i := range lanes {
		nextClient++
		lanes[i] = lane{client: nextClient, template: i % churnTemplates, next: i % flowDatagrams}
	}
	batch := make([]flowtable.Packet, 0, watchBatch)
	var batchName int32
	if tr != nil {
		batchName = tr.byName["flowtable.ingest_batch"]
	}
	flush := func() {
		var id int32
		if tr != nil {
			id = tr.begin(batchName, rt.root, rt.req)
		}
		tbl.IngestBatch(batch)
		if tr != nil {
			tr.end(id, len(batch))
		}
		batch = batch[:0]
	}
	tn := watchEpoch
	step := int64(tickNanos * c.feeders)
	for sent := 0; sent < n; {
		u := rng.Float64()
		l := &lanes[int(u*u*float64(len(lanes)))]
		for b := 0; b < burstDatagrams && sent < n; b++ {
			tn += step
			sent++
			if sent%garbageEvery == 0 {
				batch = append(batch, flowtable.Packet{TNanos: tn, Src: l.client, Dst: server, Data: c.runt})
				garbage++
			} else {
				p := flowtable.Packet{TNanos: tn, Src: l.client, Dst: server, Data: c.templates[l.template][l.next]}
				if l.next%2 == 1 {
					p.Src, p.Dst = server, l.client
				}
				batch = append(batch, p)
				if l.next++; l.next == flowDatagrams {
					nextClient++
					l.client, l.next = nextClient, 0
				}
			}
			if len(batch) == watchBatch {
				flush()
			}
		}
	}
	if len(batch) > 0 {
		flush()
	}
	return garbage
}

func (c *churnWorkload) rep(rt *repTrace) repResult {
	per := c.datagrams / c.feeders
	offered := uint64(per) * uint64(c.feeders)
	res := repResult{ops: int64(offered)}
	first := 0
	forks := make([]*tracer, c.feeders)
	if rt != nil {
		rt.tr.name("flowtable.ingest_batch")
		first = len(rt.tr.spans)
		for i := range forks {
			forks[i] = rt.tr.fork()
		}
	}
	m := startMeasure()
	tbl := newWatchTable(c.slots)
	garbage := make([]uint64, c.feeders)
	before := mallocs()
	var wg sync.WaitGroup
	for f := 0; f < c.feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			garbage[f] = c.feed(tbl, f, per, forks[f], rt)
		}(f)
	}
	wg.Wait()
	ingestMallocs := mallocs() - before
	snap := tbl.Snapshot(topK, false)
	res.measure = m.stop()

	var injected uint64
	for _, g := range garbage {
		injected += g
	}
	if rt != nil {
		for _, f := range forks {
			rt.tr.merge(f)
		}
		ingestMallocs = 0 // the spans are heap objects of the harness
	}
	checkWatchStats(&res, snap.Stats, offered, injected, ingestMallocs)
	if snap.Stats.EvictedLRU == 0 {
		res.fail("no LRU eviction with %d live flows in %d slots", c.live, c.slots)
	}
	if rt != nil {
		watchTraceMetrics(rt, snap.Stats, first)
	}
	return res
}

func (c *churnWorkload) finish() []string { return nil }
