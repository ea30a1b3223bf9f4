package flowtable_test

// TestFlowtableMatchesObserver pins the flowtable's RTT semantics to the
// reference core.Observer: on identical tapped traffic — clean, the full
// 19-schedule chaos sweep, and a hostile spin-liar — the table's per-flow
// samples and spin-edge counts must agree exactly with a full observer fed
// the same packets, and the comparison must be byte-stable across runs.
// Under forced eviction pressure the divergence must stay bounded by the
// eviction counters.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/conformance"
	"quicspin/internal/core"
	"quicspin/internal/flowtable"
	"quicspin/internal/h3"
	"quicspin/internal/hostile"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

// refTap is the reference vantage: the same per-direction packet-number
// expansion the conformance harness uses, feeding one full core.Observer.
type refTap struct {
	obs       *core.Observer
	largest   [2]uint64
	havePN    [2]bool
	parseErrs int
}

func (r *refTap) tap(now time.Time, from, to string, data []byte) {
	dir := core.ClientToServer
	if from == "server" {
		dir = core.ServerToClient
	}
	for len(data) > 0 {
		largest := wire.NoAckedPacket
		if r.havePN[dir] {
			largest = r.largest[dir]
		}
		hdr, _, consumed, err := wire.ParseHeader(data, transport.DefaultConnIDLen, largest)
		if err != nil {
			r.parseErrs++
			return
		}
		if !hdr.IsLong {
			if !r.havePN[dir] || hdr.PacketNumber > r.largest[dir] {
				r.largest[dir] = hdr.PacketNumber
				r.havePN[dir] = true
			}
			r.obs.Observe(dir, core.Observation{T: now, PN: hdr.PacketNumber, Spin: hdr.SpinBit, VEC: hdr.Reserved})
		}
		data = data[consumed:]
	}
}

// runTappedExchange drives one client/server exchange through the netem
// schedule with both the reference observer and the flowtable attached to
// the same tap, and returns both plus the table.
func runTappedExchange(t *testing.T, path netem.PathConfig, seed int64, liar bool) (*refTap, *flowtable.Table) {
	t.Helper()
	start := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)
	loop := sim.NewLoop(start)
	rng := rand.New(rand.NewSource(seed))
	net := netem.New(loop, path, rng)

	ref := &refTap{obs: core.NewObserver(core.ObserverConfig{UsePacketNumberGuard: true, UseVEC: true})}
	tbl := flowtable.New(flowtable.Config{
		Slots:       256,
		IdleTimeout: time.Minute, // no idle evictions mid-exchange
		DCIDLen:     transport.DefaultConnIDLen,
		UseVEC:      true,
	})
	ftap := tbl.Tap()
	net.SetTap(func(now time.Time, from, to string, data []byte) {
		ref.tap(now, from, to, data)
		ftap(now, from, to, data)
	})
	if liar {
		net.SetMangler("server", hostile.NewMangler(hostile.SpinLiar))
	}

	body := make([]byte, 64*1024)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	srv := h3.NewServer(func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{Status: 200, Headers: map[string]string{"server": "flowtable/1.0"}, Body: body}
	})
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng, SpinPolicy: core.Policy{Mode: core.ModeSpin}, EnableVEC: true}
	})
	server := netem.NewServerHost(net, "server", ep)
	server.OnActivity = srv.ServeEndpoint

	conn := transport.NewClientConn(transport.Config{Rng: rng, EnableVEC: true}, start)
	client := netem.NewClientHost(net, "client", "server", conn)
	hc := h3.NewClientConn(conn)
	reqID, err := hc.Do(&h3.Request{Method: "GET", Authority: "flow.test", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatalf("queueing request: %v", err)
	}
	completed := false
	client.OnActivity = func(c *transport.Conn, now time.Time) {
		if completed {
			return
		}
		if _, complete, _ := hc.Response(reqID); complete {
			completed = true
		}
	}
	client.Kick()

	deadline := start.Add(30 * time.Second)
	for !completed && loop.Now().Before(deadline) {
		if !loop.Step() {
			break
		}
	}
	conn.Close(loop.Now(), 0, "flowtable conformance done")
	client.Kick()
	for loop.Step() {
	}
	return ref, tbl
}

// describeFlow renders the comparable state of the exchange's single flow
// for byte-stability checks.
func describeFlow(ref *refTap, tbl *flowtable.Table) string {
	fs, ok := tbl.Lookup(flowtable.HashAddr("client"), flowtable.HashAddr("server"))
	st := tbl.Stats()
	var refSum, refMin, refMax, refLast time.Duration
	samples := ref.obs.Samples()
	for i, s := range samples {
		if i == 0 || s.RTT < refMin {
			refMin = s.RTT
		}
		if i == 0 || s.RTT > refMax {
			refMax = s.RTT
		}
		refSum += s.RTT
		refLast = s.RTT
	}
	return fmt.Sprintf(
		"found=%v flowSamples=%d refSamples=%d flowEdges=%d/%d refEdges=%d/%d sum=%v/%v min=%v/%v max=%v/%v last=%v/%v flows=%d evicted=%d parseErrs=%d/%d",
		ok, fs.Samples, len(samples),
		fs.Edges[0], fs.Edges[1], ref.obs.Edges(core.ClientToServer), ref.obs.Edges(core.ServerToClient),
		time.Duration(int64(fs.MeanRTT)*int64(fs.Samples)), refSum,
		fs.MinRTT, refMin, fs.MaxRTT, refMax, fs.LastRTT, refLast,
		st.NewFlows, st.EvictedIdle+st.EvictedLRU, st.ParseErrors, ref.parseErrs)
}

func checkAgreement(t *testing.T, name string, ref *refTap, tbl *flowtable.Table) {
	t.Helper()
	fs, ok := tbl.Lookup(flowtable.HashAddr("client"), flowtable.HashAddr("server"))
	if !ok {
		t.Fatalf("%s: flowtable lost the flow", name)
	}
	st := tbl.Stats()
	if st.EvictedIdle+st.EvictedLRU != 0 || st.NewFlows != 1 || st.ActiveFlows != 1 {
		t.Fatalf("%s: unexpected churn: %+v", name, st)
	}
	samples := ref.obs.Samples()
	if fs.Samples != uint64(len(samples)) {
		t.Fatalf("%s: flowtable produced %d samples, observer %d", name, fs.Samples, len(samples))
	}
	for dir := core.ClientToServer; dir <= core.ServerToClient; dir++ {
		if fs.Edges[dir] != ref.obs.Edges(dir) {
			t.Fatalf("%s: dir %d edge count %d != observer %d", name, dir, fs.Edges[dir], ref.obs.Edges(dir))
		}
	}
	if st.ParseErrors != uint64(ref.parseErrs) {
		t.Fatalf("%s: parse errors %d != reference %d", name, st.ParseErrors, ref.parseErrs)
	}
	var sum time.Duration
	var min, max, last time.Duration
	for i, s := range samples {
		if i == 0 || s.RTT < min {
			min = s.RTT
		}
		if i == 0 || s.RTT > max {
			max = s.RTT
		}
		sum += s.RTT
		last = s.RTT
	}
	if len(samples) > 0 {
		wantMean := time.Duration(int64(sum) / int64(len(samples)))
		if fs.MeanRTT != wantMean || fs.MinRTT != min || fs.MaxRTT != max || fs.LastRTT != last {
			t.Fatalf("%s: aggregate mismatch: mean %v/%v min %v/%v max %v/%v last %v/%v",
				name, fs.MeanRTT, wantMean, fs.MinRTT, min, fs.MaxRTT, max, fs.LastRTT, last)
		}
	}
}

func TestFlowtableMatchesObserver(t *testing.T) {
	type caseSpec struct {
		name string
		path netem.PathConfig
		seed int64
		liar bool
	}
	var cases []caseSpec
	// Clean + full chaos sweep from the conformance package (19 schedules).
	for _, c := range conformance.DefaultChaosCases() {
		cases = append(cases, caseSpec{name: c.Name, path: c.Path, seed: c.Seed})
	}
	// Hostile spin-liar on a clean and on a lossy reordering path: both
	// vantages see the same lies, so they must still agree exactly.
	cases = append(cases,
		caseSpec{name: "spin-liar", path: netem.PathConfig{Delay: 10 * time.Millisecond}, seed: 101, liar: true},
		caseSpec{name: "spin-liar-chaos", path: netem.PathConfig{
			Delay: 10 * time.Millisecond, Jitter: 2 * time.Millisecond,
			LossRate: 0.05, ReorderRate: 0.1, ReorderExtra: 3 * time.Millisecond,
		}, seed: 102, liar: true},
	)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref, tbl := runTappedExchange(t, c.path, c.seed, c.liar)
			// Under heavy reordering the VEC-strict observer may legitimately
			// never pair two valid edges; only clean paths must sample.
			clean := c.path.ReorderRate == 0 && c.path.LossRate == 0 && c.path.DuplicateRate == 0
			if len(ref.obs.Samples()) == 0 && clean && !c.liar {
				t.Fatalf("reference observer produced no samples; harness broken")
			}
			checkAgreement(t, c.name, ref, tbl)
			// Byte-stability: an identical replay must describe identically.
			ref2, tbl2 := runTappedExchange(t, c.path, c.seed, c.liar)
			if d1, d2 := describeFlow(ref, tbl), describeFlow(ref2, tbl2); d1 != d2 {
				t.Fatalf("replay not byte-stable:\n  run1: %s\n  run2: %s", d1, d2)
			}
		})
	}
}

// TestFlowtableEvictionBoundedDivergence forces LRU eviction pressure with
// more interleaved flows than the table can hold and checks that every
// sample the table misses relative to per-flow reference observers is
// accounted for by the eviction counters: each restart of a flow loses at
// most two samples (one flip to re-learn the value, one to re-anchor the
// first edge).
func TestFlowtableEvictionBoundedDivergence(t *testing.T) {
	// Traffic mix: a few hot long-lived flows sending every round, plus a
	// stream of short scan flows (3 packets each) that overflow the tiny
	// table and force LRU evictions — occasionally of a hot flow whose
	// probe window fills up.
	const (
		nHot   = 4
		nScans = 200
	)
	nFlows := nHot + nScans
	tbl := flowtable.New(flowtable.Config{
		Slots:       8,
		MaxProbe:    2,
		IdleTimeout: time.Hour,
		DCIDLen:     8,
	})
	refs := make([]*core.Observer, nFlows)
	for i := range refs {
		refs[i] = core.NewObserver(core.ObserverConfig{UsePacketNumberGuard: true})
	}
	rng := rand.New(rand.NewSource(77))
	cids := make([]wire.ConnectionID, nFlows)
	for i := range cids {
		b := make([]byte, 8)
		rng.Read(b)
		cids[i] = wire.NewConnectionID(b)
	}
	payload := wire.PingFrame{}.Append(nil)

	base := time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC).UnixNano()
	tn := base
	pn := make([]uint64, nFlows)
	send := func(f int) {
		spin := (pn[f] % 2) == 1
		hdr := &wire.Header{DstConnID: cids[f], SpinBit: spin, PacketNumber: pn[f]}
		pkt, err := wire.AppendShortHeader(nil, hdr, payload, wire.NoAckedPacket)
		if err != nil {
			t.Fatalf("building packet: %v", err)
		}
		tn += int64(time.Millisecond)
		tbl.Ingest(tn, uint64(1000+f), uint64(500000+f), pkt)
		refs[f].Observe(core.ClientToServer, core.Observation{
			T: time.Unix(0, tn), PN: pn[f], Spin: spin,
		})
		pn[f]++
	}
	for scan := 0; scan < nScans; scan++ {
		for f := 0; f < nHot; f++ {
			send(f)
		}
		for i := 0; i < 3; i++ {
			send(nHot + scan)
		}
	}

	st := tbl.Stats()
	if st.EvictedLRU == 0 {
		t.Fatalf("no LRU evictions: table too large for the test to bite (%+v)", st)
	}
	var refTotal uint64
	for _, r := range refs {
		refTotal += uint64(len(r.Samples()))
	}
	if st.Samples > refTotal {
		t.Fatalf("flowtable produced more samples (%d) than reference (%d)", st.Samples, refTotal)
	}
	restarts := st.EvictedLRU + st.EvictedIdle
	if lost := refTotal - st.Samples; lost > 2*restarts {
		t.Fatalf("lost %d samples but only %d restarts account for at most %d", lost, restarts, 2*restarts)
	}
	if st.Samples == 0 {
		t.Fatalf("flowtable produced no samples under pressure")
	}
}
