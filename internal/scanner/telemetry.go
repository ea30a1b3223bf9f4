package scanner

import (
	"time"

	"quicspin/internal/core"
	"quicspin/internal/dns"
	"quicspin/internal/hostile"
	"quicspin/internal/netem"
	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
	"quicspin/internal/transport"
)

// Campaign metric names (Prometheus families; see README "Observability").
// The series marked * are per-domain: each worker counts them in its
// domainTally and publishes them once per pipeline batch, so a live reader
// lags by at most one batch of streamBatchSize domains per worker, and the
// end-of-run values are exact.
//
//	spinscan_domains_total            * domains scanned
//	spinscan_domains_resolved_total   * domains with DNS success
//	spinscan_conns_attempted_total    * connection attempts (incl. redirects)
//	spinscan_conns_succeeded_total    * completed QUIC handshakes
//	spinscan_conns_closed_form_total  * attempts synthesised in closed form
//	                                    (every fast-engine attempt; the
//	                                    emulated engine's settled ones)
//	spinscan_conn_errors_total{class} * failed connections by resilience
//	                                    class (DNS failures are not counted)
//	spinscan_redirects_followed_total * redirect hops followed
//	spinscan_spin_flip_conns_total    * connections with spin flips
//	spinscan_redirect_depth           * histogram of per-domain chain depth
//	spinscan_stage_seconds{stage}     * virtual-time stage histograms
//	dns_queries_total                 * resolver lookups (incl. cache hits)
//	dns_cache_{hits,misses}_total     * lookups the per-domain memo answered
//	                                    or missed
//	dns_errors_total{class}           * failed lookups (nxdomain|timeout|
//	                                    norecord)
//	netem_packets_{sent,delivered,    * emulated datagram fates (emulated
//	  dropped,reordered,duplicated}_total engine only)
//	spinscan_workers_active             worker shards currently scanning
//	spinscan_week                       campaign week being scanned
//	spinscan_domains_population         domains queued across runs so far
//
// Resilience metric names (see README "Campaign resilience").
//
//	retries_total{stage}                transient-failure retries (dns|conn)
//	retries_exhausted_total             domains whose retry budget ran out
//	scan_panics_total                   worker panics downgraded to results
//	scan_stalls_total                   emulated loops killed by the watchdog
//	breaker_open_total                  circuit-breaker open transitions
//	breaker_groups_open                 groups currently open or half-open
//	breaker_skipped_total               domains skipped by an open breaker
//	breaker_probes_total                half-open probe scans
//	domains_resumed_total               domains replayed from a checkpoint
//	checkpoint_errors_total             checkpoint records lost to a failed
//	                                    write, open or fsync, plus failed
//	                                    journal closes (scan continues)
//	scan_checkpoint_degraded            1 while the journal has disabled
//	                                    itself after repeated storage
//	                                    failures (probes may clear it)
//	journal_segment_rotations           checkpoint segment rollovers
//	journal_appends_skipped             appends fast-failed while degraded
//	journal_bytes                       bytes written to checkpoint journals,
//	                                    summed over weeks and shards
//
// Performance metric names (see EXPERIMENTS.md "Performance & benchmarking").
//
//	scan_domains_per_sec                campaign throughput (updated per batch)
//	scan_alloc_bytes                    heap bytes allocated by the run
//	scan_allocs                         heap objects allocated by the run
//
// Hostile-endpoint metric names (see README "Hostile endpoints").
//
//	hostile_detected_total{profile}   * connections classified hostile
//	budget_exceeded_total{kind}         per-connection resource budget trips
//
// budgetKinds enumerates the budget_exceeded_total label values.
var budgetKinds = []string{
	transport.BudgetRecvBytes, transport.BudgetRecvPackets,
	transport.BudgetMalformedDatagram, transport.BudgetMalformedFrame,
}

// scanTelemetry holds the pre-resolved instruments of one campaign run.
// Built from a nil registry it is a complete no-op (every instrument nil).
// The campaign-level instruments are written where their events happen;
// the per-domain series are written only by the workers' domainTally
// publish.
type scanTelemetry struct {
	workersActive    *telemetry.Gauge
	week, population *telemetry.Gauge

	retriesDNS         *telemetry.Counter
	retriesConn        *telemetry.Counter
	retriesExhausted   *telemetry.Counter
	panics, stalls     *telemetry.Counter
	breakerOpen        *telemetry.Counter
	breakerGroups      *telemetry.Gauge
	breakerSkipped     *telemetry.Counter
	breakerProbes      *telemetry.Counter
	resumed            *telemetry.Counter
	checkpointErrors   *telemetry.Counter
	checkpointDegraded *telemetry.Gauge
	journalRotations   *telemetry.Gauge
	journalSkipped     *telemetry.Gauge
	journalBytes       *telemetry.Gauge
	budgetExceeded     map[string]*telemetry.Counter

	domainsPerSec *telemetry.Gauge
	allocBytes    *telemetry.Gauge
	allocObjects  *telemetry.Gauge

	// The per-domain series, in domainCounts' layout.
	domains, resolved               *telemetry.Counter
	connsAttempted, connsSucceeded  *telemetry.Counter
	connsClosedForm                 *telemetry.Counter
	redirectsFollowed, flipConns    *telemetry.Counter
	errs                            [resilience.ClassOther + 1]*telemetry.Counter
	hostileDetected                 [hostile.NumProfiles]*telemetry.Counter
	redirectDepth                   *telemetry.Histogram
	stHandshake, stRequest, stTotal *telemetry.Histogram
	dnsQueries, dnsHits, dnsMisses  *telemetry.Counter
	dnsNXDomain, dnsTimeouts        *telemetry.Counter
	dnsNoRecord                     *telemetry.Counter
	// The netem series; nil on the fast engine, which sends no packets.
	netSent, netDelivered, netDropped *telemetry.Counter
	netReordered, netDuplicated       *telemetry.Counter
}

func newScanTelemetry(cfg *Config) *scanTelemetry {
	reg := cfg.Telemetry
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram(telemetry.Name("spinscan_stage_seconds", "stage", name), telemetry.DurationBuckets)
	}
	t := &scanTelemetry{
		domains:            reg.Counter("spinscan_domains_total"),
		resolved:           reg.Counter("spinscan_domains_resolved_total"),
		connsAttempted:     reg.Counter("spinscan_conns_attempted_total"),
		connsSucceeded:     reg.Counter("spinscan_conns_succeeded_total"),
		connsClosedForm:    reg.Counter("spinscan_conns_closed_form_total"),
		redirectsFollowed:  reg.Counter("spinscan_redirects_followed_total"),
		flipConns:          reg.Counter("spinscan_spin_flip_conns_total"),
		redirectDepth:      reg.Histogram("spinscan_redirect_depth", telemetry.DepthBuckets),
		stHandshake:        stage("handshake"),
		stRequest:          stage("request"),
		stTotal:            stage("total"),
		dnsQueries:         reg.Counter("dns_queries_total"),
		dnsHits:            reg.Counter("dns_cache_hits_total"),
		dnsMisses:          reg.Counter("dns_cache_misses_total"),
		dnsNXDomain:        reg.Counter(telemetry.Name("dns_errors_total", "class", "nxdomain")),
		dnsTimeouts:        reg.Counter(telemetry.Name("dns_errors_total", "class", "timeout")),
		dnsNoRecord:        reg.Counter(telemetry.Name("dns_errors_total", "class", "norecord")),
		workersActive:      reg.Gauge("spinscan_workers_active"),
		week:               reg.Gauge("spinscan_week"),
		population:         reg.Gauge("spinscan_domains_population"),
		retriesDNS:         reg.Counter(telemetry.Name("retries_total", "stage", "dns")),
		retriesConn:        reg.Counter(telemetry.Name("retries_total", "stage", "conn")),
		retriesExhausted:   reg.Counter("retries_exhausted_total"),
		panics:             reg.Counter("scan_panics_total"),
		stalls:             reg.Counter("scan_stalls_total"),
		breakerOpen:        reg.Counter("breaker_open_total"),
		breakerGroups:      reg.Gauge("breaker_groups_open"),
		breakerSkipped:     reg.Counter("breaker_skipped_total"),
		breakerProbes:      reg.Counter("breaker_probes_total"),
		resumed:            reg.Counter("domains_resumed_total"),
		checkpointErrors:   reg.Counter("checkpoint_errors_total"),
		checkpointDegraded: reg.Gauge("scan_checkpoint_degraded"),
		journalRotations:   reg.Gauge("journal_segment_rotations"),
		journalSkipped:     reg.Gauge("journal_appends_skipped"),
		journalBytes:       reg.Gauge("journal_bytes"),
		budgetExceeded:     map[string]*telemetry.Counter{},
		domainsPerSec:      reg.Gauge("scan_domains_per_sec"),
		allocBytes:         reg.Gauge("scan_alloc_bytes"),
		allocObjects:       reg.Gauge("scan_allocs"),
	}
	if cfg.Engine == EngineEmulated {
		t.netSent = reg.Counter("netem_packets_sent_total")
		t.netDelivered = reg.Counter("netem_packets_delivered_total")
		t.netDropped = reg.Counter("netem_packets_dropped_total")
		t.netReordered = reg.Counter("netem_packets_reordered_total")
		t.netDuplicated = reg.Counter("netem_packets_duplicated_total")
	}
	for cls := resilience.ClassNone + 1; cls <= resilience.ClassOther; cls++ {
		t.errs[cls] = reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", cls.String()))
	}
	for _, p := range hostile.Profiles() {
		t.hostileDetected[p] = reg.Counter(telemetry.Name("hostile_detected_total", "profile", p.String()))
	}
	for _, kind := range budgetKinds {
		t.budgetExceeded[kind] = reg.Counter(telemetry.Name("budget_exceeded_total", "kind", kind))
	}
	return t
}

// bumpBudget tallies one tripped per-connection resource budget.
func (t *scanTelemetry) bumpBudget(kind string) {
	if c, ok := t.budgetExceeded[kind]; ok {
		c.Inc()
	}
}

// domainCounts are a worker's unpublished per-domain counts.
type domainCounts struct {
	domains, resolved              int64
	connsAttempted, connsSucceeded int64
	connsClosedForm                int64
	redirectsFollowed, flipConns   int64
	errs                           [resilience.ClassOther + 1]int64
	hostileDetected                [hostile.NumProfiles]int64
}

// domainTally is one worker's per-domain telemetry: plain counts and
// histogram tallies that only the worker's goroutine writes, and the
// resolver and network of its current engine, whose Stats count DNS
// lookups and packets. campaign.worker builds one and keeps it across
// engine rebuilds; publish adds what it holds to the campaign's series.
type domainTally struct {
	tm                              *scanTelemetry
	n                               domainCounts
	redirectDepth                   telemetry.Tally
	stHandshake, stRequest, stTotal telemetry.Tally

	// resolver and net belong to the worker's current engine (net is nil
	// on the fast engine); dnsSeen and netSeen are their Stats as of the
	// last publish.
	resolver *dns.Resolver
	net      *netem.Network
	dnsSeen  dns.Stats
	netSeen  netem.Stats
}

func newDomainTally(tm *scanTelemetry) *domainTally {
	return &domainTally{
		tm:            tm,
		redirectDepth: tm.redirectDepth.Tally(),
		stHandshake:   tm.stHandshake.Tally(),
		stRequest:     tm.stRequest.Tally(),
		stTotal:       tm.stTotal.Tally(),
	}
}

// watch makes res and net, a freshly built engine's, the sources of the
// DNS and packet counts. Publish before the engine they replace is
// dropped, or its unpublished counts are lost.
func (t *domainTally) watch(res *dns.Resolver, net *netem.Network) {
	t.resolver, t.net = res, net
	t.dnsSeen, t.netSeen = dns.Stats{}, netem.Stats{}
}

// publish adds the worker's unpublished counts to the campaign's series
// and starts counting afresh. The worker calls it before a batch leaves
// for the sink, so every count of a delivered domain is visible by the
// time the sink sees the domain, and before it rebuilds its engine.
func (t *domainTally) publish() {
	tm, n := t.tm, &t.n
	add(tm.domains, n.domains)
	add(tm.resolved, n.resolved)
	add(tm.connsAttempted, n.connsAttempted)
	add(tm.connsSucceeded, n.connsSucceeded)
	add(tm.connsClosedForm, n.connsClosedForm)
	add(tm.redirectsFollowed, n.redirectsFollowed)
	add(tm.flipConns, n.flipConns)
	for cls, v := range n.errs {
		add(tm.errs[cls], v)
	}
	for p, v := range n.hostileDetected {
		add(tm.hostileDetected[p], v)
	}
	*n = domainCounts{}
	t.redirectDepth.Flush()
	t.stHandshake.Flush()
	t.stRequest.Flush()
	t.stTotal.Flush()

	if t.resolver != nil {
		st := t.resolver.Stats()
		d := st.Delta(t.dnsSeen)
		t.dnsSeen = st
		add(tm.dnsQueries, int64(d.Queries))
		add(tm.dnsHits, int64(d.CacheHits))
		add(tm.dnsMisses, int64(d.CacheMisses))
		add(tm.dnsNXDomain, int64(d.NXDomain))
		add(tm.dnsTimeouts, int64(d.Timeouts))
		add(tm.dnsNoRecord, int64(d.NoRecord))
	}
	if t.net != nil {
		st := t.net.Stats()
		d := st.Delta(t.netSeen)
		t.netSeen = st
		add(tm.netSent, int64(d.Sent))
		add(tm.netDelivered, int64(d.Delivered))
		add(tm.netDropped, int64(d.Dropped))
		add(tm.netReordered, int64(d.Reordered))
		add(tm.netDuplicated, int64(d.Duplicated))
	}
}

// add publishes a non-zero count: a zero would be an atomic add for
// nothing.
func add(c *telemetry.Counter, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// connTimeline records the outcome of one connection attempt from its three
// virtual instants, on both timelines at once: the spinscan_stage_seconds
// tallies and the flight recorder, whose connect span has been open since
// start. A zero hsAt means the handshake never completed — the attempt is
// that one connect span and a total. Otherwise connect ends at hsAt and the
// handshake and h3 spans follow retroactively (spans are a flat sequence, not
// a stack). A non-nil out appends the observe span with the spin-series
// counts of out and obs; attributes the caller sets next land on it.
func (t *domainTally) connTimeline(rec *trace.Recorder, start, hsAt, end time.Time, out *ConnResult, obs []core.Observation) {
	t.stTotal.ObserveDuration(span(start, end))
	if !hsAt.IsZero() {
		t.stHandshake.ObserveDuration(span(start, hsAt))
		t.stRequest.ObserveDuration(span(hsAt, end))
	}
	if rec == nil {
		return
	}
	if !hsAt.IsZero() {
		rec.StageEnd(hsAt)
		rec.StageStart("handshake", start)
		rec.StageEnd(hsAt)
		rec.StageStart("h3", hsAt)
	}
	rec.StageEnd(end)
	if out == nil {
		return
	}
	rec.StageStart("observe", end)
	rec.SpanAttrInt("pkts_zero", int64(out.ZeroPkts))
	rec.SpanAttrInt("pkts_one", int64(out.OnePkts))
	rec.SpanAttrInt("spin_edges", int64(spinEdges(obs)))
	rec.SpanAttrInt("rtt_samples", int64(len(out.StackRTTs)))
	rec.StageEnd(end)
}

// span is the stage duration from start to end, never negative.
func span(start, end time.Time) time.Duration {
	return max(end.Sub(start), 0)
}

// recordDomain tallies one finished domain scan (and its connections).
func (t *domainTally) recordDomain(d *DomainResult) {
	n := &t.n
	n.domains++
	// A DNS failure is no connection: it counts in domains − resolved, and
	// in the resolver's dns_errors_total, not among the connection errors.
	if d.Resolved {
		n.resolved++
	}
	if len(d.Conns) > 0 {
		t.redirectDepth.Observe(float64(len(d.Conns) - 1))
	}
	for i := range d.Conns {
		c := &d.Conns[i]
		n.connsAttempted++
		if c.QUIC {
			n.connsSucceeded++
		}
		if c.HasFlips() {
			n.flipConns++
		}
		if c.Hop > 0 {
			n.redirectsFollowed++
		}
		if c.ErrClass == resilience.ClassNone {
			continue
		}
		n.errs[c.ErrClass]++
		if c.ErrClass == resilience.ClassHostile {
			n.hostileDetected[c.Hostile]++
		}
	}
}
