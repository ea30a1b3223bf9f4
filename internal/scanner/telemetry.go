package scanner

import (
	"time"

	"quicspin/internal/core"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
	"quicspin/internal/transport"
)

// Campaign metric names (Prometheus families; see README "Observability").
//
//	spinscan_domains_total              domains scanned
//	spinscan_domains_resolved_total     domains with DNS success
//	spinscan_conns_attempted_total      connection attempts (incl. redirects)
//	spinscan_conns_succeeded_total      completed QUIC handshakes
//	spinscan_conns_closed_form_total    attempts synthesised in closed form
//	                                    (every fast-engine attempt; the
//	                                    emulated engine's settled ones)
//	spinscan_conn_errors_total{class}   failed connections by resilience
//	                                    class (DNS failures are not counted)
//	spinscan_redirects_followed_total   redirect hops followed
//	spinscan_spin_flip_conns_total      connections with spin flips
//	spinscan_redirect_depth             histogram of per-domain chain depth
//	spinscan_stage_seconds{stage}       virtual-time stage histograms
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
//	hostile_detected_total{profile}     connections classified hostile
//	budget_exceeded_total{kind}         per-connection resource budget trips
//
// budgetKinds enumerates the budget_exceeded_total label values.
var budgetKinds = []string{
	transport.BudgetRecvBytes, transport.BudgetRecvPackets,
	transport.BudgetMalformedDatagram, transport.BudgetMalformedFrame,
}

// scanTelemetry holds the pre-resolved instruments of one campaign run.
// Built from a nil registry it is a complete no-op (every instrument nil),
// which keeps the fast engine's hot path within the <2% overhead budget
// when telemetry is disabled.
type scanTelemetry struct {
	domains, resolved               *telemetry.Counter
	connsAttempted, connsSucceeded  *telemetry.Counter
	connsClosedForm                 *telemetry.Counter
	redirectsFollowed, flipConns    *telemetry.Counter
	errs                            [resilience.ClassOther + 1]*telemetry.Counter
	redirectDepth                   *telemetry.Histogram
	stHandshake, stRequest, stTotal *telemetry.Stage
	workersActive                   *telemetry.Gauge
	week, population                *telemetry.Gauge

	retries            map[string]*telemetry.Counter
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

	hostileDetected map[string]*telemetry.Counter
	budgetExceeded  map[string]*telemetry.Counter

	domainsPerSec *telemetry.Gauge
	allocBytes    *telemetry.Gauge
	allocObjects  *telemetry.Gauge
}

func newScanTelemetry(reg *telemetry.Registry) *scanTelemetry {
	t := &scanTelemetry{
		domains:           reg.Counter("spinscan_domains_total"),
		resolved:          reg.Counter("spinscan_domains_resolved_total"),
		connsAttempted:    reg.Counter("spinscan_conns_attempted_total"),
		connsSucceeded:    reg.Counter("spinscan_conns_succeeded_total"),
		connsClosedForm:   reg.Counter("spinscan_conns_closed_form_total"),
		redirectsFollowed: reg.Counter("spinscan_redirects_followed_total"),
		flipConns:         reg.Counter("spinscan_spin_flip_conns_total"),
		redirectDepth:     reg.Histogram("spinscan_redirect_depth", telemetry.DepthBuckets),
		stHandshake:       reg.Stage("spinscan_stage_seconds", "handshake", telemetry.DurationBuckets),
		stRequest:         reg.Stage("spinscan_stage_seconds", "request", telemetry.DurationBuckets),
		stTotal:           reg.Stage("spinscan_stage_seconds", "total", telemetry.DurationBuckets),
		workersActive:     reg.Gauge("spinscan_workers_active"),
		week:              reg.Gauge("spinscan_week"),
		population:        reg.Gauge("spinscan_domains_population"),
		retries: map[string]*telemetry.Counter{
			retryStageDNS:  reg.Counter(telemetry.Name("retries_total", "stage", retryStageDNS)),
			retryStageConn: reg.Counter(telemetry.Name("retries_total", "stage", retryStageConn)),
		},
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
		hostileDetected:    map[string]*telemetry.Counter{},
		budgetExceeded:     map[string]*telemetry.Counter{},
		domainsPerSec:      reg.Gauge("scan_domains_per_sec"),
		allocBytes:         reg.Gauge("scan_alloc_bytes"),
		allocObjects:       reg.Gauge("scan_allocs"),
	}
	for cls := resilience.ClassNone + 1; cls <= resilience.ClassOther; cls++ {
		t.errs[cls] = reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", cls.String()))
	}
	for _, p := range hostile.Profiles() {
		t.hostileDetected[p.String()] = reg.Counter(telemetry.Name("hostile_detected_total", "profile", p.String()))
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

// connTimeline records the outcome of one connection attempt from its three
// virtual instants, on both timelines at once: the spinscan_stage_seconds
// histograms and the flight recorder, whose connect span has been open since
// start. A zero hsAt means the handshake never completed — the attempt is
// that one connect span and a total. Otherwise connect ends at hsAt and the
// handshake and h3 spans follow retroactively (spans are a flat sequence, not
// a stack). A non-nil out appends the observe span with the spin-series
// counts of out and obs; attributes the caller sets next land on it.
func (t *scanTelemetry) connTimeline(rec *trace.Recorder, start, hsAt, end time.Time, out *ConnResult, obs []core.Observation) {
	t.stTotal.Start(start).End(end)
	if !hsAt.IsZero() {
		t.stHandshake.Start(start).End(hsAt)
		t.stRequest.Start(hsAt).End(end)
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

// recordDomain tallies one finished domain scan (and its connections).
func (t *scanTelemetry) recordDomain(d *DomainResult) {
	t.domains.Inc()
	// A DNS failure is no connection: it counts in domains − resolved, and
	// in the resolver's dns_errors_total, not among the connection errors.
	if d.Resolved {
		t.resolved.Inc()
	}
	if len(d.Conns) > 0 {
		t.redirectDepth.Observe(float64(len(d.Conns) - 1))
	}
	for i := range d.Conns {
		c := &d.Conns[i]
		t.connsAttempted.Inc()
		if c.QUIC {
			t.connsSucceeded.Inc()
		}
		if c.HasFlips() {
			t.flipConns.Inc()
		}
		if c.Hop > 0 {
			t.redirectsFollowed.Inc()
		}
		if c.Err == "" {
			continue
		}
		cls := resilience.Classify(c.Err)
		t.errs[cls].Inc()
		if cls == resilience.ClassHostile {
			if hc, ok := t.hostileDetected[hostile.ProfileOf(c.Err).String()]; ok {
				hc.Inc()
			}
		}
	}
}
