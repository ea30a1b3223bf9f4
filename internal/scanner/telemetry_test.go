package scanner

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"quicspin/internal/dns"
	"quicspin/internal/fault"
	"quicspin/internal/netem"
	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
)

func TestConfigValidate(t *testing.T) {
	valid := Config{Week: 1, Engine: EngineFast, Seed: 1}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"negative week", func(c *Config) { c.Week = -1 }, "Week"},
		{"unknown engine", func(c *Config) { c.Engine = Engine(7) }, "Engine"},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	w := testWorld(500_000)
	if _, err := Run(w, Config{Week: 1, Engine: EngineFast, Workers: -3}); err == nil {
		t.Fatal("Run accepted Workers: -3")
	}
}

// counterChecks lists the counters a scan must populate and their expected
// relation to the tallied result.
func checkScanCounters(t *testing.T, name string, reg *telemetry.Registry, ty tally) {
	t.Helper()
	snap := reg.Snapshot()
	expect := map[string]int64{
		"spinscan_domains_total":            int64(ty.domains),
		"spinscan_domains_resolved_total":   int64(ty.resolved),
		"spinscan_conns_attempted_total":    int64(ty.conns),
		"spinscan_spin_flip_conns_total":    int64(ty.flipConns),
		"spinscan_redirects_followed_total": int64(ty.redirectsFollowed),
	}
	for metric, want := range expect {
		if got := snap.Counters[metric]; got != want {
			t.Errorf("%s: %s = %d, want %d", name, metric, got, want)
		}
	}
	if got := snap.Histograms[`spinscan_stage_seconds{stage="total"}`].Count; got == 0 {
		t.Errorf("%s: no total-stage spans recorded", name)
	}
}

// TestEngineTelemetryConsistent asserts that both engines produce
// consistent counter totals (conns attempted/succeeded) for the same small
// world and seed — the telemetry view of TestEnginesAgree.
func TestEngineTelemetryConsistent(t *testing.T) {
	w := testWorld(40_000)
	regs := map[Engine]*telemetry.Registry{
		EngineEmulated: telemetry.New(),
		EngineFast:     telemetry.New(),
	}
	tallies := map[Engine]tally{}
	copies := map[Engine]int64{}
	for eng, reg := range regs {
		cfg := Config{Week: 1, Engine: eng, Seed: 11, Workers: 4, Telemetry: reg}
		r := mustRun(t, w, cfg)
		tallies[eng] = tallyResult(r)
		for i := range r.Domains {
			if r.Domains[i].Conns != nil {
				copies[eng]++
			}
		}
	}
	checkScanCounters(t, "emulated", regs[EngineEmulated], tallies[EngineEmulated])
	checkScanCounters(t, "fast", regs[EngineFast], tallies[EngineFast])

	// Cross-engine: the fast engine must agree with the emulated one on
	// the campaign's headline counters. Resolution shares ground truth, so
	// it matches exactly; attempts agree within 2%; handshake success is
	// compared as a per-attempt rate (like TestEnginesAgree), since
	// redirect-chain modelling differs slightly per connection.
	em := regs[EngineEmulated].Snapshot()
	fa := regs[EngineFast].Snapshot()
	if em.Counters["spinscan_domains_resolved_total"] != fa.Counters["spinscan_domains_resolved_total"] {
		t.Errorf("resolved: emulated %d vs fast %d, want identical",
			em.Counters["spinscan_domains_resolved_total"], fa.Counters["spinscan_domains_resolved_total"])
	}
	emAtt := float64(em.Counters["spinscan_conns_attempted_total"])
	faAtt := float64(fa.Counters["spinscan_conns_attempted_total"])
	if emAtt == 0 || faAtt == 0 {
		t.Fatalf("vacuous attempts: emulated %v, fast %v", emAtt, faAtt)
	}
	if diff := math.Abs(emAtt-faAtt) / math.Max(emAtt, faAtt); diff > 0.02 {
		t.Errorf("attempted: emulated %v vs fast %v (%.1f%% apart, tol 2%%)", emAtt, faAtt, diff*100)
	}
	emRate := float64(em.Counters["spinscan_conns_succeeded_total"]) / emAtt
	faRate := float64(fa.Counters["spinscan_conns_succeeded_total"]) / faAtt
	if diff := math.Abs(emRate - faRate); diff > 0.02 {
		t.Errorf("success rate: emulated %.4f vs fast %.4f (|Δ| %.4f, tol 0.02)", emRate, faRate, diff)
	}

	// Both engines resolve through a caching resolver; redirect hops
	// revisiting hosts must produce cache traffic.
	for eng, reg := range regs {
		snap := reg.Snapshot()
		if snap.Counters["dns_queries_total"] == 0 {
			t.Errorf("engine %d: no dns_queries_total", eng)
		}
		if snap.Counters["dns_cache_misses_total"] == 0 {
			t.Errorf("engine %d: no dns cache misses recorded", eng)
		}
		// The run's allocation gauges: Run copies the connection list of
		// every domain that kept one (a failed lookup costs nothing), and no
		// object is smaller than a byte.
		bytes, objs := snap.Gauges["scan_alloc_bytes"], snap.Gauges["scan_allocs"]
		if objs < copies[eng] || bytes < objs {
			t.Errorf("engine %d: scan_alloc_bytes = %d, scan_allocs = %d over %d copied connection lists", eng, bytes, objs, copies[eng])
		}
	}
}

// TestEmulatedTelemetryNetem checks the emulated engine also feeds the
// packet-level netem counters.
func TestEmulatedTelemetryNetem(t *testing.T) {
	w := testWorld(300_000)
	reg := telemetry.New()
	mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 3, Workers: 2, Telemetry: reg})
	snap := reg.Snapshot()
	if snap.Counters["netem_packets_sent_total"] == 0 {
		t.Error("no netem_packets_sent_total")
	}
	if snap.Counters["netem_packets_delivered_total"] == 0 {
		t.Error("no netem_packets_delivered_total")
	}
	// Blackholed (non-QUIC) targets guarantee drops.
	if snap.Counters["netem_packets_dropped_total"] == 0 {
		t.Error("no netem_packets_dropped_total")
	}
	if snap.Counters[`spinscan_conn_errors_total{class="handshake-timeout"}`] == 0 {
		t.Error("no handshake-timeout-class connection errors recorded")
	}
}

// TestTelemetryDoesNotChangeResults guards determinism: instrumenting a
// scan must not perturb its outcome (same seed → same result).
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	w := testWorld(200_000)
	plain := mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 5, Workers: 3})
	instr := mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 5, Workers: 3, Telemetry: telemetry.New()})
	if len(plain.Domains) != len(instr.Domains) {
		t.Fatal("result sizes differ")
	}
	for i := range plain.Domains {
		a, b := &plain.Domains[i], &instr.Domains[i]
		if a.Resolved != b.Resolved || a.QUIC() != b.QUIC() || a.SpinActivity() != b.SpinActivity() || len(a.Conns) != len(b.Conns) {
			t.Fatalf("domain %s differs with telemetry enabled", a.Domain)
		}
	}
}

// testTally is a worker's tally on the campaign telemetry of cfg.
func testTally(cfg *Config) *domainTally {
	return newDomainTally(newScanTelemetry(cfg))
}

// engineSources are the resolver and network (nil on the fast engine)
// whose Stats count eng's lookups and packets.
func engineSources(eng engine) (*dns.Resolver, *netem.Network) {
	switch e := eng.(type) {
	case *fastEngine:
		return e.resolver, nil
	case *emulatedEngine:
		return e.resolver, e.net
	}
	panic("unknown engine")
}

// TestRegistryCountsMatchEngineStats: the dns_* and netem_packets_* series
// are the sums of the workers' resolver and network Stats, which the
// workers publish as deltas. The reference scans the week on one engine
// outside the pipeline, rebuilding it after each panic as a worker does
// and summing the Stats of every engine it drops; a week of the pipeline
// must count the same at every worker count, on both engines. The plan
// panics domains after their lookups and connections, so a worker that
// rebuilt its engine without publishing first would lose them.
//
// spinscan_conns_closed_form_total counts the kept connections whose final
// attempt was settled in closed form: on the fast engine every connection
// but a panicked domain's one synthetic connection, retries or not; on the
// emulated engine some, and never more than were attempted.
func TestRegistryCountsMatchEngineStats(t *testing.T) {
	w := testWorld(40_000)
	for _, engine := range []Engine{EngineFast, EngineEmulated} {
		plan, err := fault.Parse("seed:2,dns.timeout:0.2/1,net.blackout:0.05/1,scan.panic:0.004")
		if err != nil {
			t.Fatal(err)
		}
		base := Config{Week: 4, Engine: engine, Seed: 6, Faults: plan, Retry: resilience.RetryPolicy{MaxRetries: 2}}

		var dnsSum dns.Stats
		var netSum netem.Stats
		eng := buildEngine(w, &base, testTally(&base), nil)
		retire := func() {
			res, net := engineSources(eng)
			st := res.Stats()
			dnsSum.Queries += st.Queries
			dnsSum.CacheHits += st.CacheHits
			dnsSum.CacheMisses += st.CacheMisses
			dnsSum.NXDomain += st.NXDomain
			dnsSum.Timeouts += st.Timeouts
			dnsSum.NoRecord += st.NoRecord
			if net != nil {
				ns := net.Stats()
				netSum.Sent += ns.Sent
				netSum.Delivered += ns.Delivered
				netSum.Dropped += ns.Dropped
				netSum.Reordered += ns.Reordered
				netSum.Duplicated += ns.Duplicated
			}
		}
		var s slabs
		var res DomainResult
		panics := 0
		for i := 0; i < w.NumDomains(); i++ {
			s.reset()
			panicked := scanSafely(eng, w.DomainAt(i), &s, &res)
			if panicked {
				panics++
			}
			if panicked || !eng.healthy() {
				retire()
				eng = buildEngine(w, &base, testTally(&base), nil)
			}
		}
		retire()
		if panics == 0 || dnsSum.Timeouts == 0 || dnsSum.CacheHits == 0 || (engine == EngineEmulated && netSum.Dropped == 0) {
			t.Fatalf("engine %d: vacuous reference: %d panics, %+v, %+v", engine, panics, dnsSum, netSum)
		}

		for _, workers := range []int{1, 3} {
			cfg := base
			cfg.Workers, cfg.Telemetry = workers, telemetry.New()
			mustRun(t, w, cfg)
			snap := cfg.Telemetry.Snapshot()
			want := map[string]int{
				"dns_queries_total":                  dnsSum.Queries,
				"dns_cache_hits_total":               dnsSum.CacheHits,
				"dns_cache_misses_total":             dnsSum.CacheMisses,
				`dns_errors_total{class="nxdomain"}`: dnsSum.NXDomain,
				`dns_errors_total{class="timeout"}`:  dnsSum.Timeouts,
				`dns_errors_total{class="norecord"}`: dnsSum.NoRecord,
				"netem_packets_sent_total":           netSum.Sent,
				"netem_packets_delivered_total":      netSum.Delivered,
				"netem_packets_dropped_total":        netSum.Dropped,
				"netem_packets_reordered_total":      netSum.Reordered,
				"netem_packets_duplicated_total":     netSum.Duplicated,
				"scan_panics_total":                  panics,
			}
			for name, n := range want {
				got, ok := snap.Counters[name]
				if engine == EngineFast && strings.HasPrefix(name, "netem_") {
					if ok {
						t.Errorf("fast engine, W=%d: %s = %d; the fast engine sends no packets and has no netem series", workers, name, got)
					}
					continue
				}
				if !ok || got != int64(n) {
					t.Errorf("engine %d, W=%d: %s = %d (present %v), want the engines' %d", engine, workers, name, got, ok, n)
				}
			}
			attempted := snap.Counters["spinscan_conns_attempted_total"]
			closed := snap.Counters["spinscan_conns_closed_form_total"]
			switch {
			case engine == EngineFast && closed != attempted-int64(panics):
				t.Errorf("fast engine, W=%d: %d closed-form connections, want the %d attempted less %d panicked", workers, closed, attempted, panics)
			case engine == EngineEmulated && (closed == 0 || closed > attempted):
				t.Errorf("emulated engine, W=%d: %d closed-form connections of %d attempted, want some and at most all", workers, closed, attempted)
			}
		}
	}
}

// TestCountsVisibleToSink: a worker publishes a batch's counts before the
// batch leaves for the sink, so when the sink sees population index i,
// spinscan_domains_total already counts every domain up to i.
func TestCountsVisibleToSink(t *testing.T) {
	w := testWorld(40_000)
	reg := telemetry.New()
	domains := reg.Counter("spinscan_domains_total")
	cfg := Config{Week: 2, Engine: EngineFast, Seed: 1, Workers: 3, Telemetry: reg}
	err := RunStream(w, cfg, func(i int, _ *DomainResult) error {
		if got := domains.Value(); got < int64(i+1) {
			return fmt.Errorf("sink at index %d sees spinscan_domains_total = %d", i, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := domains.Value(); got != int64(w.NumDomains()) {
		t.Errorf("spinscan_domains_total = %d after the run, want %d", got, w.NumDomains())
	}
}

// BenchmarkFastScanPerDomainTelemetry is the overhead companion of
// BenchmarkFastScanPerDomain: one worker, its tally published once per
// pipeline batch as the campaign does.
func BenchmarkFastScanPerDomainTelemetry(b *testing.B) {
	w := testWorld(100_000)
	cfg := Config{Week: 1, Engine: EngineFast, Seed: 1, Workers: 1, Telemetry: telemetry.New()}
	tally := testTally(&cfg)
	eng := buildEngine(w, &cfg, tally, nil)
	var s slabs
	var d DomainResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset()
		eng.scanDomain(w.Domains[i%len(w.Domains)], &s, &d)
		tally.recordDomain(&d)
		if i%streamBatchSize == streamBatchSize-1 {
			tally.publish()
		}
	}
}

// BenchmarkFastWeekTelemetry scans one fast-engine week through the
// pipeline at W = 2, with telemetry off and on: what telemetry costs a
// campaign whose workers share one registry, which the one-worker
// benchmarks above cannot show. The sink does nothing, so the workers are
// the bottleneck.
func BenchmarkFastWeekTelemetry(b *testing.B) {
	w := testWorld(4000)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Config{Week: 12, Engine: EngineFast, Seed: 1, Workers: 2}
				if on {
					cfg.Telemetry = telemetry.New()
				}
				if err := RunStream(w, cfg, func(int, *DomainResult) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.NumDomains()), "ns/domain")
		})
	}
}
