package scanner

import (
	"math"
	"strings"
	"testing"

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
	for eng, reg := range regs {
		cfg := Config{Week: 1, Engine: eng, Seed: 11, Workers: 4, Telemetry: reg}
		tallies[eng] = tallyResult(mustRun(t, w, cfg))
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
		// The run's allocation gauges: every scanned domain allocates at
		// least its result, and no object is smaller than a byte.
		bytes, objs := snap.Gauges["scan_alloc_bytes"], snap.Gauges["scan_allocs"]
		if objs < int64(len(w.Domains)) || bytes < objs {
			t.Errorf("engine %d: scan_alloc_bytes = %d, scan_allocs = %d over %d domains", eng, bytes, objs, len(w.Domains))
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
	if snap.Counters[`spinscan_conn_errors_total{class="timeout"}`] == 0 {
		t.Error("no timeout-class connection errors recorded")
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

// BenchmarkFastScanPerDomainTelemetry is the overhead companion of
// BenchmarkFastScanPerDomain: the delta between the two must stay <2%
// (the always-on budget from the ISSUE acceptance criteria).
func BenchmarkFastScanPerDomainTelemetry(b *testing.B) {
	w := testWorld(100_000)
	cfg := Config{Week: 1, Engine: EngineFast, Seed: 1, Workers: 1, Telemetry: telemetry.New()}
	tm := newScanTelemetry(cfg.Telemetry)
	eng := newFastEngine(w, cfg, tm, nil)
	var s slabs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset()
		d := eng.scanDomain(w.Domains[i%len(w.Domains)], &s)
		tm.recordDomain(&d)
	}
}
