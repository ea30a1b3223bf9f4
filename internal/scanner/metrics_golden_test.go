package scanner_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics-*.golden from the current /metrics text")

// wallGauges are the series whose values follow the host, not the scan:
// throughput and the heap allocation meter.
var wallGauges = []string{"scan_domains_per_sec ", "scan_alloc_bytes ", "scan_allocs "}

// TestMetricsGolden pins the end-of-run /metrics text of fixed scans, one
// per engine, on a hostile world with retries, injected DNS timeouts,
// blackouts and panics, and the circuit breaker on the fast one: every
// series, every label set and every count. The wall-clock gauges read as
// "-", and a histogram's _sum is held to 1e-9 relative, since workers add
// their samples in a different order from run to run.
func TestMetricsGolden(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 20_000, 0.3
	w := websim.Generate(p)
	for _, tc := range []struct {
		name    string
		engine  scanner.Engine
		breaker int
	}{
		{"emulated", scanner.EngineEmulated, 0},
		{"fast", scanner.EngineFast, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.Parse("seed:3,dns.timeout:0.2/1,net.blackout:0.05/1,scan.panic:0.002")
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			cfg := scanner.Config{Week: 5, Engine: tc.engine, Seed: 9, Workers: 3, Telemetry: reg, Faults: plan,
				Retry:   resilience.RetryPolicy{MaxRetries: 2},
				Breaker: resilience.BreakerConfig{Threshold: tc.breaker}}
			if err := scanner.RunStream(w, cfg, func(int, *scanner.DomainResult) error { return nil }); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			got := maskWallGauges(buf.String())
			path := filepath.Join("testdata", "metrics-"+tc.name+".golden")
			if *updateMetrics {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sameMetricsText(t, got, string(want))
		})
	}
}

// maskWallGauges replaces the value of every wall-clock gauge with "-".
func maskWallGauges(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		for _, g := range wallGauges {
			if strings.HasPrefix(l, g) {
				lines[i] = g + "-"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// sameMetricsText compares two /metrics texts line by line: exactly, except
// that histogram _sum values agree to 1e-9 relative.
func sameMetricsText(t *testing.T, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		t.Errorf("/metrics has %d lines, golden %d", len(g), len(w))
	}
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] == w[i] {
			continue
		}
		gn, gv, _ := strings.Cut(g[i], " ")
		wn, wv, _ := strings.Cut(w[i], " ")
		if gn == wn && strings.Contains(gn, "_sum") {
			a, errA := strconv.ParseFloat(gv, 64)
			b, errB := strconv.ParseFloat(wv, 64)
			if errA == nil && errB == nil && math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
				continue
			}
		}
		t.Errorf("line %d: got %q, golden %q", i+1, g[i], w[i])
	}
}
