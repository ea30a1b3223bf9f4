package scanner_test

import (
	"slices"
	"testing"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/core"
	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// The emulated engine settles in closed form the connections whose reported
// numbers packets cannot change. This is the witness: with and without that
// shortcut, every configuration renders the same tables, every connection
// reports the same outcome and class, and every flipping connection the same
// stack RTT samples and spin series — up to a shift of absolute virtual
// time, which the skipped connections legitimately move.
func TestClosedFormEquivalence(t *testing.T) {
	const scale = 20000
	cases := []struct {
		name    string
		hostile float64
		faults  string
		cfg     scanner.Config
	}{
		// The emulated golden's configuration. It holds site10225.com, whose
		// redirect hop shares a server with its spinning hop: settling a
		// connection that does not end its chain moves that hop's spin RTTs.
		{name: "ipv4", cfg: scanner.Config{Week: 2, Seed: 7, Workers: 8}},
		{name: "ipv6", cfg: scanner.Config{Week: 12, Seed: 1, Workers: 2, IPv6: true}},
		{name: "hostile", hostile: 0.3, cfg: scanner.Config{Week: 12, Seed: 1, Workers: 2}},
		{name: "retries", faults: "dns.timeout:0.3/2,net.blackout:0.1/1",
			cfg: scanner.Config{Week: 12, Seed: 1, Workers: 2, Retry: resilience.RetryPolicy{MaxRetries: 2}}},
		{name: "vantage", cfg: scanner.Config{Week: 12, Seed: 1, Workers: 2,
			Vantage: scanner.Vantage{Name: "far", ExtraDelay: 30 * time.Millisecond, ExtraJitter: 5 * time.Millisecond}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := websim.DefaultProfile()
			p.Scale = scale
			p.HostileFrac = tc.hostile
			w := websim.Generate(p)
			run := func(cfg scanner.Config) (*scanner.Result, int64) {
				t.Helper()
				cfg.Engine = scanner.EngineEmulated
				cfg.Telemetry = telemetry.New()
				if tc.faults != "" {
					plan, err := fault.Parse(tc.faults)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = plan
				}
				r, err := scanner.Run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return r, cfg.Telemetry.Snapshot().Counters["spinscan_conns_closed_form_total"]
			}
			settled, closed := run(tc.cfg)
			emulated, none := run(scanner.EmulateAll(tc.cfg))
			if closed == 0 || none != 0 {
				t.Fatalf("closed-form connections: %d settled, %d with every connection emulated; want some and none", closed, none)
			}
			if got, want := renderWeek(w, settled), renderWeek(w, emulated); got != want {
				t.Errorf("rendered tables differ:\n--- settled\n%s\n--- emulated\n%s", got, want)
			}
			flipping := sameConns(t, settled, emulated)
			t.Logf("%d connections settled in closed form; %d flipping connections compared", closed, flipping)
			if flipping == 0 {
				t.Fatal("no flipping connection compared; the check is vacuous")
			}
			if tc.name == "ipv4" {
				hasChainedFlip(t, settled, "site10225.com")
			}
		})
	}
}

// renderWeek renders one week's Tables 1–5 and Figs. 3–4.
func renderWeek(w *websim.World, r *scanner.Result) string {
	a := analysis.NewAccumulator(r.Week, r.IPv6, w.ASDB()).AddResult(r)
	return a.RenderOverview().String() + a.RenderOrgTable(8).String() + a.RenderSpinConfig().String() +
		a.RenderSoftwareTable().String() + a.RenderErrorClasses().String() + a.RenderAccuracy(3) + a.RenderAccuracy(4)
}

// sameConns requires got and want to hold the same domains, connection for
// connection: outcome and class everywhere, and for a flipping connection the
// stack RTT samples and the spin series, timed from its first observation.
// It returns the number of flipping connections compared.
func sameConns(t *testing.T, got, want *scanner.Result) (flipping int) {
	t.Helper()
	if len(got.Domains) != len(want.Domains) {
		t.Fatalf("%d domains, want %d", len(got.Domains), len(want.Domains))
	}
	bad := 0
	fail := func(format string, args ...any) {
		t.Helper()
		if bad++; bad <= 10 {
			t.Errorf(format, args...)
		}
	}
	for i := range got.Domains {
		g, w := &got.Domains[i], &want.Domains[i]
		if g.Domain != w.Domain || g.Resolved != w.Resolved || g.DNSErr != w.DNSErr || len(g.Conns) != len(w.Conns) {
			fail("%s: domain %+v, want %+v", w.Domain, *g, *w)
			continue
		}
		for j := range g.Conns {
			gc, wc := &g.Conns[j], &w.Conns[j]
			if gc.Target != wc.Target || gc.IP != wc.IP || gc.Hop != wc.Hop || gc.QUIC != wc.QUIC || gc.Status != wc.Status ||
				gc.Server != wc.Server || gc.Redirect != wc.Redirect || gc.Err != wc.Err || gc.Kind() != wc.Kind() {
				fail("%s conn %d: %+v, want %+v", w.Domain, j, outcome(gc), outcome(wc))
				continue
			}
			if wc.Kind() != core.KindFlipping {
				continue
			}
			flipping++
			if !slices.Equal(gc.StackRTTs, wc.StackRTTs) {
				fail("%s conn %d: stack RTTs %v, want %v", w.Domain, j, gc.StackRTTs, wc.StackRTTs)
			}
			if !slices.Equal(relative(gc.Observations), relative(wc.Observations)) {
				fail("%s conn %d: spin series differs", w.Domain, j)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more differences", bad-10)
	}
	return flipping
}

// outcome is what a connection reports besides its samples and series.
func outcome(c *scanner.ConnResult) scanner.ConnResult {
	o := *c
	o.Observations, o.StackRTTs = nil, nil
	o.ZeroPkts, o.OnePkts = 0, 0
	return o
}

// relative returns obs with every T counted from the first observation.
func relative(obs []core.Observation) []core.Observation {
	out := slices.Clone(obs)
	for i := range out {
		out[i].T = time.Time{}.Add(obs[i].T.Sub(obs[0].T))
	}
	return out
}

// hasChainedFlip requires the domain called name to be scanned with more
// than one connection, one of them flipping: the shape whose spin RTTs the
// ends-the-chain rule protects.
func hasChainedFlip(t *testing.T, r *scanner.Result, name string) {
	t.Helper()
	for i := range r.Domains {
		d := &r.Domains[i]
		if d.Domain != name {
			continue
		}
		if len(d.Conns) < 2 || !d.SpinActivity() {
			t.Fatalf("%s: %d connections, spin activity %v; want a redirect chain with a flipping hop", name, len(d.Conns), d.SpinActivity())
		}
		return
	}
	t.Fatalf("%s is not in the population", name)
}
