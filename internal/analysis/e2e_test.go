package analysis

import (
	"strings"
	"sync"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// The e2e tests share one scan fixture (IPv4 + IPv6, final campaign week)
// at a scale large enough for IP-level shares to be statistically
// meaningful. Individual tests then check the paper's Table/Figure shapes.
var (
	fixtureOnce sync.Once
	fxWorld     *websim.World
	fxV4, fxV6  *Accumulator
	fxResultV4  *scanner.Result // kept for Reordering, which works from results
)

func fixture(t *testing.T) (*websim.World, *Accumulator, *Accumulator) {
	t.Helper()
	fixtureOnce.Do(func() {
		p := websim.DefaultProfile()
		p.Scale = 2000 // the default scale: ~108k zone + ~1.4k toplist
		// domains; smaller scales leave tail orgs with 1-2 IPs and make
		// per-org spin shares statistically meaningless.
		fxWorld = websim.Generate(p)
		week := p.Weeks // the paper's CW 20 snapshot is the campaign's end
		r4, err4 := scanner.Run(fxWorld, scanner.Config{Week: week, Engine: scanner.EngineEmulated, Seed: 99, Workers: 8})
		if err4 != nil {
			panic(err4)
		}
		fxResultV4 = r4
		fxV4 = NewAccumulator(week, false, fxWorld.ASDB()).AddResult(r4)
		r6, err6 := scanner.Run(fxWorld, scanner.Config{Week: week, IPv6: true, Engine: scanner.EngineEmulated, Seed: 99, Workers: 8})
		if err6 != nil {
			panic(err6)
		}
		fxV6 = NewAccumulator(week, true, fxWorld.ASDB()).AddResult(r6)
	})
	return fxWorld, fxV4, fxV6
}

func TestOverviewShapesIPv4(t *testing.T) {
	_, wk, _ := fixture(t)
	rows := wk.OverviewRows() // StandardViews order
	top, zone, cno := rows[0], rows[1], rows[2]

	if top.TotalDomains == 0 || zone.TotalDomains == 0 || cno.TotalDomains == 0 {
		t.Fatalf("empty views: %+v %+v %+v", top, zone, cno)
	}
	if cno.TotalDomains >= zone.TotalDomains {
		t.Errorf("com/net/org (%d) must be a subset of CZDS (%d)", cno.TotalDomains, zone.TotalDomains)
	}
	// Spin share of QUIC domains: zone ≈ 10-12 %, toplist ≈ 7-8 %.
	zoneShare := share(zone.SpinDomains, zone.QUICDomains)
	if zoneShare < 0.07 || zoneShare > 0.17 {
		t.Errorf("CZDS domain spin share = %.3f, want ≈0.10-0.12", zoneShare)
	}
	topShare := share(top.SpinDomains, top.QUICDomains)
	if topShare >= zoneShare {
		t.Errorf("toplist domain spin share %.3f not below CZDS %.3f", topShare, zoneShare)
	}
	// Spin share of QUIC IPs: zone ≈ 40-50 %.
	ipShare := share(zone.SpinIPs, zone.QUICIPs)
	if ipShare < 0.28 || ipShare > 0.60 {
		t.Errorf("CZDS IP spin share = %.3f, want ≈0.40-0.45", ipShare)
	}
	// Toplist IP spin share must be lower than CZDS (15.2 % vs ≈45 %).
	topIPShare := share(top.SpinIPs, top.QUICIPs)
	if topIPShare >= ipShare {
		t.Errorf("toplist IP spin share %.3f not below CZDS %.3f", topIPShare, ipShare)
	}
}

func TestOrgTableShapes(t *testing.T) {
	_, wk, _ := fixture(t)
	rows := wk.orgs.finish(8)
	if len(rows) < 5 {
		t.Fatalf("too few org rows: %d", len(rows))
	}
	byName := map[string]OrgRow{}
	for _, r := range rows {
		byName[r.Org] = r
	}
	cf, ok := byName["Cloudflare"]
	if !ok {
		t.Fatal("Cloudflare missing from org table")
	}
	if cf.Rank != 1 {
		t.Errorf("Cloudflare rank = %d, want 1 (largest QUIC host)", cf.Rank)
	}
	if cf.SpinConns != 0 {
		t.Errorf("Cloudflare spin conns = %d, want 0", cf.SpinConns)
	}
	ho, ok := byName["Hostinger"]
	if !ok {
		t.Fatal("Hostinger missing from org table")
	}
	if s := share(ho.SpinConns, ho.TotalConns); s < 0.35 || s > 0.75 {
		t.Errorf("Hostinger spin share = %.3f, want ≈0.52", s)
	}
	// The mid-tier hosters together carry majority spin support.
	var hostTot, hostSpin int
	for _, name := range []string{"Hostinger", "OVH SAS", "A2 Hosting", "SingleHop", "Server Central"} {
		if r, ok := byName[name]; ok {
			hostTot += r.TotalConns
			hostSpin += r.SpinConns
		}
	}
	if s := share(hostSpin, hostTot); s < 0.40 || s > 0.75 {
		t.Errorf("named hoster aggregate spin share = %.3f, want ≈0.55", s)
	}
	other, ok := byName["<other>"]
	if !ok {
		t.Fatal("<other> bucket missing")
	}
	if s := share(other.SpinConns, other.TotalConns); s < 0.25 || s > 0.70 {
		t.Errorf("<other> spin share = %.3f, want ≈0.53", s)
	}
}

func TestSpinConfigShapes(t *testing.T) {
	_, wk, _ := fixture(t)
	r := wk.ConfigRows()[1]
	if r.QUICDomains == 0 {
		t.Fatal("no QUIC domains")
	}
	zeroShare := share(r.AllZero, r.QUICDomains)
	if zeroShare < 0.75 {
		t.Errorf("All Zero share = %.3f, want ≈0.89 (dominant)", zeroShare)
	}
	if r.AllOne > r.AllZero/10 {
		t.Errorf("All One (%d) not rare relative to All Zero (%d)", r.AllOne, r.AllZero)
	}
	if r.Spin == 0 {
		t.Error("no spinning domains")
	}
	if r.Grease > r.Spin {
		t.Errorf("grease (%d) exceeds spin (%d); filter misfiring", r.Grease, r.Spin)
	}
}

func TestIPv6Shapes(t *testing.T) {
	_, wk4, wk6 := fixture(t)
	zone4 := wk4.OverviewRows()[1]
	zone6 := wk6.OverviewRows()[1]
	if zone6.ResolvedDomains >= zone4.ResolvedDomains {
		t.Errorf("v6 resolved (%d) should be below v4 (%d)", zone6.ResolvedDomains, zone4.ResolvedDomains)
	}
	// v6 host spin share exceeds v4 (paper: ≈63 % vs ≈45 %).
	v4 := share(zone4.SpinIPs, zone4.QUICIPs)
	v6 := share(zone6.SpinIPs, zone6.QUICIPs)
	if v6 <= v4 {
		t.Errorf("v6 IP spin share %.3f not above v4 %.3f", v6, v4)
	}
	// CZDS v6 has far more QUIC hosts than v4 (per-customer addresses).
	if zone6.QUICIPs <= zone4.QUICIPs {
		t.Errorf("v6 QUIC IPs (%d) not above v4 (%d)", zone6.QUICIPs, zone4.QUICIPs)
	}
	// Toplist v6 domain spin share below the v4 share (2.3 % vs 6.9 %).
	top4 := wk4.OverviewRows()[0]
	top6 := wk6.OverviewRows()[0]
	s4, s6 := share(top4.SpinDomains, top4.QUICDomains), share(top6.SpinDomains, top6.QUICDomains)
	if s6 >= s4 {
		t.Errorf("toplist v6 spin share %.3f not below v4 %.3f", s6, s4)
	}
}

func TestAccuracyShapes(t *testing.T) {
	_, wk, _ := fixture(t)
	h := wk.Headlines()
	if h.N < 100 {
		t.Fatalf("only %d accuracy connections; population too small", h.N)
	}
	if h.OverestimateShare < 0.80 {
		t.Errorf("overestimate share = %.3f, want ≈0.977", h.OverestimateShare)
	}
	if h.Within25pct < 0.12 || h.Within25pct > 0.55 {
		t.Errorf("within-25%% share = %.3f, want ≈0.305", h.Within25pct)
	}
	if h.Over3x < 0.25 || h.Over3x > 0.75 {
		t.Errorf("over-3x share = %.3f, want ≈0.517", h.Over3x)
	}
	// Reordering must be a non-issue (paper: 0.28 % differing).
	ri := Reordering(fxResultV4)
	if ri.Conns == 0 {
		t.Fatal("no reordering sample")
	}
	if float64(ri.Differing)/float64(ri.Conns) > 0.10 {
		t.Errorf("R-vs-S differing share = %.3f, want small", float64(ri.Differing)/float64(ri.Conns))
	}
}

func TestRenderersProduceTables(t *testing.T) {
	_, wk, _ := fixture(t)
	if s := wk.RenderOverview().String(); !strings.Contains(s, "CZDS") || !strings.Contains(s, "#IPs") {
		t.Errorf("overview table:\n%s", s)
	}
	if s := wk.RenderOrgTable(8).String(); !strings.Contains(s, "AS Organization") {
		t.Errorf("org table:\n%s", s)
	}
	if s := wk.RenderSpinConfig().String(); !strings.Contains(s, "All Zero") {
		t.Errorf("config table:\n%s", s)
	}
	if s := wk.RenderAccuracy(3); !strings.Contains(s, "Figure 3") {
		t.Errorf("fig 3 output:\n%s", s)
	}
	if s := wk.RenderAccuracy(4); !strings.Contains(s, "Figure 4") {
		t.Errorf("fig 4 output:\n%s", s)
	}
	camp := NewCampaignAccumulator()
	camp.StartWeek(fxResultV4.Week, false, nil).AddResult(fxResultV4)
	if s := RenderLongitudinal(camp.Longitudinal()).String(); !strings.Contains(s, "RFC 9000") {
		t.Errorf("fig 2 output:\n%s", s)
	}
}

// TestTableDeterminism is the regression gate for worker-invariant
// reproducibility: with a fixed seed, the rendered Table 1 and Table 3 must
// be byte-identical for Workers ∈ {1, 4, 16}, for each engine kind.
// Per-domain randomness is derived from (Seed, Week, domain), so sharding
// must not leak into any reported number. The two engines are each
// self-consistent but not byte-equal to each other: they roll the same
// keyed dice but time packets differently (closed form against emulation),
// which is exactly the gap the conformance differential bounds instead.
func TestTableDeterminism(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 50_000
	w := websim.Generate(p)
	render := func(eng scanner.Engine, workers int) (string, string) {
		a := streamWeek(t, w, scanner.Config{Week: 3, Engine: eng, Seed: 7, Workers: workers})
		return a.RenderOverview().String(), a.RenderSpinConfig().String()
	}
	for _, eng := range []struct {
		name string
		kind scanner.Engine
	}{{"fast", scanner.EngineFast}, {"emulated", scanner.EngineEmulated}} {
		t.Run(eng.name, func(t *testing.T) {
			refOverview, refConfig := render(eng.kind, 1)
			if !strings.Contains(refOverview, "CZDS") || !strings.Contains(refConfig, "All Zero") {
				t.Fatalf("reference tables look wrong:\n%s\n%s", refOverview, refConfig)
			}
			for _, workers := range []int{4, 16} {
				gotOverview, gotConfig := render(eng.kind, workers)
				if gotOverview != refOverview {
					t.Errorf("Table 1 differs between Workers=1 and Workers=%d:\n--- 1 ---\n%s\n--- %d ---\n%s",
						workers, refOverview, workers, gotOverview)
				}
				if gotConfig != refConfig {
					t.Errorf("Table 3 differs between Workers=1 and Workers=%d:\n--- 1 ---\n%s\n--- %d ---\n%s",
						workers, refConfig, workers, gotConfig)
				}
			}
		})
	}
}

func share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
