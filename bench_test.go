package quicspin_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	go test -bench=. -benchmem
//
// Each benchmark prints its table or histogram once (the reproduction
// output recorded in EXPERIMENTS.md) and then times regenerating it from
// the folded accumulator state. The underlying measurement campaign — world generation and
// the packet-level emulated scans — runs once, shared by all benchmarks.
// Control the population size with QUICSPIN_SCALE (default 4000; the
// calibrated reproduction in EXPERIMENTS.md uses 2000).

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/core"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

var (
	benchOnce sync.Once
	benchV4   *analysis.Accumulator
	benchV6   *analysis.Accumulator
	benchR4   *scanner.Result // kept for the §5.2 reordering count
	benchLong *analysis.CampaignAccumulator
)

func benchScale() int {
	if v := os.Getenv("QUICSPIN_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 4000
}

// fixture runs the shared measurement campaign: one emulated IPv4 scan and
// one emulated IPv6 scan of the final campaign week (Tables 1-4, Figs.
// 3-4), plus twelve weekly fast-engine scans (Fig. 2), each folded into its
// accumulator.
func fixture(b *testing.B) (v4, v6 *analysis.Accumulator, long *analysis.CampaignAccumulator) {
	b.Helper()
	benchOnce.Do(func() {
		scale := benchScale()
		prof := websim.DefaultProfile()
		prof.Scale = scale
		fmt.Printf("## generating world at scale 1/%d and scanning (set QUICSPIN_SCALE to change)...\n", scale)
		start := time.Now()
		w := websim.Generate(prof)
		benchR4 = mustRun(w, scanner.Config{Week: prof.Weeks, Engine: scanner.EngineEmulated, Seed: 99})
		benchV4 = analysis.NewAccumulator(prof.Weeks, false, w.ASDB()).AddResult(benchR4)
		r6 := mustRun(w, scanner.Config{Week: prof.Weeks, IPv6: true, Engine: scanner.EngineEmulated, Seed: 99})
		benchV6 = analysis.NewAccumulator(prof.Weeks, true, w.ASDB()).AddResult(r6)
		benchLong = analysis.NewCampaignAccumulator()
		for wk := 1; wk <= prof.Weeks; wk++ {
			cfg := scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 99}
			if err := scanner.RunStream(w, cfg, benchLong.StartWeek(wk, false, w.ASDB()).Sink()); err != nil {
				panic(err)
			}
		}
		fmt.Printf("## campaign complete in %v (%d domains, %d servers)\n\n",
			time.Since(start).Round(time.Millisecond), len(w.Domains), w.NumServers())
	})
	return benchV4, benchV6, benchLong
}

var printOnce sync.Map

func printFixture(key, out string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(out)
	}
}

// benchRender prints one rendering once and then times regenerating it
// from the folded state.
func benchRender(b *testing.B, key string, render func() string) {
	printFixture(key, render())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render()
	}
}

// BenchmarkTable1_IPv4Overview regenerates Table 1: Total/Resolved/QUIC/
// Spin domains and IPs for the Toplists, CZDS and com/net/org views.
func BenchmarkTable1_IPv4Overview(b *testing.B) {
	v4, _, _ := fixture(b)
	benchRender(b, "t1", func() string { return v4.RenderOverview().String() })
}

// BenchmarkTable2_ASOrganizations regenerates Table 2: QUIC connections
// and spin activity per AS organisation for com/net/org.
func BenchmarkTable2_ASOrganizations(b *testing.B) {
	v4, _, _ := fixture(b)
	benchRender(b, "t2", func() string { return v4.RenderOrgTable(8).String() })
}

// BenchmarkTable3_SpinConfiguration regenerates Table 3: the All Zero /
// All One / Spin / Grease breakdown of QUIC domains.
func BenchmarkTable3_SpinConfiguration(b *testing.B) {
	v4, _, _ := fixture(b)
	benchRender(b, "t3", func() string { return v4.RenderSpinConfig().String() })
}

// BenchmarkFigure2_RFCCompliance regenerates Fig. 2: the histogram of
// weeks with spin activity across the 12-week campaign next to the
// RFC 9000 (1-in-16) and RFC 9312 (1-in-8) binomial reference shares.
func BenchmarkFigure2_RFCCompliance(b *testing.B) {
	_, _, long := fixture(b)
	benchRender(b, "f2", func() string { return analysis.RenderLongitudinal(long.Longitudinal()).String() })
}

// BenchmarkTable4_IPv6Overview regenerates Table 4: the IPv6 view of the
// adoption overview.
func BenchmarkTable4_IPv6Overview(b *testing.B) {
	_, v6, _ := fixture(b)
	benchRender(b, "t4", func() string { return v6.RenderOverview().String() })
}

// BenchmarkFigure3_AbsoluteAccuracy regenerates Fig. 3: histograms of the
// absolute difference between the mean spin-bit estimate and the mean
// stack estimate, for Spin/Grease in received (R) and sorted (S) order.
func BenchmarkFigure3_AbsoluteAccuracy(b *testing.B) {
	v4, _, _ := fixture(b)
	benchRender(b, "f3", func() string { return v4.RenderAccuracy(3) })
}

// BenchmarkFigure4_RelativeAccuracy regenerates Fig. 4: histograms of the
// mapped ratio of means, plus the paper's §5.2 headline shares.
func BenchmarkFigure4_RelativeAccuracy(b *testing.B) {
	v4, _, _ := fixture(b)
	h := v4.Headlines()
	ri := analysis.Reordering(benchR4)
	printFixture("f4", v4.RenderAccuracy(4)+fmt.Sprintf(
		"headlines (Spin R, n=%d): overestimate=%.1f%% within-25ms=%.1f%% >200ms=%.1f%% within-25%%=%.1f%% within-2x=%.1f%% >3x=%.1f%%\n"+
			"reordering impact: %d/%d connections differ between R and S\n",
		h.N, h.OverestimateShare*100, h.Within25ms*100, h.Over200ms*100,
		h.Within25pct*100, h.Within2x*100, h.Over3x*100, ri.Differing, ri.Conns))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v4.RenderAccuracy(4)
	}
}

// BenchmarkAblation_ObserverFilters compares the passive observer's
// defences against reordering-induced bogus samples (DESIGN.md §5): raw
// edges, the packet-number guard, and the RFC 9312 heuristics.
func BenchmarkAblation_ObserverFilters(b *testing.B) {
	// A locally seeded rng (never the global math/rand source, which
	// test-order shuffling would perturb) keeps the injected reordering
	// pattern — and so the reported bogus-sample counts — identical across
	// runs. The whole repo follows this convention; nothing seeds or draws
	// from the global source.
	rng := rand.New(rand.NewSource(11))
	obs := reorderedWave(rng, 100*time.Millisecond, 200, 8, 0.05)
	cases := []struct {
		name string
		mk   func() *core.Observer
	}{
		{"raw", func() *core.Observer { return core.NewObserver(core.ObserverConfig{}) }},
		{"pn-guard", func() *core.Observer {
			return core.NewObserver(core.ObserverConfig{UsePacketNumberGuard: true})
		}},
		{"static-threshold", func() *core.Observer {
			return core.NewObserver(core.ObserverConfig{Filter: core.StaticThreshold{Min: 10 * time.Millisecond}})
		}},
		{"relative-filter", func() *core.Observer {
			return core.NewObserver(core.ObserverConfig{Filter: &core.RelativeFilter{Fraction: 0.1, WarmUp: 3}})
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var lastBogus, lastN int
			for i := 0; i < b.N; i++ {
				o := c.mk()
				for _, ob := range obs {
					o.Observe(core.ServerToClient, ob)
				}
				lastBogus, lastN = 0, 0
				for _, s := range o.ValidSamples() {
					lastN++
					if s.RTT < 50*time.Millisecond {
						lastBogus++
					}
				}
			}
			b.ReportMetric(float64(lastBogus), "bogus-samples")
			b.ReportMetric(float64(lastN), "samples")
		})
	}
}

// BenchmarkAblation_ConnectionLength measures the §6 conjecture: spin
// estimates stabilise on longer transfers because the inflated
// connection-start cycles get diluted by accurate in-transfer cycles.
func BenchmarkAblation_ConnectionLength(b *testing.B) {
	for _, kb := range []int{4, 32, 256} {
		kb := kb
		b.Run(fmt.Sprintf("body-%dKB", kb), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = spinAccuracyForBody(kb * 1000)
			}
			b.ReportMetric(ratio, "spin/stack-ratio")
		})
	}
}

// BenchmarkScanThroughput times the two campaign engines per domain.
func BenchmarkScanThroughput(b *testing.B) {
	prof := websim.DefaultProfile()
	prof.Scale = 100_000
	w := websim.Generate(prof)
	for _, eng := range []struct {
		name string
		e    scanner.Engine
	}{{"emulated", scanner.EngineEmulated}, {"fast", scanner.EngineFast}} {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(w, scanner.Config{Week: 12, Engine: eng.e, Seed: int64(i), Workers: 4})
			}
			b.ReportMetric(float64(len(w.Domains)), "domains/op")
		})
	}
}

// reorderedWave builds a spin square wave with injected reordering.
func reorderedWave(rng *rand.Rand, period time.Duration, cycles, pktsPerCycle int, rate float64) []core.Observation {
	t0 := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	var obs []core.Observation
	pn := uint64(0)
	for c := 0; c < cycles; c++ {
		for p := 0; p < pktsPerCycle; p++ {
			at := t0.Add(time.Duration(c)*period + time.Duration(p)*period/time.Duration(pktsPerCycle+2))
			if rng.Float64() < rate {
				at = at.Add(period * 3 / 4)
			}
			obs = append(obs, core.Observation{T: at, PN: pn, Spin: c%2 == 1})
			pn++
		}
	}
	// Receive order.
	for i := 1; i < len(obs); i++ {
		for j := i; j > 0 && obs[j].T.Before(obs[j-1].T); j-- {
			obs[j], obs[j-1] = obs[j-1], obs[j]
		}
	}
	return obs
}

// spinAccuracyForBody runs one emulated exchange with the given body size
// and returns mean(spin)/mean(stack).
func spinAccuracyForBody(body int) float64 {
	// A dedicated single-server world: one spinning deployment with a
	// dynamic response plan, like the hosters driving the paper's Fig. 4.
	prof := websim.DefaultProfile()
	prof.Scale = 1
	prof.TopDomains = 1
	prof.ZoneDomains = 1
	prof.TopResolveRate, prof.ZoneResolveRate = 1, 1
	prof.TopQUICRate, prof.ZoneQUICRate = 1, 1
	prof.RedirectRate = 0
	prof.BodyMinBytes, prof.BodyMaxBytes = body, body+1
	prof.QUICOrgs = prof.QUICOrgs[3:4] // Hostinger profile
	prof.QUICOrgs[0].SpinIPShare = 1
	prof.QUICOrgs[0].StableSpinShare = 1
	prof.QUICOrgs[0].DisableEveryN = 0
	prof.LegacyOrgs = nil
	w := websim.Generate(prof)
	res := mustRun(w, scanner.Config{Week: 1, Engine: scanner.EngineEmulated, Seed: 5, Workers: 1})
	var sum float64
	n := 0
	for i := range res.Domains {
		for j := range res.Domains[i].Conns {
			c := analysis.AnalyzeConn(&res.Domains[i].Conns[j])
			if c.HasAccuracy {
				sum += c.RatioR
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// mustRun runs a scan, panicking on config errors (benchmark fixtures run
// inside sync.Once, where no *testing.B is in scope).
func mustRun(w *websim.World, cfg scanner.Config) *scanner.Result {
	r, err := scanner.Run(w, cfg)
	if err != nil {
		panic(err)
	}
	return r
}
