package shard

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// fixWorld is a small seeded world shared across the package's tests
// (~1k domains — big enough for 8 non-trivial shards, small enough that
// every test re-scans it in milliseconds on the fast engine).
var (
	fixOnce  sync.Once
	fixState *websim.World
)

func fixture(t *testing.T) *websim.World {
	t.Helper()
	fixOnce.Do(func() {
		p := websim.DefaultProfile()
		p.Scale = 200_000
		fixState = websim.Generate(p)
	})
	return fixState
}

// renderCampaign renders everything the distributed path must reproduce
// byte-for-byte: Tables 1–5 per week, the Fig. 2 longitudinal histogram,
// and the Fig. 3/4 accuracy reports.
func renderCampaign(c *analysis.CampaignAccumulator) string {
	var b strings.Builder
	b.WriteString(analysis.RenderLongitudinal(c.Longitudinal()).String())
	b.WriteString(c.RenderAccuracy(3))
	b.WriteString(c.RenderAccuracy(4))
	for _, a := range c.Weeks() {
		b.WriteString(a.RenderOverview().String())
		b.WriteString(a.RenderOrgTable(8).String())
		b.WriteString(a.RenderSpinConfig().String())
		b.WriteString(a.RenderSoftwareTable().String())
		b.WriteString(a.RenderErrorClasses().String())
	}
	return b.String()
}

func baseConfig(engine scanner.Engine, workers int) func(week int) scanner.Config {
	return func(week int) scanner.Config {
		return scanner.Config{Engine: engine, Seed: 7, Workers: workers}
	}
}

func TestPlan(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []Range
	}{
		{10, 3, []Range{{0, 4}, {4, 7}, {7, 10}}},
		{9, 3, []Range{{0, 3}, {3, 6}, {6, 9}}},
		{5, 1, []Range{{0, 5}}},
		{2, 4, []Range{{0, 1}, {1, 2}, {2, 2}, {2, 2}}},
		{0, 2, []Range{{0, 0}, {0, 0}}},
		{7, 0, []Range{{0, 7}}}, // shard count clamps to 1
	}
	for _, c := range cases {
		got := Plan(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Errorf("Plan(%d, %d) = %v, want %v", c.n, c.shards, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Plan(%d, %d)[%d] = %v, want %v", c.n, c.shards, i, got[i], c.want[i])
			}
		}
		// The slices must tile [0, n) exactly.
		prev := 0
		for _, r := range got {
			if r.Start != prev || r.End < r.Start {
				t.Errorf("Plan(%d, %d) does not tile the population: %v", c.n, c.shards, got)
			}
			prev = r.End
		}
		if prev != c.n {
			t.Errorf("Plan(%d, %d) covers [0, %d), want [0, %d)", c.n, c.shards, prev, c.n)
		}
	}
}

func TestParseTransport(t *testing.T) {
	for _, tr := range []Transport{TransportSerialized, TransportUDP} {
		got, err := ParseTransport(tr.String())
		if err != nil || got != tr {
			t.Errorf("ParseTransport(%q) = %v, %v", tr.String(), got, err)
		}
	}
	for _, bad := range []string{"carrier-pigeon", "inproc"} {
		if _, err := ParseTransport(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseTransport(%q) = %v, want an error naming the value", bad, err)
		}
	}
	if s := Transport(42).String(); s != "Transport(42)" {
		t.Errorf("Transport(42).String() = %q", s)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 1)}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	unsharded := Config{Weeks: []int{1}, ForWeek: ok.ForWeek}
	if err := unsharded.Validate(); err != nil {
		t.Fatalf("Shards: 0 (unsharded) rejected: %v", err)
	}
	bad := []Config{
		{Shards: -1, Weeks: []int{1}, ForWeek: ok.ForWeek},
		{Shards: 1, ForWeek: ok.ForWeek},
		{Shards: 1, ForWeek: ok.ForWeek, UntilInterrupted: true, Interrupt: make(chan struct{})},
		{Shards: 1, Weeks: []int{1}, ForWeek: ok.ForWeek, UntilInterrupted: true},
		{Shards: 1, Weeks: []int{1}},
		{Shards: 1, Weeks: []int{1}, ForWeek: ok.ForWeek, Transport: Transport(9)},
		{Shards: 1, Weeks: []int{1}, ForWeek: ok.ForWeek, Resume: true},
		{Shards: 1, Weeks: []int{1}, ForWeek: ok.ForWeek, RetainWeeks: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
		if _, err := Run(fixture(t), c); err == nil {
			t.Errorf("Run accepted bad config %d", i)
		}
	}
}

// TestRunTransports runs the same sharded campaign over every transport and
// requires rendered output identical to the plain unsharded week loop — the
// wire format and the UDP exchange are pure plumbing.
func TestRunTransports(t *testing.T) {
	w := fixture(t)
	weeks := []int{1, 2}
	plain := analysis.NewCampaignAccumulator()
	for _, week := range weeks {
		sc := baseConfig(scanner.EngineFast, 2)(week)
		sc.Week = week
		if err := scanner.RunStream(w, sc, plain.StartWeek(week, false, w.ASDB()).Sink()); err != nil {
			t.Fatal(err)
		}
	}
	golden := renderCampaign(plain)
	for _, tr := range []Transport{TransportSerialized, TransportUDP} {
		res, err := Run(w, Config{
			Shards:    3,
			Weeks:     weeks,
			ForWeek:   baseConfig(scanner.EngineFast, 2),
			Transport: tr,
		})
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if res.Shards != 3 || len(res.Vantages) != 1 {
			t.Fatalf("%v: unexpected result shape: %d shards, %d vantages", tr, res.Shards, len(res.Vantages))
		}
		if got := renderCampaign(res.Vantages[0].Campaign); got != golden {
			t.Errorf("%v: rendered campaign differs from the unsharded week loop", tr)
		}
	}
}

// TestMultiVantage runs two vantage points — baseline and one behind extra
// path delay/jitter — and checks the agreement table: both vantages see the
// same population, and the spin verdict distribution should barely move.
func TestMultiVantage(t *testing.T) {
	w := fixture(t)
	tm := telemetry.New()
	live := analysis.NewLive()
	res, err := Run(w, Config{
		Shards: 2,
		Weeks:  []int{3},
		Vantages: []scanner.Vantage{
			{},
			{Name: "far", ExtraDelay: 30 * time.Millisecond, ExtraJitter: 5 * time.Millisecond},
		},
		ForWeek:   baseConfig(scanner.EngineFast, 2),
		Telemetry: tm,
		Live:      live,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vantages) != 2 {
		t.Fatalf("got %d vantage results, want 2", len(res.Vantages))
	}
	table := RenderAgreement(res).String()
	for _, want := range []string{"baseline", "far", "Agreement", "100.0%"} {
		if !strings.Contains(table, want) {
			t.Errorf("agreement table missing %q:\n%s", want, table)
		}
	}
	// Both vantages scanned every QUIC domain; the far vantage only adds
	// path latency, so its verdict distribution stays close to baseline.
	base := vantageDist(res.Vantages[0].Campaign)
	far := vantageDist(res.Vantages[1].Campaign)
	if base.QUICDomains == 0 || far.QUICDomains != base.QUICDomains {
		t.Errorf("vantages saw different QUIC populations: %d vs %d", base.QUICDomains, far.QUICDomains)
	}
	if ag := agreement(base, far); ag < 0.95 {
		t.Errorf("cross-vantage agreement %.3f below 0.95", ag)
	}
	// The coordinator gauges reflect the campaign shape.
	if g := tm.Gauge("shard_count").Value(); g != 2 {
		t.Errorf("shard_count gauge = %d, want 2", g)
	}
	if g := tm.Gauge("vantage_count").Value(); g != 2 {
		t.Errorf("vantage_count gauge = %d, want 2", g)
	}
	if c := tm.Counter(telemetry.Name("shard_domains_total", "shard", "0")).Value(); c == 0 {
		t.Error("per-shard progress counter never incremented")
	}
	snap := live.Snapshot()
	if snap.Shards != 2 {
		t.Errorf("dashboard saw %d shards, want 2", snap.Shards)
	}
	if snap.Vantage != "far" {
		t.Errorf("dashboard vantage = %q, want far (the last one scanned)", snap.Vantage)
	}
	if snap.Totals.Domains != 2*w.NumDomains() {
		t.Errorf("dashboard totals %d domains, want %d", snap.Totals.Domains, 2*w.NumDomains())
	}
}

func TestAgreementMath(t *testing.T) {
	a := analysis.ConfigRow{QUICDomains: 10, Spin: 8, None: 2}
	if got := agreement(a, a); got != 1 {
		t.Errorf("agreement(a, a) = %v, want 1", got)
	}
	b := analysis.ConfigRow{QUICDomains: 10, Spin: 6, None: 4}
	if got := agreement(a, b); got < 0.79 || got > 0.81 {
		t.Errorf("agreement = %v, want 0.8", got)
	}
	if got := agreement(a, analysis.ConfigRow{}); got != 1 {
		t.Errorf("agreement with empty row = %v, want 1", got)
	}
	if tbl := RenderAgreement(&Result{}).String(); !strings.Contains(tbl, "Vantage") {
		t.Errorf("empty agreement table lost its header:\n%s", tbl)
	}
}

// TestInterruptAndResume interrupts shards mid-campaign, then resumes
// from the per-shard journals and requires the rendered campaign to be
// byte-identical to an uninterrupted run — the distributed version of the
// scanner's checkpoint contract.
func TestInterruptAndResume(t *testing.T) {
	w := fixture(t)
	weeks := []int{1, 2}
	golden, err := Run(w, Config{Shards: 4, Weeks: weeks, ForWeek: baseConfig(scanner.EngineFast, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir()
	// Domains 160..163 to complete anywhere in the campaign interrupt the
	// shard scanning them: mid-population, whichever shards those are.
	plan := mustFaults(t, "scan.interrupt:160x4")
	interrupted := func(week int) scanner.Config {
		sc := baseConfig(scanner.EngineFast, 2)(week)
		sc.Faults = plan
		return sc
	}
	res, err := Run(w, Config{Shards: 4, Weeks: weeks, ForWeek: interrupted, Checkpoint: ckpt})
	if !errors.Is(err, scanner.ErrInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrInterrupted", err)
	}
	if res == nil || len(res.Vantages) != 1 || res.Vantages[0].Campaign == nil {
		t.Fatal("interrupted campaign returned no partial result")
	}
	resumed, err := Run(w, Config{
		Shards: 4, Weeks: weeks, ForWeek: baseConfig(scanner.EngineFast, 2),
		Checkpoint: ckpt, Resume: true, Transport: TransportSerialized,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCampaign(resumed.Vantages[0].Campaign), renderCampaign(golden.Vantages[0].Campaign); got != want {
		t.Error("resumed campaign differs from the uninterrupted reference")
	}
}

func TestVantageNaming(t *testing.T) {
	cases := []struct {
		v         scanner.Vantage
		vi        int
		label, di string
	}{
		{scanner.Vantage{}, 0, "baseline", "baseline"},
		{scanner.Vantage{}, 2, "vantage-2", "vantage-2"},
		{scanner.Vantage{Name: "eu-west"}, 1, "eu-west", "eu-west"},
		{scanner.Vantage{Name: "eu west/1"}, 1, "eu west/1", "vantage-1"},
		{scanner.Vantage{ExtraDelay: time.Millisecond}, 0, "vantage-0", "vantage-0"},
	}
	for _, c := range cases {
		if got := vantageLabel(c.v, c.vi); got != c.label {
			t.Errorf("vantageLabel(%+v, %d) = %q, want %q", c.v, c.vi, got, c.label)
		}
		if got := vantageDir(c.v, c.vi); got != c.di {
			t.Errorf("vantageDir(%+v, %d) = %q, want %q", c.v, c.vi, got, c.di)
		}
	}
}

// TestVantageNameCollisions: vantages that would share a label or a
// directory — and so one journal and one qlog subdirectory — are rejected,
// and the error names both.
func TestVantageNameCollisions(t *testing.T) {
	far := time.Millisecond
	cases := []struct {
		vantages []scanner.Vantage
		want     string // "" = valid; else every comma-separated part must appear
	}{
		{[]scanner.Vantage{{Name: "local"}, {Name: "far", ExtraDelay: far}}, ""},
		{[]scanner.Vantage{{}, {ExtraDelay: far}}, ""},
		// -vantages a,a:40+10
		{[]scanner.Vantage{{Name: "a"}, {Name: "a", ExtraDelay: far}}, `vantages 0 and 1,"a"`},
		// an explicit "baseline" next to an unnamed vantage 0
		{[]scanner.Vantage{{}, {Name: "baseline", ExtraDelay: far}}, `vantages 0 and 1,"baseline"`},
		// a name equal to another vantage's fallback
		{[]scanner.Vantage{{Name: "vantage-2"}, {Name: "b"}, {ExtraDelay: far}}, `vantages 0 and 2,"vantage-2"`},
		// distinct labels, one directory: the unsafe name falls back to its index
		{[]scanner.Vantage{{Name: "vantage-1"}, {Name: "eu west"}}, `vantages 0 ("vantage-1") and 1 ("eu west"),directory "vantage-1"`},
	}
	ok := func(int) scanner.Config { return scanner.Config{} }
	for _, c := range cases {
		err := Config{Weeks: []int{1}, ForWeek: ok, Vantages: c.vantages}.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%+v: %v, want valid", c.vantages, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%+v: accepted, want a collision naming %s", c.vantages, c.want)
			continue
		}
		for _, part := range strings.Split(c.want, ",") {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%+v: error %q does not name %s", c.vantages, err, part)
			}
		}
	}
}
