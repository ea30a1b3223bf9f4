package scanner

import (
	"math"
	"reflect"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/websim"
)

// testWorld returns a small world for scan tests.
func testWorld(scale int) *websim.World {
	p := websim.DefaultProfile()
	p.Scale = scale
	return websim.Generate(p)
}

type tally struct {
	domains, resolved, quic, spin int
	conns, flipConns              int
	redirectsFollowed             int
	statuses                      map[int]int
}

func tallyResult(r *Result) tally {
	t := tally{statuses: map[int]int{}}
	for i := range r.Domains {
		d := &r.Domains[i]
		t.domains++
		if d.Resolved {
			t.resolved++
		}
		if d.QUIC() {
			t.quic++
		}
		if d.SpinActivity() {
			t.spin++
		}
		for j := range d.Conns {
			c := &d.Conns[j]
			t.conns++
			if c.HasFlips() {
				t.flipConns++
			}
			if c.Hop > 0 {
				t.redirectsFollowed++
			}
			if c.Status != 0 {
				t.statuses[c.Status]++
			}
		}
	}
	return t
}

func TestEmulatedScanSmall(t *testing.T) {
	w := testWorld(100_000) // ~27 toplist + ~2165 zone domains
	r := mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 42, Workers: 4})
	ty := tallyResult(r)
	if ty.domains != len(w.Domains) {
		t.Fatalf("domains scanned = %d, want %d", ty.domains, len(w.Domains))
	}
	if ty.resolved == 0 || ty.quic == 0 {
		t.Fatalf("vacuous scan: %+v", ty)
	}
	resolveRate := float64(ty.resolved) / float64(ty.domains)
	if resolveRate < 0.75 || resolveRate > 0.95 {
		t.Errorf("resolve rate = %.3f", resolveRate)
	}
	quicRate := float64(ty.quic) / float64(ty.resolved)
	if quicRate < 0.06 || quicRate > 0.22 {
		t.Errorf("QUIC rate = %.3f, want ≈0.12", quicRate)
	}
	if ty.spin == 0 {
		t.Error("no spin-active domains found")
	}
	if ty.statuses[200] == 0 {
		t.Error("no 200 responses")
	}
	if ty.redirectsFollowed == 0 || ty.statuses[301] == 0 {
		t.Errorf("redirects not exercised: %+v", ty.statuses)
	}
}

func TestEmulatedSpinServersProduceFlips(t *testing.T) {
	w := testWorld(100_000)
	r := mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 7, Workers: 2})
	// For every spin-flip connection, the server's ground truth must be a
	// flipping mode (spin or grease) — zero/one servers must never flip.
	for i := range r.Domains {
		for j := range r.Domains[i].Conns {
			c := &r.Domains[i].Conns[j]
			if !c.HasFlips() {
				continue
			}
			srv := w.ServerAt(c.IP)
			if srv == nil {
				t.Fatalf("flip conn with unknown server %v", c.IP)
			}
			mode := srv.PolicyForWeek(1).Mode
			if mode == core.ModeZero || mode == core.ModeOne {
				t.Errorf("server %v mode %v produced flips", c.IP, mode)
			}
		}
	}
}

func TestEmulatedSpinRTTSamples(t *testing.T) {
	w := testWorld(50_000)
	r := mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 3, Workers: 4})
	samples := 0
	accurate := 0
	for i := range r.Domains {
		for j := range r.Domains[i].Conns {
			c := &r.Domains[i].Conns[j]
			if !c.HasFlips() || len(c.StackRTTs) == 0 {
				continue
			}
			rtts := core.SpinRTTs(c.Observations, false)
			srv := w.ServerAt(c.IP)
			for _, s := range rtts {
				samples++
				if s >= srv.BaseRTT/2 && s <= 2*srv.BaseRTT+50*time.Millisecond {
					accurate++
				}
			}
		}
	}
	if samples == 0 {
		t.Fatal("no spin RTT samples across the scan")
	}
	if accurate == 0 {
		t.Error("no spin samples near the network RTT; transfer pacing broken")
	}
}

func TestScanDeterminism(t *testing.T) {
	w := testWorld(200_000)
	a := mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 5, Workers: 3})
	b := mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 5, Workers: 3})
	sameScanResults(t, a, b)
}

// TestScanWorkerInvariance checks the stronger property the campaign
// relies on: per-domain randomness is derived from (Seed, Week, domain),
// so the worker count must not change any measured quantity.
func TestScanWorkerInvariance(t *testing.T) {
	w := testWorld(200_000)
	for _, eng := range []Engine{EngineEmulated, EngineFast} {
		a := mustRun(t, w, Config{Week: 1, Engine: eng, Seed: 5, Workers: 1})
		b := mustRun(t, w, Config{Week: 1, Engine: eng, Seed: 5, Workers: 5})
		sameScanResults(t, a, b)
	}
}

// sameScanResults asserts that two runs agree on everything the analysis
// pipeline consumes. Absolute observation timestamps may differ (each
// worker's virtual clock advances with its own scan order), so spin series
// are compared through their RTT durations.
func sameScanResults(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Domains) != len(b.Domains) {
		t.Fatal("result sizes differ")
	}
	for i := range a.Domains {
		da, db := &a.Domains[i], &b.Domains[i]
		if da.Domain != db.Domain || da.Resolved != db.Resolved || da.DNSErr != db.DNSErr {
			t.Fatalf("domain %s resolution differs between runs", da.Domain)
		}
		if len(da.Conns) != len(db.Conns) {
			t.Fatalf("domain %s: %d vs %d conns", da.Domain, len(da.Conns), len(db.Conns))
		}
		for j := range da.Conns {
			ca, cb := &da.Conns[j], &db.Conns[j]
			if ca.Target != cb.Target || ca.IP != cb.IP || ca.Hop != cb.Hop ||
				ca.Err != cb.Err || ca.QUIC != cb.QUIC || ca.Status != cb.Status ||
				ca.Server != cb.Server || ca.Redirect != cb.Redirect ||
				ca.ZeroPkts != cb.ZeroPkts || ca.OnePkts != cb.OnePkts {
				t.Fatalf("domain %s conn %d differs between runs", da.Domain, j)
			}
			if !reflect.DeepEqual(ca.StackRTTs, cb.StackRTTs) {
				t.Fatalf("domain %s conn %d stack RTTs differ", da.Domain, j)
			}
			ra := core.SpinRTTs(ca.Observations, false)
			rb := core.SpinRTTs(cb.Observations, false)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("domain %s conn %d spin RTT series differ", da.Domain, j)
			}
		}
	}
}

func TestFastScanSmall(t *testing.T) {
	w := testWorld(100_000)
	r := mustRun(t, w, Config{Week: 1, Engine: EngineFast, Seed: 42, Workers: 4})
	ty := tallyResult(r)
	if ty.resolved == 0 || ty.quic == 0 || ty.spin == 0 {
		t.Fatalf("vacuous fast scan: %+v", ty)
	}
	if ty.statuses[301] == 0 || ty.redirectsFollowed == 0 {
		t.Error("fast engine does not follow redirects")
	}
}

// TestEnginesAgree validates the fast engine against the emulated one on
// the aggregate rates the tables report.
func TestEnginesAgree(t *testing.T) {
	w := testWorld(40_000) // ~5.4k zone domains
	em := tallyResult(mustRun(t, w, Config{Week: 1, Engine: EngineEmulated, Seed: 11, Workers: 4}))
	fa := tallyResult(mustRun(t, w, Config{Week: 1, Engine: EngineFast, Seed: 11, Workers: 4}))

	rate := func(ty tally, num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	pairs := []struct {
		name string
		e, f float64
		tol  float64
	}{
		{"resolve", rate(em, em.resolved, em.domains), rate(fa, fa.resolved, fa.domains), 0.02},
		{"quic", rate(em, em.quic, em.resolved), rate(fa, fa.quic, fa.resolved), 0.02},
		{"spin", rate(em, em.spin, em.quic), rate(fa, fa.spin, fa.quic), 0.05},
	}
	for _, p := range pairs {
		if math.Abs(p.e-p.f) > p.tol {
			t.Errorf("%s rate: emulated %.4f vs fast %.4f (tol %.3f)", p.name, p.e, p.f, p.tol)
		}
	}
}

func TestWeekChangesSpinDeployment(t *testing.T) {
	// Servers with windowed deployments must show different spin activity
	// across weeks; stable servers must not.
	w := testWorld(50_000)
	r1 := mustRun(t, w, Config{Week: 1, Engine: EngineFast, Seed: 9, Workers: 2})
	r12 := mustRun(t, w, Config{Week: 12, Engine: EngineFast, Seed: 9, Workers: 2})
	diff := 0
	for i := range r1.Domains {
		if r1.Domains[i].SpinActivity() != r12.Domains[i].SpinActivity() {
			diff++
		}
	}
	if diff == 0 {
		t.Error("spin activity identical across weeks 1 and 12; churn model inert")
	}
}

func TestRedirectTarget(t *testing.T) {
	cases := map[string]string{
		"https://www.example.com/landing": "www.example.com",
		"https://www.example.com":         "www.example.com",
		"http://www.example.com/":         "",
		"":                                "",
		"https://":                        "",
		// Case-insensitive scheme, mixed-case host, explicit port.
		"HTTPS://Host:443/x":              "host",
		"Https://WWW.Example.COM/landing": "www.example.com",
		"https://www.example.com:8443":    "www.example.com",
		// One trailing dot goes, with or without a port.
		"https://www.example.com./x":   "www.example.com",
		"https://WWW.Example.COM.:443": "www.example.com",
		"https://./":                   "",
		// A non-numeric "port" is not a port; nothing is stripped.
		"https://www.example.com:abc/x": "www.example.com:abc",
		"HTTP://www.example.com/":       "",
	}
	for in, want := range cases {
		if got := redirectTarget(in); got != want {
			t.Errorf("redirectTarget(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRedirectPath(t *testing.T) {
	cases := map[string]string{
		"https://www.example.com/landing": "/landing",
		"https://www.example.com":         "/",
		"HTTPS://Host:443/x":              "/x",
		"https://host:8443/a/b?q=1":       "/a/b?q=1",
		"http://www.example.com/x":        "/",
		"":                                "/",
	}
	for in, want := range cases {
		if got := redirectPath(in); got != want {
			t.Errorf("redirectPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConnResultHelpers(t *testing.T) {
	c := &ConnResult{ZeroPkts: 3, OnePkts: 0}
	if c.Kind() != core.KindAllZero {
		t.Errorf("kind = %v", c.Kind())
	}
	c = &ConnResult{ZeroPkts: 0, OnePkts: 2}
	if c.Kind() != core.KindAllOne {
		t.Errorf("kind = %v", c.Kind())
	}
	c = &ConnResult{ZeroPkts: 1, OnePkts: 2}
	if c.Kind() != core.KindFlipping || !c.HasFlips() {
		t.Errorf("kind = %v", c.Kind())
	}
	c = &ConnResult{}
	if c.Kind() != core.KindEmpty {
		t.Errorf("kind = %v", c.Kind())
	}
	c = &ConnResult{StackRTTs: []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}}
	if c.StackMin() != 10*time.Millisecond {
		t.Errorf("StackMin = %v", c.StackMin())
	}
	if (&ConnResult{}).StackMin() != 0 {
		t.Error("empty StackMin != 0")
	}
}

func BenchmarkEmulatedScanPerDomain(b *testing.B) {
	w := testWorld(100_000)
	cfg := Config{Week: 1, Engine: EngineEmulated, Seed: 1, Workers: 1}
	eng := newEmulatedEngine(w, &cfg, testTally(&cfg), nil)
	var s slabs
	var res DomainResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset()
		eng.scanDomain(w.Domains[i%len(w.Domains)], &s, &res)
	}
}

func BenchmarkFastScanPerDomain(b *testing.B) {
	w := testWorld(100_000)
	cfg := Config{Week: 1, Engine: EngineFast, Seed: 1, Workers: 1}
	eng := newFastEngine(w, &cfg, testTally(&cfg), nil)
	var s slabs
	var res DomainResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset()
		eng.scanDomain(w.Domains[i%len(w.Domains)], &s, &res)
	}
}

// mustRun runs a scan, failing the test on config errors.
func mustRun(t testing.TB, w *websim.World, cfg Config) *Result {
	t.Helper()
	r, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
