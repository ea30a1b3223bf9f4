package websim

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/dns"
)

func smallProfile() Profile {
	p := DefaultProfile()
	p.Scale = 20000 // ~137 toplist + ~10.8k zone domains
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallProfile())
	b := Generate(smallProfile())
	if len(a.Domains) != len(b.Domains) {
		t.Fatalf("domain counts differ: %d vs %d", len(a.Domains), len(b.Domains))
	}
	for i := range a.Domains {
		da, db := a.Domains[i], b.Domains[i]
		if da.Name != db.Name || da.V4 != db.V4 || da.V6 != db.V6 || da.Resolves != db.Resolves {
			t.Fatalf("domain %d differs: %+v vs %+v", i, da, db)
		}
	}
	if len(a.Servers()) != len(b.Servers()) {
		t.Fatalf("server counts differ")
	}
}

func TestPopulationShapes(t *testing.T) {
	p := DefaultProfile()
	p.Scale = 5000
	w := Generate(p)

	var top, zone, topResolved, zoneResolved, topQUIC, zoneQUIC int
	for _, d := range w.Domains {
		if d.Toplist {
			top++
			if d.Resolves {
				topResolved++
				if d.Org.QUICHosting {
					topQUIC++
				}
			}
		} else {
			zone++
			if d.Resolves {
				zoneResolved++
				if d.Org.QUICHosting {
					zoneQUIC++
				}
			}
		}
	}
	check := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.3f, want %.3f±%.3f", name, got, want, tol)
		}
	}
	check("toplist resolve rate", float64(topResolved)/float64(top), p.TopResolveRate, 0.05)
	check("zone resolve rate", float64(zoneResolved)/float64(zone), p.ZoneResolveRate, 0.02)
	check("toplist QUIC rate", float64(topQUIC)/float64(topResolved), p.TopQUICRate, 0.06)
	check("zone QUIC rate", float64(zoneQUIC)/float64(zoneResolved), p.ZoneQUICRate, 0.02)
}

func TestServerSpinSharesPerOrg(t *testing.T) {
	p := DefaultProfile()
	p.Scale = 500 // plenty of servers for tight statistics
	w := Generate(p)
	perOrg := map[string][2]int{} // spin, total QUIC servers (v4 only)
	for addr, s := range w.Servers() {
		if !s.QUIC || !addr.Is4() {
			continue
		}
		c := perOrg[s.Org.Name]
		if s.Mode == core.ModeSpin {
			c[0]++
		}
		c[1]++
		perOrg[s.Org.Name] = c
	}
	cf := perOrg["Cloudflare"]
	if cf[0] != 0 {
		t.Errorf("Cloudflare spin servers = %d, want 0", cf[0])
	}
	ho := perOrg["Hostinger"]
	if ho[1] == 0 {
		t.Fatal("no Hostinger servers generated")
	}
	share := float64(ho[0]) / float64(ho[1])
	if share < 0.40 || share > 0.65 {
		t.Errorf("Hostinger spin IP share = %.3f, want ≈0.52", share)
	}
}

func TestDNSBackendServesGeneratedDomains(t *testing.T) {
	w := Generate(smallProfile())
	r := dns.NewResolver(w.DNSBackend(), rand.New(rand.NewSource(1)))
	resolved, nx := 0, 0
	for _, d := range w.Domains[:200] {
		addrs, err := r.Lookup(d.Host(), dns.TypeA)
		if d.Resolves {
			if err != nil {
				t.Fatalf("resolvable domain %s failed: %v", d.Host(), err)
			}
			if addrs[0] != d.V4 {
				t.Fatalf("A(%s) = %v, want %v", d.Host(), addrs[0], d.V4)
			}
			resolved++
		} else {
			if err == nil {
				t.Fatalf("unresolvable domain %s resolved", d.Host())
			}
			nx++
		}
	}
	if resolved == 0 || nx == 0 {
		t.Errorf("test sample vacuous: resolved=%d nx=%d", resolved, nx)
	}
}

func TestASDBAttribution(t *testing.T) {
	w := Generate(smallProfile())
	for _, d := range w.Domains {
		if !d.Resolves {
			continue
		}
		if got := w.ASDB().OrgOf(d.V4); got != d.Org.Name {
			t.Fatalf("OrgOf(%v) = %q, want %q", d.V4, got, d.Org.Name)
		}
		if d.V6.IsValid() {
			if got := w.ASDB().OrgOf(d.V6); got != d.Org.Name {
				t.Fatalf("v6 OrgOf(%v) = %q, want %q", d.V6, got, d.Org.Name)
			}
		}
	}
}

func TestPerDomainV6InheritsV4Deployment(t *testing.T) {
	w := Generate(smallProfile())
	checked := 0
	for _, d := range w.Domains {
		if !d.Resolves || !d.V6.IsValid() || !d.Org.V6PerDomain {
			continue
		}
		v4s, v6s := w.ServerAt(d.V4), w.ServerAt(d.V6)
		if v4s == nil || v6s == nil {
			t.Fatalf("missing server for %s", d.Name)
		}
		if v6s.Mode != v4s.Mode || v6s.QUIC != v4s.QUIC {
			t.Fatalf("%s: v6 server mode %v != v4 mode %v", d.Name, v6s.Mode, v4s.Mode)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no per-domain v6 servers found; test vacuous")
	}
}

func TestPolicyForWeekWindows(t *testing.T) {
	s := &Server{Mode: core.ModeSpin, DisableEveryN: 16, SpinFromWeek: 3, SpinToWeek: 7}
	if got := s.PolicyForWeek(2).Mode; got != core.ModeZero {
		t.Errorf("week 2 mode = %v, want zero", got)
	}
	if got := s.PolicyForWeek(3).Mode; got != core.ModeSpin {
		t.Errorf("week 3 mode = %v, want spin", got)
	}
	if got := s.PolicyForWeek(8).Mode; got != core.ModeZero {
		t.Errorf("week 8 mode = %v, want zero", got)
	}
	open := &Server{Mode: core.ModeSpin, DisableEveryN: 16, SpinFromWeek: 3}
	if got := open.PolicyForWeek(100).Mode; got != core.ModeSpin {
		t.Errorf("no end week: week 100 mode = %v, want spin", got)
	}
	z := &Server{Mode: core.ModeOne, SpinFromWeek: 1, SpinToWeek: 12}
	if got := z.PolicyForWeek(5).Mode; got != core.ModeOne {
		t.Errorf("non-spin mode must be week-independent, got %v", got)
	}
}

// TestSpinOutlivesCampaign: a deployment that never drops spin keeps
// spinning after the profile's last week, so a -follow campaign does not go
// silent once it passes Profile.Weeks.
func TestSpinOutlivesCampaign(t *testing.T) {
	p := DefaultProfile()
	p.Scale = 4000
	w := Generate(p)
	spinning := 0
	for addr, s := range w.Servers() {
		last := s.PolicyForWeek(p.Weeks).Mode
		if last == core.ModeSpin {
			spinning++
		}
		for _, wk := range []int{p.Weeks + 1, p.Weeks + 40} {
			if got := s.PolicyForWeek(wk).Mode; got != last {
				t.Errorf("%v: week %d mode = %v, week %d mode = %v", addr, wk, got, p.Weeks, last)
			}
		}
	}
	if spinning == 0 {
		t.Fatal("no server spins in the last week; test vacuous")
	}
}

func TestProcessingDelayDistribution(t *testing.T) {
	p := DefaultProfile()
	w := Generate(Profile{
		Seed: 1, Scale: 1, TopDomains: 1, ZoneDomains: 1,
		TopResolveRate: 1, ZoneResolveRate: 1, TopQUICRate: 1, ZoneQUICRate: 1,
		Weeks: 1, QUICOrgs: p.QUICOrgs[3:4], // Hostinger
		BodyMinBytes: 1000, BodyMaxBytes: 2000,
	})
	var srv *Server
	for _, s := range w.Servers() {
		srv = s
		break
	}
	rng := rand.New(rand.NewSource(9))
	fast, slow := 0, 0
	for i := 0; i < 5000; i++ {
		d := srv.ProcessingDelay(rng)
		if d <= 0 {
			t.Fatal("non-positive processing delay")
		}
		if d <= 18*time.Millisecond {
			fast++
		}
		if d > 200*time.Millisecond {
			slow++
		}
	}
	if fast < 1200 || fast > 2200 {
		t.Errorf("fast responses = %d/5000, want ≈33%%", fast)
	}
	if slow == 0 {
		t.Error("no heavy-tail delays drawn")
	}
}

// TestAppendResponsePlan: planning into a reused slice appends exactly the
// chunks ResponsePlan returns, after what dst holds, and draws the same dice
// (the rng is in the same state afterwards); with room it allocates nothing.
func TestAppendResponsePlan(t *testing.T) {
	p := smallProfile()
	w := Generate(p)
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	dst := make([]Chunk, 0, 8)
	chunked := 0
	for _, srv := range w.Servers() {
		for _, total := range []int{0, 1, 3, 2047, 2048, 4096, 1 << 20} {
			want := srv.ResponsePlan(a, total)
			dst = append(dst[:0], Chunk{At: -1, Bytes: -1})
			dst = srv.AppendResponsePlan(dst, b, total)
			if dst[0] != (Chunk{At: -1, Bytes: -1}) || len(dst)-1 != len(want) {
				t.Fatalf("AppendResponsePlan(%d) = %v, want %v after the prefix", total, dst, want)
			}
			for i := range want {
				if dst[1+i] != want[i] {
					t.Fatalf("AppendResponsePlan(%d) = %v, want %v after the prefix", total, dst, want)
				}
			}
			if len(want) > 1 {
				chunked++
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("AppendResponsePlan(%d) left the rng elsewhere than ResponsePlan", total)
			}
		}
	}
	if chunked == 0 {
		t.Fatal("vacuous: no dynamic (chunked) plan drawn")
	}
	var srv *Server
	for _, s := range w.Servers() {
		srv = s
		break
	}
	if n := testing.AllocsPerRun(100, func() { dst = srv.AppendResponsePlan(dst[:0], a, 1<<20) }); n != 0 {
		t.Errorf("AppendResponsePlan with room allocates %.1f times, want 0", n)
	}
}

func TestRedirectAssignment(t *testing.T) {
	p := DefaultProfile()
	p.Scale = 2000
	w := Generate(p)
	self, cross := 0, 0
	for _, d := range w.Domains {
		switch {
		case d.RedirectTo == "":
		case d.RedirectTo == d.Name:
			self++
		default:
			cross++
			tgt := w.DomainByHost("www." + d.RedirectTo)
			if tgt == nil || !tgt.Resolves {
				t.Fatalf("cross redirect %s → %s targets unknown domain", d.Name, d.RedirectTo)
			}
		}
	}
	if self == 0 || cross == 0 {
		t.Errorf("redirects: self=%d cross=%d; want both > 0", self, cross)
	}
}

func TestHelpers(t *testing.T) {
	if !ComNetOrg("com") || !ComNetOrg("net") || !ComNetOrg("org") || ComNetOrg("info") {
		t.Error("ComNetOrg wrong")
	}
	if !InZoneView("xyz") || InZoneView("de") {
		t.Error("InZoneView wrong")
	}
	a := v4At(netip.MustParsePrefix("32.0.0.0/12"), 5)
	if a != netip.MustParseAddr("32.0.0.5") {
		t.Errorf("v4At = %v", a)
	}
	if scaled(10, 3) != 3 || scaled(1, 100) != 1 {
		t.Error("scaled wrong")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := logUniform(rng, 10, 100)
		if v < 10 || v > 100 {
			t.Fatalf("logUniform out of range: %v", v)
		}
	}
}
