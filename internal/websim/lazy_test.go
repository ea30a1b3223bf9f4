package websim

import (
	"net/netip"
	"reflect"
	"testing"
)

func lazyTestWorld() *World {
	p := DefaultProfile()
	p.Scale = 20000
	return GenerateLazy(p)
}

// Lazy synthesis must be a pure function of (seed, index): repeated
// lookups of the same domain agree in every field, including redirects.
func TestLazyDomainAtRepeatable(t *testing.T) {
	w := lazyTestWorld()
	n := w.NumDomains()
	if n == 0 {
		t.Fatal("empty lazy population")
	}
	step := n/200 + 1
	for i := 0; i < n; i += step {
		a, b := w.DomainAt(i), w.DomainAt(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("domain %d not repeatable: %+v vs %+v", i, a, b)
		}
	}
}

// Generate materialises the on-demand world: for the same profile both
// storages share the org layer (org draws precede all keyed synthesis) and
// hold the same domains, zone records and servers, with or without hostile
// deployments.
func TestLazyOrgLayerMatchesEager(t *testing.T) {
	for _, frac := range []float64{0, 0.3} {
		p := DefaultProfile()
		p.Scale = 4000
		p.HostileFrac = frac
		eager, lazy := Generate(p), GenerateLazy(p)
		if len(eager.Orgs) != len(lazy.Orgs) {
			t.Fatalf("org count: eager %d lazy %d", len(eager.Orgs), len(lazy.Orgs))
		}
		orgIndex := map[*Org]int{}
		for i := range eager.Orgs {
			e, l := eager.Orgs[i], lazy.Orgs[i]
			if e.Name != l.Name || e.V4Prefix != l.V4Prefix || e.V6Prefix != l.V6Prefix ||
				len(e.v4Pool) != len(l.v4Pool) || len(e.v6Pool) != len(l.v6Pool) || !reflect.DeepEqual(e, l) {
				t.Errorf("org %d differs: eager %s lazy %s", i, e.Name, l.Name)
			}
			orgIndex[e], orgIndex[l] = i, i
		}
		if eager.NumDomains() != lazy.NumDomains() || len(eager.Domains) != eager.NumDomains() {
			t.Fatalf("population: eager %d (%d materialised) lazy %d",
				eager.NumDomains(), len(eager.Domains), lazy.NumDomains())
		}
		// The orgs are equal; compare everything else with them detached,
		// so each comparison does not walk an org again.
		same := func(a, b any, aOrg, bOrg **Org) bool {
			ao, bo := *aOrg, *bOrg
			*aOrg, *bOrg = nil, nil
			eq := (ao == nil) == (bo == nil) && (ao == nil || orgIndex[ao] == orgIndex[bo]) && reflect.DeepEqual(a, b)
			*aOrg, *bOrg = ao, bo
			return eq
		}
		ez, lz := eager.DNSBackend(), lazy.DNSBackend()
		resolved := map[netip.Addr]bool{}
		for i := 0; i < eager.NumDomains(); i++ {
			e, l := *eager.DomainAt(i), *lazy.DomainAt(i)
			if !same(&e, &l, &e.Org, &l.Org) {
				t.Fatalf("frac %v: domain %d differs:\n eager %+v\n lazy  %+v", frac, i, e, l)
			}
			erec, eok := ez.Zone(e.Host())
			lrec, lok := lz.Zone(e.Host())
			if eok != lok || !reflect.DeepEqual(erec, lrec) {
				t.Fatalf("frac %v: zone of %s differs: eager %v %v lazy %v %v", frac, e.Host(), erec, eok, lrec, lok)
			}
			if e.Resolves {
				resolved[e.V4] = true
				if e.V6.IsValid() {
					resolved[e.V6] = true
				}
			}
		}
		if len(eager.Servers()) != len(resolved) {
			t.Errorf("frac %v: %d servers materialised, domains resolve to %d addresses", frac, len(eager.Servers()), len(resolved))
		}
		for addr, s := range eager.Servers() {
			l := lazy.ServerAt(addr)
			if !resolved[addr] || l == nil || !same(s, l, &s.Org, &l.Org) {
				t.Fatalf("frac %v: server %s differs:\n eager %+v\n lazy  %+v", frac, addr, s, l)
			}
		}
	}
}

// DomainByHost must invert DomainAt across the whole population, and
// reject names that were never generated.
func TestLazyDomainByHostRoundTrip(t *testing.T) {
	w := lazyTestWorld()
	n := w.NumDomains()
	step := n/500 + 1
	for i := 0; i < n; i += step {
		d := w.DomainAt(i)
		got := w.DomainByHost(d.Host())
		if got == nil {
			t.Fatalf("domain %d (%s) not found by host", i, d.Host())
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("domain %d round trip differs: %+v vs %+v", i, got, d)
		}
	}
	for _, miss := range []string{"www.top0.example", "nope", "www.site99999999.com", "www.bogus7.net"} {
		if d := w.DomainByHost(miss); d != nil && d.Name == miss {
			t.Errorf("unexpected hit for %q", miss)
		}
	}
}

// DNS answers must agree with the domain's synthesised addresses.
func TestLazyDNSConsistency(t *testing.T) {
	w := lazyTestWorld()
	zone := w.DNSBackend()
	n := w.NumDomains()
	step := n/500 + 1
	for i := 0; i < n; i += step {
		d := w.DomainAt(i)
		rec, ok := zone.Zone(d.Host())
		if !d.Resolves {
			if ok {
				t.Fatalf("NXDOMAIN %s resolved", d.Host())
			}
			continue
		}
		if !ok {
			t.Fatalf("resolving domain %s has no zone record", d.Host())
		}
		if d.V4.IsValid() != (len(rec.A) == 1) || (d.V4.IsValid() && rec.A[0] != d.V4) {
			t.Fatalf("%s A record mismatch: %v vs %v", d.Host(), rec.A, d.V4)
		}
		if d.V6.IsValid() != (len(rec.AAAA) == 1) || (d.V6.IsValid() && rec.AAAA[0] != d.V6) {
			t.Fatalf("%s AAAA record mismatch: %v vs %v", d.Host(), rec.AAAA, d.V6)
		}
	}
}

// Every address a domain resolves to must host a consistent server: same
// deployment on repeated lookups, org matching the owning prefix, and the
// per-domain v6 address fronting the same stack as the domain's v4 server.
func TestLazyServerConsistency(t *testing.T) {
	w := lazyTestWorld()
	n := w.NumDomains()
	step := n/500 + 1
	checked := 0
	for i := 0; i < n; i += step {
		d := w.DomainAt(i)
		if !d.V4.IsValid() {
			continue
		}
		s := w.ServerAt(d.V4)
		if s == nil {
			t.Fatalf("domain %s: no server at %s", d.Name, d.V4)
		}
		if !reflect.DeepEqual(s, w.ServerAt(d.V4)) {
			t.Fatalf("server at %s not repeatable", d.V4)
		}
		if s.Org != d.Org {
			t.Fatalf("server org %s != domain org %s", s.Org.Name, d.Org.Name)
		}
		if s.QUIC != d.Org.QUICHosting {
			t.Fatalf("server QUIC %v != org hosting %v", s.QUIC, d.Org.QUICHosting)
		}
		if d.V6.IsValid() && d.Org.V6PerDomain {
			s6 := w.ServerAt(d.V6)
			if s6 == nil {
				t.Fatalf("domain %s: no server at per-domain v6 %s", d.Name, d.V6)
			}
			if s6.Mode != s.Mode || s6.BaseRTT != s.BaseRTT || s6.Software != s.Software {
				t.Fatalf("per-domain v6 server diverges from v4: %+v vs %+v", s6, s)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no resolving domains sampled")
	}
}

// Cross-host redirect targets must themselves exist, resolve, and host
// QUIC: a drawn target that does not becomes a canonical-self redirect.
func TestLazyRedirectTargetsValid(t *testing.T) {
	// A QUIC domain redirects cross-host with probability redirect × cross
	// × QUIC target ≈ 0.1 × 0.15 × 0.1, so the scale-20000 world expects
	// fewer than two; scale 2000 expects about 17.
	p := DefaultProfile()
	p.Scale = 2000
	w := GenerateLazy(p)
	n := w.NumDomains()
	cross := 0
	for i := 0; i < n && cross < 50; i++ {
		d := w.DomainAt(i)
		if d.RedirectTo == "" || d.RedirectTo == d.Name {
			continue
		}
		cross++
		tgt := w.DomainByHost("www." + d.RedirectTo)
		if tgt == nil {
			t.Fatalf("redirect target %s of %s does not exist", d.RedirectTo, d.Name)
		}
		if !tgt.Resolves || tgt.Org == nil || !tgt.Org.QUICHosting {
			t.Fatalf("redirect target %s is not a QUIC host", d.RedirectTo)
		}
	}
	if cross == 0 {
		t.Error("no cross-host redirects found in lazy population")
	}
}

// The on-demand population's aggregate shape (resolve/QUIC rates) must
// stay in the profile's statistical neighbourhood.
func TestLazyPopulationShape(t *testing.T) {
	w := lazyTestWorld()
	n := w.NumDomains()
	resolved, quic := 0, 0
	for i := 0; i < n; i++ {
		d := w.DomainAt(i)
		if d.Resolves {
			resolved++
			if d.Org != nil && d.Org.QUICHosting {
				quic++
			}
		}
	}
	resRate := float64(resolved) / float64(n)
	if resRate < 0.40 || resRate > 0.90 {
		t.Errorf("resolve rate %.3f outside plausible band", resRate)
	}
	quicRate := float64(quic) / float64(resolved)
	if quicRate < 0.05 || quicRate > 0.60 {
		t.Errorf("QUIC rate %.3f outside plausible band", quicRate)
	}
}

// BenchmarkLazyDomainAt is the on-demand world's per-domain cost: every
// DomainAt synthesises the domain (and a cross-host redirect target's base)
// from keyed streams.
func BenchmarkLazyDomainAt(b *testing.B) {
	w := lazyTestWorld()
	n := w.NumDomains()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		domainSink = w.DomainAt(i % n)
	}
}

// domainSink keeps BenchmarkLazyDomainAt's result live.
var domainSink *Domain
