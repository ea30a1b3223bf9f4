package websim

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// TestStoragesAgreeOnLookups asks both storages of one profile the same
// questions, hits and misses, and requires equal answers: every sampled
// domain's host and addresses, and names and addresses that lie just
// outside what the world's layout encodes. The one permitted difference is
// named below.
func TestStoragesAgreeOnLookups(t *testing.T) {
	for _, frac := range []float64{0, 0.3} {
		p := DefaultProfile()
		p.Scale = 4000
		p.HostileFrac = frac
		eager, lazy := Generate(p), GenerateLazy(p)
		ez, lz := eager.DNSBackend(), lazy.DNSBackend()
		orgIndex := map[*Org]int{}
		for i := range eager.Orgs {
			orgIndex[eager.Orgs[i]], orgIndex[lazy.Orgs[i]] = i, i
		}

		// zone looks name up in both storages and returns whether it exists.
		zone := func(name string) bool {
			t.Helper()
			erec, eok := ez.Zone(name)
			lrec, lok := lz.Zone(name)
			if eok != lok || !reflect.DeepEqual(erec, lrec) {
				t.Fatalf("frac %v: zone of %q: eager %v %v, lazy %v %v", frac, name, erec, eok, lrec, lok)
			}
			ed, ld := eager.DomainByHost(name), lazy.DomainByHost(name)
			if (ed == nil) != (ld == nil) || ed != nil && (ed.Name != ld.Name || ed.V4 != ld.V4 || ed.V6 != ld.V6) {
				t.Fatalf("frac %v: DomainByHost(%q): eager %+v, lazy %+v", frac, name, ed, ld)
			}
			return eok
		}
		// server looks addr up in both storages and returns whether a
		// server answers there.
		server := func(addr netip.Addr) bool {
			t.Helper()
			es, ls := eager.ServerAt(addr), lazy.ServerAt(addr)
			if (es == nil) != (ls == nil) {
				t.Fatalf("frac %v: ServerAt(%v): eager %+v, lazy %+v", frac, addr, es, ls)
			}
			if es == nil {
				return false
			}
			e, l := *es, *ls
			if orgIndex[e.Org] != orgIndex[l.Org] || e.Addr != addr {
				t.Fatalf("frac %v: ServerAt(%v): eager org %s at %v, lazy org %s", frac, addr, e.Org.Name, e.Addr, l.Org.Name)
			}
			e.Org, l.Org = nil, nil
			if e != l {
				t.Fatalf("frac %v: ServerAt(%v): eager %+v, lazy %+v", frac, addr, e, l)
			}
			return true
		}

		n := eager.NumDomains()
		resolved := map[netip.Addr]bool{}
		var some, perDomain, noAAAA *Domain
		perDomainIndex, noAAAAIndex := 0, 0
		for i := 0; i < n; i++ {
			d := eager.DomainAt(i)
			if d.Resolves {
				resolved[d.V4] = true
				resolved[d.V6] = true
			}
			if i%(n/500+1) == 0 {
				if zone(d.Host()) != d.Resolves {
					t.Fatalf("frac %v: %s resolves %v, but its zone says otherwise", frac, d.Host(), d.Resolves)
				}
				if d.Resolves && (!server(d.V4) || d.V6.IsValid() && !server(d.V6)) {
					t.Fatalf("frac %v: no server at an address of %s", frac, d.Host())
				}
			}
			switch {
			case !d.Resolves:
			case some == nil:
				some = d
			case d.Org.V6PerDomain && d.V6.IsValid() && perDomain == nil:
				perDomain, perDomainIndex = d, i
			case d.Org.V6PerDomain && !d.V6.IsValid() && noAAAA == nil:
				noAAAA, noAAAAIndex = d, i
			}
		}
		if some == nil || perDomain == nil || noAAAA == nil {
			t.Fatalf("frac %v: vacuous sample: resolving %v, per-domain v6 %v, per-domain org without AAAA %v", frac, some, perDomain, noAAAA)
		}

		otherTLD := "com"
		if some.TLD == "com" {
			otherTLD = "net"
		}
		for _, name := range []string{
			strings.TrimSuffix(some.Host(), some.TLD) + otherTLD, // a wrong TLD
			fmt.Sprintf("www.top%d.com", eager.topN),             // an index past topN
			fmt.Sprintf("www.site%d.com", eager.zoneN),           // an index past zoneN
			"www.site07.com", // a non-canonical spelling of an index
			some.Name,        // no www.
			"www.bogus7.net", // neither top nor site
		} {
			if zone(name) {
				t.Errorf("frac %v: %q resolves", frac, name)
			}
		}

		o := eager.Orgs[0]
		var otherPerDomain *Org
		for _, po := range eager.Orgs {
			if po.V6PerDomain && po != perDomain.Org {
				otherPerDomain = po
				break
			}
		}
		if otherPerDomain == nil {
			t.Fatalf("frac %v: vacuous: one per-domain v6 org", frac)
		}
		past := len(eager.Orgs)
		for _, addr := range []netip.Addr{
			// Below the first org's block, and past the last org's.
			netip.MustParseAddr("31.255.255.255"),
			netip.AddrFrom4([4]byte{32 + byte(past>>4), byte(past<<4) & 0xf0, 0, 1}),
			netip.AddrFrom16(v6base(uint16(past))).Next(),
			// Pool host 0, and one past the pool.
			v4At(o.V4Prefix, 0),
			v4At(o.V4Prefix, uint32(len(o.v4Pool))+1),
			v6At(o.V6Prefix, 0),
			v6At(o.V6Prefix, uint64(len(o.v6Pool))+1),
			// The IPv4-mapped form of a pooled address.
			netip.AddrFrom16(some.V4.As16()),
			// Per-domain v6 host 0; the address of a domain without AAAA;
			// a domain's address in another per-domain org's block.
			v6At(perDomain.Org.V6Prefix, 0),
			v6At(noAAAA.Org.V6Prefix, uint64(noAAAAIndex)+1),
			v6At(otherPerDomain.V6Prefix, uint64(perDomainIndex)+1),
		} {
			if server(addr) {
				t.Errorf("frac %v: a server answers at %v", frac, addr)
			}
		}

		// The difference: a pooled address no domain resolves to holds no
		// server on the materialised world, which stores only the servers
		// its domains reach, while the on-demand world synthesises one at
		// any pooled address.
		unused := 0
		for _, o := range eager.Orgs {
			for _, addr := range append(append([]netip.Addr(nil), o.v4Pool...), o.v6Pool...) {
				if resolved[addr] {
					continue
				}
				unused++
				if eager.ServerAt(addr) != nil || lazy.ServerAt(addr) == nil {
					t.Fatalf("frac %v: unresolved pool address %v: eager %v, lazy %v", frac, addr, eager.ServerAt(addr), lazy.ServerAt(addr))
				}
			}
		}
		if unused == 0 {
			t.Errorf("frac %v: vacuous: every pooled address is resolved to", frac)
		}
	}
}

// TestLookupsZeroAlloc pins the materialised world's per-domain lookups at
// zero allocations: the zone answer for a host, and the server at a v4, a
// pooled v6 and a per-domain v6 address, each decoded from the name or the
// address. scripts/check.sh also runs it without the race detector.
func TestLookupsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := DefaultProfile()
	p.Scale = 4000
	w := Generate(p)
	var pooled, perDomain *Domain
	for _, d := range w.Domains {
		switch {
		case !d.Resolves || !d.V6.IsValid():
		case d.Org.V6PerDomain && perDomain == nil:
			perDomain = d
		case !d.Org.V6PerDomain && pooled == nil:
			pooled = d
		}
	}
	if pooled == nil || perDomain == nil {
		t.Fatal("vacuous: no domain with a pooled or a per-domain v6 address")
	}
	zone := w.DNSBackend()
	for name, f := range map[string]func() bool{
		"Zone":                    func() bool { _, ok := zone.Zone(pooled.Host()); return ok },
		"ServerAt(v4)":            func() bool { return w.ServerAt(pooled.V4) != nil },
		"ServerAt(pooled v6)":     func() bool { return w.ServerAt(pooled.V6) != nil },
		"ServerAt(per-domain v6)": func() bool { return w.ServerAt(perDomain.V6) != nil },
	} {
		if !f() {
			t.Fatalf("%s missed", name)
		}
		if n := testing.AllocsPerRun(100, func() { f() }); n != 0 {
			t.Errorf("%s allocates %.1f times, want 0", name, n)
		}
	}
}
