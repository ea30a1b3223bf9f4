package scanner

import (
	"sync"
	"testing"

	"quicspin/internal/dns"
	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/websim"
)

// TestEngineResolverMemoBounded: an engine's DNS memo serves one domain's
// redirect chain and nothing more. After a scanned week every host of the
// last domain's chain is still a hit, every other host the week resolved
// is a miss, and the memo did answer redirects within chains.
func TestEngineResolverMemoBounded(t *testing.T) {
	w := testWorld(200_000)
	for name, engine := range map[string]Engine{"fast": EngineFast, "emulated": EngineEmulated} {
		cfg := Config{Week: 3, Engine: engine, Seed: 4, Workers: 1}
		var resolver *dns.Resolver
		eng := buildEngine(w, &cfg, testTally(&cfg), nil)
		switch e := eng.(type) {
		case *fastEngine:
			resolver = e.resolver
		case *emulatedEngine:
			resolver = e.resolver
		}
		scanned := map[string]bool{}
		var chain map[string]bool
		var s slabs
		var res DomainResult
		for i := 0; i < w.NumDomains(); i++ {
			d := w.DomainAt(i)
			s.reset()
			eng.scanDomain(d, &s, &res)
			chain = map[string]bool{d.Host(): true}
			for _, c := range res.Conns {
				chain[c.Target] = true
			}
			for h := range chain {
				scanned[h] = true
			}
		}
		st := resolver.Stats()
		if st.CacheHits == 0 {
			t.Errorf("%s: no memo hit in a week of redirect chains", name)
		}
		lookup := func(host string) (hit bool) {
			before := resolver.Stats().CacheHits
			resolver.Lookup(host, dns.TypeA)
			return resolver.Stats().CacheHits > before
		}
		for h := range chain {
			if !lookup(h) {
				t.Errorf("%s: %s, of the last domain's chain, is not memoised", name, h)
			}
		}
		misses := 0
		for h := range scanned {
			if chain[h] {
				continue
			}
			if lookup(h) {
				t.Fatalf("%s: %s, of an earlier domain, is still memoised", name, h)
			}
			misses++
		}
		t.Logf("%s: %d queries, %d memo hits in the week; %d earlier hosts all missed", name, st.Queries, st.CacheHits, misses)
	}
}

// TestResolvedNamesAreCanonical: the resolver queries a name as it is given,
// so every name the engines resolve, landing hosts and redirect targets
// alike, must already be canonical. A recording zone in front of the
// world's sees every query of a hostile, redirecting week with injected DNS
// timeouts and retries, on both engines.
func TestResolvedNamesAreCanonical(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 40_000, 0.3
	w := websim.Generate(p)
	for _, eng := range []Engine{EngineFast, EngineEmulated} {
		z := &recordingZone{inner: w.DNSBackend(), names: map[string]bool{}}
		cfg := Config{Week: 5, Engine: eng, Seed: 6, Workers: 3, zone: z,
			Retry: resilience.RetryPolicy{MaxRetries: 1},
			Faults: fault.New(4,
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.3, Times: 1},
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.1, Times: 2})}
		redirects, dnsErrs := 0, 0
		if err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
			if len(d.Conns) > 0 && d.Conns[0].Redirect != "" {
				redirects++
			}
			if d.DNSErr != "" {
				dnsErrs++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if redirects == 0 || dnsErrs == 0 || len(z.names) < w.NumDomains()/2 {
			t.Fatalf("engine %v: vacuous: %d redirected landings, %d DNS failures, %d names resolved", eng, redirects, dnsErrs, len(z.names))
		}
		for name := range z.names {
			if name != dns.Normalize(name) {
				t.Errorf("engine %v: resolved %q, which is not canonical (%q)", eng, name, dns.Normalize(name))
			}
		}
	}
}

// recordingZone answers like its inner zone and records every queried name.
type recordingZone struct {
	inner dns.Backend
	mu    sync.Mutex
	names map[string]bool
}

func (z *recordingZone) Zone(name string) (dns.Record, bool) {
	z.mu.Lock()
	z.names[name] = true
	z.mu.Unlock()
	return z.inner.Zone(name)
}
