package scanner

import (
	"testing"

	"quicspin/internal/dns"
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
