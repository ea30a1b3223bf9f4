package scanner

import (
	"testing"

	"quicspin/internal/dns"
	"quicspin/internal/fault"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// A failed lookup is recorded as a dns.Failure and classified by its kind;
// a connection's failure text by setErr, from fixedErrs when it is one of
// the engines' fixed texts.

// TestDNSClassMatchesText: over a seeded week with hostile servers, injected
// DNS timeouts and retries, on both engines and in both address families,
// every failed lookup's class by kind is what resilience.Classify makes of
// its spelled text.
func TestDNSClassMatchesText(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 40_000, 0.3
	w := websim.Generate(p)
	kinds := map[dns.Kind]int{}
	for _, eng := range []Engine{EngineFast, EngineEmulated} {
		for _, v6 := range []bool{false, true} {
			cfg := Config{Week: 6, Engine: eng, IPv6: v6, Seed: 7, Workers: 2,
				Retry: resilience.RetryPolicy{MaxRetries: 2},
				Faults: fault.New(5,
					fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.3, Times: 2},
					fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.1, Times: 3})}
			if err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
				if d.DNSErr.IsZero() {
					return nil
				}
				kinds[d.DNSErr.Kind]++
				if got, want := classifyDomain(d), resilience.Classify(d.DNSErr.Error()); got != want {
					t.Fatalf("engine %v, IPv6 %v: %s: class %v by kind, %v by text %q", eng, v6, d.Domain, got, want, d.DNSErr)
				}
				if d.DNSErr.Name != "www."+d.Domain {
					t.Fatalf("engine %v, IPv6 %v: %s: the landing lookup's failure names %q", eng, v6, d.Domain, d.DNSErr.Name)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if kinds[dns.NXDomain] == 0 || kinds[dns.Timeout] == 0 || kinds[dns.NoRecord] == 0 {
		t.Fatalf("vacuous: failures by kind %v", kinds)
	}
}

// TestFixedErrs: the table setErr reads holds every fixed text with the
// class and profile the text classifies as, and a fast week with hostile
// servers and blackouts writes no failure text outside it.
func TestFixedErrs(t *testing.T) {
	if want := 2 + int(hostile.NumProfiles-1) + 4; len(fixedErrs) != want {
		t.Errorf("fixedErrs holds %d texts, want %d", len(fixedErrs), want)
	}
	for text, e := range fixedErrs {
		cls := resilience.Classify(text)
		prof := hostile.None
		if cls == resilience.ClassHostile {
			prof = hostile.ProfileOf(text)
		}
		if e.class != cls || e.profile != prof || cls == resilience.ClassOther {
			t.Errorf("%q: table says %v/%v, the text %v/%v", text, e.class, e.profile, cls, prof)
		}
	}
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 40_000, 0.3
	cfg := Config{Week: 6, Engine: EngineFast, Seed: 7, Workers: 2,
		Retry:  resilience.RetryPolicy{MaxRetries: 1},
		Faults: fault.New(5, fault.Rule{Site: fault.Net, Kind: fault.Blackout, P: 0.3, Times: 1})}
	failed := 0
	if err := RunStream(websim.Generate(p), cfg, func(_ int, d *DomainResult) error {
		for _, c := range d.Conns {
			if c.Err == "" {
				continue
			}
			failed++
			if _, ok := fixedErrs[c.Err]; !ok {
				t.Fatalf("%s: the fast engine wrote %q, which fixedErrs lacks", d.Domain, c.Err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if failed == 0 {
		t.Fatal("vacuous: no failed connection")
	}
}

// TestNXDomainChainAllocs: the fast engine's chain for a domain that does not
// resolve allocates nothing; its failure names the host the domain holds.
func TestNXDomainChainAllocs(t *testing.T) {
	w := testWorld(200_000)
	var d *websim.Domain
	for i := 0; i < w.NumDomains() && d == nil; i++ {
		if c := w.DomainAt(i); !c.Resolves {
			d = c
		}
	}
	if d == nil {
		t.Fatal("no unresolvable domain")
	}
	cfg := Config{Week: 3, Engine: EngineFast, Seed: 1, Workers: 1, Telemetry: telemetry.New()}
	e := newFastEngine(w, &cfg, testTally(&cfg), nil)
	var s slabs
	var res DomainResult
	e.runChain(d, &s, &res) // warm: the resolver's memo
	if n := testing.AllocsPerRun(100, func() { e.runChain(d, &s, &res) }); n != 0 {
		t.Errorf("an NXDOMAIN domain's chain allocates %.1f times, want 0", n)
	}
	if res.DNSErr != (dns.Failure{Kind: dns.NXDomain, Name: d.Host()}) || res.Resolved || res.Conns != nil {
		t.Errorf("%s: result %+v, want an NXDOMAIN failure naming %s", d.Name, res, d.Host())
	}
}

// TestKeptResultPoisonedAcrossRuns: a run takes the batch set the run before
// it gave back, and poisons it again before giving it back. So with recycled
// batches poisoned, a result a sink kept past the first of two runs reads
// poison after the second run as well, which scanned into the same storage.
func TestKeptResultPoisonedAcrossRuns(t *testing.T) {
	withPoison(t)
	w := testWorld(100_000)
	cfg := Config{Week: 2, Engine: EngineFast, Seed: 3, Workers: 1}
	var kept []*DomainResult
	if err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
		kept = append(kept, d) // breaks the contract on purpose
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	first := map[*DomainResult]bool{}
	for _, d := range kept {
		if d.Domain != poisoned || d.DNSErr.Name != poisoned {
			t.Fatalf("a result kept past its run reads %q, want poison", d.Domain)
		}
		first[d] = true
	}
	shared := 0
	if err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
		if first[d] {
			shared++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if shared == 0 {
		t.Fatal("the second run scanned into none of the first run's storage")
	}
	for _, d := range kept {
		if d.Domain != poisoned || d.DNSErr.Name != poisoned {
			t.Fatalf("a result kept past the first run reads %q after the second, want poison", d.Domain)
		}
	}
}
