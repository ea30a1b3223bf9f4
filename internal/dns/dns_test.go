package dns

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"quicspin/internal/fault"
)

// mapBackend is a Backend over a plain map.
type mapBackend map[string]Record

func (m mapBackend) Zone(name string) (Record, bool) {
	r, ok := m[name]
	return r, ok
}

func backend() mapBackend {
	return mapBackend{
		"www.example.com": {
			A:    []netip.Addr{netip.MustParseAddr("192.0.2.1")},
			AAAA: []netip.Addr{netip.MustParseAddr("2001:db8::1")},
		},
		"v4only.example.com": {A: []netip.Addr{netip.MustParseAddr("192.0.2.2")}},
	}
}

func TestLookupA(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	addrs, err := r.Lookup("www.example.com", TypeA)
	if err != nil || len(addrs) != 1 || addrs[0] != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("Lookup = (%v, %v)", addrs, err)
	}
	addrs, err = r.Lookup("www.example.com", TypeAAAA)
	if err != nil || addrs[0] != netip.MustParseAddr("2001:db8::1") {
		t.Fatalf("AAAA = (%v, %v)", addrs, err)
	}
}

func TestNormalization(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	if _, err := r.Lookup("WWW.Example.COM.", TypeA); err != nil {
		t.Errorf("case/dot-normalised lookup failed: %v", err)
	}
	if Normalize("Foo.Bar.") != "foo.bar" {
		t.Errorf("Normalize = %q", Normalize("Foo.Bar."))
	}
}

func TestNXDomain(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	_, err := r.Lookup("missing.example.com", TypeA)
	if !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v, want NXDOMAIN", err)
	}
}

func TestNoRecord(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	_, err := r.Lookup("v4only.example.com", TypeAAAA)
	if !errors.Is(err, ErrNoRecord) {
		t.Errorf("err = %v, want ErrNoRecord", err)
	}
}

func TestTimeoutInjection(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(42)))
	r.TimeoutRate = 0.5
	timeouts := 0
	for i := 0; i < 1000; i++ {
		if _, err := r.Lookup("www.example.com", TypeA); errors.Is(err, ErrTimeout) {
			timeouts++
		}
	}
	if timeouts < 400 || timeouts > 600 {
		t.Errorf("timeouts = %d/1000, want ~500", timeouts)
	}
	st := r.Stats()
	if st.Queries != 1000 || st.Timeouts != timeouts || st.Resolved != 1000-timeouts {
		t.Errorf("stats = %+v", st)
	}
}

// lookups are the two ways to resolve: a fresh slice from Lookup, and
// AppendLookup into storage the caller owns (here a reused array).
func lookups(r *Resolver) map[string]func(name string, t RType) ([]netip.Addr, error) {
	var own [2]netip.Addr
	return map[string]func(string, RType) ([]netip.Addr, error){
		"Lookup": r.Lookup,
		"AppendLookup": func(name string, t RType) ([]netip.Addr, error) {
			return r.AppendLookup(own[:0], name, t, 0)
		},
	}
}

func TestResultIsACopy(t *testing.T) {
	for name, lookup := range lookups(NewResolver(backend(), rand.New(rand.NewSource(1)))) {
		t.Run(name, func(t *testing.T) {
			addrs, _ := lookup("www.example.com", TypeA)
			addrs[0] = netip.MustParseAddr("203.0.113.99")
			again, _ := lookup("www.example.com", TypeA)
			if again[0] != netip.MustParseAddr("192.0.2.1") {
				t.Error("Lookup result aliases backend data")
			}
		})
	}
}

// AppendLookup appends after what dst holds, leaves dst alone on an error
// and, with room in dst, allocates nothing once the memo is warm.
func TestAppendLookup(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	r.EnableCache()
	v6 := netip.MustParseAddr("2001:db8::1")
	dst := make([]netip.Addr, 1, 4)
	dst[0] = v6
	got, err := r.AppendLookup(dst, "www.example.com", TypeA, 0)
	if err != nil || len(got) != 2 || got[0] != v6 || got[1] != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("AppendLookup = (%v, %v), want [%v 192.0.2.1]", got, err, v6)
	}
	got, err = r.AppendLookup(dst, "missing.example.com", TypeA, 0)
	if !errors.Is(err, ErrNXDomain) || len(got) != 1 || got[0] != v6 {
		t.Fatalf("failed AppendLookup = (%v, %v), want dst unchanged and NXDOMAIN", got, err)
	}
	if n := testing.AllocsPerRun(100, func() { r.AppendLookup(dst[:0], "www.example.com", TypeA, 0) }); n != 0 {
		t.Errorf("a memoised AppendLookup allocates %.1f times, want 0", n)
	}
}

// ResetCache empties the memo: the next lookup of a memoised name misses.
func TestResetCache(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	r.EnableCache()
	r.Lookup("www.example.com", TypeA)
	r.Lookup("www.example.com", TypeA)
	r.ResetCache()
	r.Lookup("www.example.com", TypeA)
	if st := r.Stats(); st.Queries != 3 || st.CacheHits != 1 || st.Resolved != 3 {
		t.Errorf("stats = %+v, want 3 resolved queries with 1 cache hit", st)
	}
}

func TestRTypeString(t *testing.T) {
	if TypeA.String() != "A" || TypeAAAA.String() != "AAAA" {
		t.Error("RType names wrong")
	}
}

func TestCacheHitMiss(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	r.EnableCache()

	for i := 0; i < 3; i++ {
		if _, err := r.Lookup("www.example.com", TypeA); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	// Negative outcomes are cached too.
	for i := 0; i < 2; i++ {
		if _, err := r.Lookup("nope.example.com", TypeA); !errors.Is(err, ErrNXDomain) {
			t.Fatalf("nxdomain lookup %d: %v", i, err)
		}
	}

	st := r.Stats()
	if st.Queries != 5 || st.CacheHits != 3 || st.CacheMisses != 2 {
		t.Errorf("stats = %+v, want Queries 5, CacheHits 3, CacheMisses 2", st)
	}
	if st.Resolved != 3 || st.NXDomain != 2 {
		t.Errorf("outcomes replayed wrong: %+v", st)
	}
	if d := st.Delta(Stats{Queries: 1, CacheMisses: 1}); d.Queries != 4 || d.CacheMisses != 1 || d.CacheHits != 3 {
		t.Errorf("Delta = %+v, want Queries 4, CacheMisses 1, CacheHits 3", d)
	}
}

func TestCacheDoesNotRetainTimeouts(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(3)))
	r.EnableCache()
	// Phase 1: every query times out. If timeouts were cached, the error
	// would stick for good.
	r.TimeoutRate = 1
	for i := 0; i < 3; i++ {
		if _, err := r.Lookup("www.example.com", TypeA); !errors.Is(err, ErrTimeout) {
			t.Fatalf("lookup %d: want timeout, got %v", i, err)
		}
	}
	// Phase 2: the auth recovers; the name must resolve (nothing cached).
	r.TimeoutRate = 0
	if _, err := r.Lookup("www.example.com", TypeA); err != nil {
		t.Fatalf("timeout was cached: %v", err)
	}
	// Phase 3: successes ARE cached, so renewed auth flakiness is
	// invisible for known names.
	r.TimeoutRate = 1
	if _, err := r.Lookup("www.example.com", TypeA); err != nil {
		t.Fatalf("cached success not served: %v", err)
	}
}

func TestScheduleFailsFirstAttempts(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	r.SetFaults(fault.New(1, fault.Rule{Site: fault.DNS, Kind: fault.Timeout, Target: "www.example.com", P: 1, Times: 2}))
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := r.LookupAttempt("www.example.com", TypeA, attempt); !errors.Is(err, ErrTimeout) {
			t.Fatalf("attempt %d: want timeout, got %v", attempt, err)
		}
	}
	if addrs, err := r.LookupAttempt("www.example.com", TypeA, 2); err != nil || len(addrs) != 1 {
		t.Fatalf("attempt 2: want success, got (%v, %v)", addrs, err)
	}
	// Names the plan does not select are untouched.
	if _, err := r.LookupAttempt("v4only.example.com", TypeA, 0); err != nil {
		t.Fatalf("unselected name, attempt 0: %v", err)
	}
	// NXDOMAIN outranks the schedule (name does not exist, so there is no
	// server to time out).
	if _, err := r.LookupAttempt("missing.example.com", TypeA, 0); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("missing name: want NXDOMAIN, got %v", err)
	}
}

func TestScheduleOutranksCache(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	r.EnableCache()
	r.SetFaults(fault.New(1, fault.Rule{Site: fault.DNS, Kind: fault.Timeout, Target: "www.example.com", P: 1, Times: 1}))
	// Warm the cache with a successful attempt-1 lookup first: a scheduled
	// attempt-0 timeout must still fire afterwards, or injected failures
	// would depend on cache warm-up order across workers.
	if _, err := r.LookupAttempt("www.example.com", TypeA, 1); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if _, err := r.LookupAttempt("www.example.com", TypeA, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("scheduled timeout suppressed by cache: %v", err)
	}
	// And the timeout was not cached.
	if _, err := r.LookupAttempt("www.example.com", TypeA, 1); err != nil {
		t.Fatalf("post-timeout attempt 1: %v", err)
	}
}

func TestCachedResultIsACopy(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	r.EnableCache()
	for name, lookup := range lookups(r) {
		t.Run(name, func(t *testing.T) {
			a1, _ := lookup("www.example.com", TypeA)
			a1[0] = netip.MustParseAddr("198.51.100.99") // clobber the returned slice
			a2, err := lookup("www.example.com", TypeA)
			if err != nil || a2[0] != netip.MustParseAddr("192.0.2.1") {
				t.Fatalf("cache entry was mutated through a returned slice: (%v, %v)", a2, err)
			}
		})
	}
}

// TestFailureTexts: every failure kind, from the backend, the memo, the
// random timeout and the fault plan alike, reaches AppendLookup as the bare
// kind and LookupAttempt as ErrText's spelling of it — the text fmt.Errorf
// wrote before the kinds went bare, pinned literally.
func TestFailureTexts(t *testing.T) {
	cases := []struct {
		name   string
		typ    RType
		rate   float64
		faults bool
		kind   error
		text   string
	}{
		{"Missing.Example.COM.", TypeA, 0, false, ErrNXDomain, "dns: NXDOMAIN: missing.example.com"},
		{"v4only.example.com", TypeAAAA, 0, false, ErrNoRecord, "dns: no record of requested type: v4only.example.com AAAA"},
		{"www.example.com", TypeA, 1, false, ErrTimeout, "dns: query timed out: www.example.com A"},
		{"www.example.com", TypeAAAA, 0, true, ErrTimeout, "dns: query timed out: www.example.com AAAA"},
	}
	for _, c := range cases {
		for _, memo := range []bool{false, true} {
			r := NewResolver(backend(), rand.New(rand.NewSource(1)))
			r.TimeoutRate = c.rate
			if c.faults {
				r.SetFaults(fault.New(1, fault.Rule{Site: fault.DNS, Kind: fault.Timeout, Target: "www.example.com", P: 1, Times: 9}))
			}
			if memo {
				r.EnableCache()
			}
			for i := 0; i < 2; i++ { // the second lookup hits the memo, if any
				if _, err := r.AppendLookup(nil, c.name, c.typ, 0); err != c.kind {
					t.Errorf("AppendLookup(%s, %s) = %v, want the bare %v", c.name, c.typ, err, c.kind)
				}
				_, err := r.LookupAttempt(c.name, c.typ, 0)
				if !errors.Is(err, c.kind) || err.Error() != c.text {
					t.Errorf("LookupAttempt(%s, %s) = %q, want %q wrapping %v", c.name, c.typ, err, c.text, c.kind)
				}
				// ErrText spells the name it is given; LookupAttempt gives
				// it the canonical one.
				if got := ErrText(c.kind, Normalize(c.name), c.typ); got != c.text {
					t.Errorf("ErrText(%v, %s, %s) = %q, want %q", c.kind, Normalize(c.name), c.typ, got, c.text)
				}
			}
		}
	}
}

// A memoised failure costs AppendLookup nothing, and ErrText one string.
func TestFailureAllocs(t *testing.T) {
	r := NewResolver(backend(), rand.New(rand.NewSource(1)))
	r.EnableCache()
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = r.AppendLookup(nil, "missing.example.com", TypeA, 0) }); n != 0 {
		t.Errorf("a memoised failed AppendLookup allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ErrText(err, "v4only.example.com", TypeAAAA) }); n != 1 {
		t.Errorf("ErrText allocates %.1f times, want 1", n)
	}
}
