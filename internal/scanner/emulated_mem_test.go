package scanner

import (
	"bytes"
	"runtime"
	"testing"

	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// quicWorld is a world whose every domain resolves to a QUIC server and
// answers with its landing page: each scanned domain is one full exchange.
func quicWorld(domains int) *websim.World { return websim.Generate(uniformProfile(domains, 1)) }

// spinWorld is quicWorld with a spinning server behind every domain and no
// 1-in-N disable roll: every connection needs packets, none is settled in
// closed form.
func spinWorld(domains int) *websim.World {
	p := uniformProfile(domains, 1)
	for i := range p.QUICOrgs {
		o := &p.QUICOrgs[i]
		o.SpinIPShare, o.AllOneIPShare, o.GreaseIPShare = 1, 0, 0
		o.DisableEveryN = 0
		o.StableSpinShare = 1
	}
	return websim.Generate(p)
}

// uniformProfile is a world of domains that all resolve, without redirects,
// and speak QUIC at quicRate: at 0 every scanned domain is one connection to
// an address where nobody listens.
func uniformProfile(domains int, quicRate float64) websim.Profile {
	p := websim.DefaultProfile()
	p.Scale = p.ZoneDomains / domains
	p.TopDomains = 1
	p.TopResolveRate, p.ZoneResolveRate = 1, 1
	p.TopQUICRate, p.ZoneQUICRate = quicRate, quicRate
	p.RedirectRate = 0
	if quicRate == 1 {
		p.LegacyOrgs = nil // nobody to host
	}
	return p
}

func quicEngine(w *websim.World) *emulatedEngine {
	cfg := Config{Week: 12, Engine: EngineEmulated, Seed: 1, Workers: 1, Telemetry: telemetry.New()}
	return newEmulatedEngine(w, &cfg, testTally(&cfg), nil)
}

// closedForms is the number of connections e has settled in closed form.
func closedForms(e *emulatedEngine) int64 { return e.tally.n.connsClosedForm }

// The emulated engine's memory is constant in the number of domains it has
// scanned: after one pass over a world (every server site instantiated) two
// more passes leave the buffer and connection pools, every site's connection
// list, every table of the emulated network and the live heap where they were.
func TestEmulatedEngineBoundedMemory(t *testing.T) {
	const n = 400
	w := spinWorld(n)
	e := quicEngine(w)
	type snapshot struct {
		pooled, conns int
		net           netem.TableSizes
		heap          uint64
	}
	var s slabs
	var res DomainResult
	pass := func() snapshot {
		for i := 0; i < w.NumDomains(); i++ {
			d := w.DomainAt(i)
			s.reset()
			if e.scanDomain(d, &s, &res); len(res.Conns) == 0 || res.Conns[0].Status != 200 {
				t.Fatalf("%s: no 200 response: %+v", d.Name, res.Conns)
			}
			// After the per-domain drain nothing is live on any site.
			for ip, host := range e.servers {
				if live := len(host.Endpoint().Conns()); live != 0 {
					t.Fatalf("after %s: site %s holds %d live connections", d.Name, ip, live)
				}
			}
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return snapshot{e.arena.Pooled(), e.arena.PooledConns(), e.net.TableSizes(), m.HeapInuse}
	}
	after1 := pass() // n domains
	pass()
	after3 := pass() // 2n more
	runtime.KeepAlive(e)
	if n := closedForms(e); n != 0 {
		t.Fatalf("%d connections took the closed form, want every one on the packet path", n)
	}
	t.Logf("pool %d -> %d buffers, %d -> %d connections, live heap %d -> %d bytes", after1.pooled, after3.pooled, after1.conns, after3.conns, after1.heap, after3.heap)
	if after1.pooled == 0 || after1.conns == 0 {
		t.Fatal("the engine's arena pooled nothing")
	}
	if after3.pooled > after1.pooled+2 {
		t.Errorf("buffer pool grew from %d to %d buffers over %d more domains", after1.pooled, after3.pooled, 2*n)
	}
	// One domain here is one exchange: its two connections are all the pool
	// ever holds.
	if after3.conns != after1.conns || after3.conns > 2 {
		t.Errorf("connection pool went from %d to %d connections over %d more domains, want the 2 of one exchange", after1.conns, after3.conns, 2*n)
	}
	if after3.net != after1.net {
		t.Errorf("the emulated network's tables grew over %d more domains: %+v, then %+v", 2*n, after1.net, after3.net)
	}
	// The parent's leak held ~60 KB per scanned domain — some 50 MB here.
	const slack = 4 << 20
	if after3.heap > after1.heap+slack {
		t.Errorf("live heap grew from %d to %d bytes over %d more domains (allowed: %d)", after1.heap, after3.heap, 2*n, slack)
	}
}

// emulatedConnAllocs and emulatedConnBytes are the recorded steady-state
// allocation count and bytes of one emulated domain of spinWorld — one
// connection on the packet path, one landing page — and each ceiling is the
// record plus 10 %: a regrowth of the per-connection allocation fails
// tier-1, not only the benchmark. The HTTP exchange allocates only the
// strings a parse keeps, so a parser that allocates a 4 KiB line buffer
// again is far over the bytes ceiling.
const (
	emulatedConnAllocs = 7
	emulatedConnBytes  = 123
)

func TestEmulatedConnAllocCeiling(t *testing.T) {
	e, got := domainAllocs(t, spinWorld(50), 200)
	if n := closedForms(e); n != 0 {
		t.Fatalf("%d connections took the closed form, want every one on the packet path", n)
	}
	t.Logf("%.0f allocations per emulated domain (recorded: %d)", got, emulatedConnAllocs)
	if ceiling := float64(emulatedConnAllocs) * 1.1; got > ceiling {
		t.Errorf("one emulated domain allocates %.0f times, ceiling %.1f (recorded %d + 10%%)", got, ceiling, emulatedConnAllocs)
	}
	// TotalAlloc over many scans of the same warmed domain. The race
	// runtime's instrumentation allocates bytes of its own (about 200 per
	// domain here), so only a plain build holds the bytes to their record.
	if raceEnabled {
		return
	}
	const scans = 200
	d := e.world.DomainAt(7)
	var s slabs
	var res DomainResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		s.reset()
		e.scanDomain(d, &s, &res)
	}
	runtime.ReadMemStats(&after)
	perDomain := float64(after.TotalAlloc-before.TotalAlloc) / scans
	t.Logf("%.0f bytes per emulated domain (recorded: %d)", perDomain, emulatedConnBytes)
	if ceiling := float64(emulatedConnBytes) * 1.1; perDomain > ceiling {
		t.Errorf("one emulated domain allocates %.0f bytes, ceiling %.0f (recorded %d + 10%%)", perDomain, ceiling, emulatedConnBytes)
	}
}

// A connection to an address where nobody listens — 87 % of a campaign's —
// is settled in closed form, which allocates nothing.
func TestEmulatedBlackholeAllocCeiling(t *testing.T) {
	e, got := domainAllocs(t, websim.Generate(uniformProfile(50, 0)), 0)
	if n := closedForms(e); n == 0 {
		t.Fatal("no connection took the closed form")
	}
	if got > 0 {
		t.Errorf("one closed-form emulated domain allocates %.1f times, want 0", got)
	}
}

// domainAllocs scans one domain of w, which must answer with one connection
// of status wantStatus, on a warmed emulated engine and returns the engine
// and the steady-state allocations per scan.
func domainAllocs(t *testing.T, w *websim.World, wantStatus int) (*emulatedEngine, float64) {
	e := quicEngine(w)
	d := w.DomainAt(7)
	var s slabs
	var res DomainResult
	for i := 0; i < 5; i++ { // warm the site, the pools, the DNS cache and the slabs
		s.reset()
		if e.scanDomain(d, &s, &res); len(res.Conns) != 1 || res.Conns[0].Status != wantStatus {
			t.Fatalf("%s: want one connection with status %d: %+v", d.Name, wantStatus, res.Conns)
		}
	}
	return e, testing.AllocsPerRun(50, func() {
		s.reset()
		e.scanDomain(d, &s, &res)
	})
}

// A site writes each response head from the connection's kit, without a
// header map: the bytes must be those h3.EncodeResponse writes for the same
// response — landing page, redirect, unknown authority, malformed request.
func TestRespondMatchesEncodeResponse(t *testing.T) {
	p := uniformProfile(200, 1)
	p.RedirectRate = 0.5
	w := websim.Generate(p)
	e := quicEngine(w)
	var page, redirect *websim.Domain
	for i := 0; i < w.NumDomains() && (page == nil || redirect == nil); i++ {
		if d := w.DomainAt(i); d.RedirectTo == "" {
			page = d
		} else {
			redirect = d
		}
	}
	if page == nil || redirect == nil {
		t.Fatal("the world has no landing page or no redirect")
	}
	srv := w.ServerAt(page.V4)
	request := func(host, path string) []byte {
		return h3.EncodeRequest(&h3.Request{Method: "GET", Authority: host, Path: path, Headers: scannerHeaders})
	}
	hdr := func(kv ...string) map[string]string {
		m := map[string]string{"server": srv.Software}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	var head []byte
	for _, c := range []struct {
		name string
		req  []byte
		want h3.Response
	}{
		{"landing page", request(page.Host(), "/"), h3.Response{Status: 200, Headers: hdr("content-type", "text/html"), Body: patternBody(page.BodyBytes)}},
		{"redirect", request(redirect.Host(), "/"), h3.Response{Status: 301, Headers: hdr("content-type", "text/html", "location", "https://www."+redirect.RedirectTo+"/landing")}},
		{"redirect target page", request(redirect.Host(), "/landing"), h3.Response{Status: 200, Headers: hdr("content-type", "text/html"), Body: patternBody(redirect.BodyBytes)}},
		{"unknown authority", request("www.nowhere.invalid", "/"), h3.Response{Status: 404, Headers: hdr("content-type", "text/html"), Body: []byte("unknown authority")}},
		{"malformed request", []byte("NOT A REQUEST\n\n"), h3.Response{Status: 400, Headers: hdr()}},
	} {
		var body []byte
		head, body = e.respond(head[:0], srv, c.req)
		if got, want := append(append([]byte(nil), head...), body...), h3.EncodeResponse(&c.want); !bytes.Equal(got, want) {
			t.Errorf("%s: respond wrote\n%q\nwant\n%q", c.name, got, want)
		}
	}
}
