package scanner

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"quicspin/internal/core"
	"quicspin/internal/dns"
	"quicspin/internal/resilience"
	"quicspin/internal/websim"
)

// sameResult reports whether a JSON round trip gave the result back: every
// encoded field equal, nil and empty slices told apart, observation times
// compared as instants (a decoded time carries another *Location). A
// connection's ErrClass and Hostile are not encoded — the ingress that
// decodes a result classifies its text again (replayResult) — so they are
// not compared.
func sameResult(a, b *DomainResult) bool {
	x, y := *a, *b
	x.Conns, y.Conns = nil, nil
	if !reflect.DeepEqual(x, y) || len(a.Conns) != len(b.Conns) || (a.Conns == nil) != (b.Conns == nil) {
		return false
	}
	for i := range a.Conns {
		ca, cb := a.Conns[i], b.Conns[i]
		oa, ob := ca.Observations, cb.Observations
		ca.Observations, cb.Observations = nil, nil
		ca.ErrClass, cb.ErrClass, ca.Hostile, cb.Hostile = 0, 0, 0, 0
		if !reflect.DeepEqual(ca, cb) || len(oa) != len(ob) || (oa == nil) != (ob == nil) {
			return false
		}
		for k := range oa {
			x, y := oa[k], ob[k]
			if !x.T.Equal(y.T) || x.PN != y.PN || x.Spin != y.Spin || x.VEC != y.VEC {
				return false
			}
		}
	}
	return true
}

// checkAppendJSON holds AppendJSON to json.Marshal: the same bytes after
// whatever dst already held, or an error exactly when json.Marshal fails;
// and the bytes decode, to an equal value when roundTrips says the input
// has nothing JSON cannot carry (invalid UTF-8 comes back as U+FFFD).
func checkAppendJSON(t *testing.T, res *DomainResult, roundTrips bool) {
	t.Helper()
	want, wantErr := json.Marshal(res)
	got, gotErr := res.AppendJSON([]byte("dst"))
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("AppendJSON error = %v, json.Marshal error = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("dst")) || !bytes.Equal(got[3:], want) {
		t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", got[3:], want)
	}
	var back DomainResult
	if err := json.Unmarshal(got[3:], &back); err != nil {
		t.Fatalf("AppendJSON output does not decode: %v\n%s", err, got[3:])
	}
	if roundTrips && !sameResult(&back, res) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", back, *res)
	}
}

// failureOf is a DNS failure of kind k mod 4 naming name: none or one of the
// three kinds. It is shaped as a scan records one, so it survives a round
// trip: no failure names nothing, and NXDOMAIN no type.
func failureOf(k int, name string, aaaa bool) dns.Failure {
	f := dns.Failure{Kind: dns.Kind(k % 4), Name: name}
	switch {
	case f.Kind == 0:
		f.Name = ""
	case aaaa && f.Kind != dns.NXDomain:
		f.Type = dns.TypeAAAA
	}
	return f
}

// TestDomainResultJSONMatchesMarshal runs every result of a fast and an
// emulated week — hostile servers included — through both encoders.
func TestDomainResultJSONMatchesMarshal(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 20_000, 0.2
	w := websim.Generate(p)
	for _, eng := range []Engine{EngineFast, EngineEmulated} {
		r := mustRun(t, w, Config{Week: 3, Engine: eng, Seed: 9, Workers: 2})
		var conns, observed int
		for i := range r.Domains {
			checkAppendJSON(t, &r.Domains[i], true)
			conns += len(r.Domains[i].Conns)
			for _, c := range r.Domains[i].Conns {
				observed += len(c.Observations)
			}
		}
		if len(r.Domains) < 10_000 || conns == 0 || observed == 0 {
			t.Fatalf("engine %v: %d domains, %d connections, %d observations: not a week worth comparing", eng, len(r.Domains), conns, observed)
		}
	}
}

// TestDomainResultJSONHostileInputs covers what no simulated week holds.
func TestDomainResultJSONHostileInputs(t *testing.T) {
	hostile := []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"line" + string(rune(0x2028)) + "para" + string(rune(0x2029)) + "end",
		"ctl \x00\x01\b\f\n\r\t\x1f\x7f", "bad utf8 \xff\xfe tail", "cut short \xe2\x80",
		string(rune(0xfffd)), "snow" + string(rune(0x2603)) + string(rune(0x1f600)),
	}
	addrs := []netip.Addr{
		{}, netip.MustParseAddr("192.0.2.7"), netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:192.0.2.7"), netip.MustParseAddr("fe80::1%eth<0>"),
	}
	times := []time.Time{
		{}, time.Unix(0, 0).UTC(), time.Unix(1700000000, 123456789).UTC(),
		time.Unix(1700000000, 120000000).In(time.FixedZone("east", 5*3600+1800)),
		time.Unix(1700000000, 0).In(time.FixedZone("west", -11*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),                         // json.Marshal refuses the year
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),                            // and this one
		time.Unix(1700000000, 0).In(time.FixedZone("far", 24*3600)),          // and the zone hour
		time.Unix(1700000000, 0).In(time.FixedZone("far west", -24*3600-59)), // both ways
		time.Unix(1700000000, 0).In(time.FixedZone("edge", 23*3600+59*60+59)),
	}
	for i, s := range hostile {
		for _, ip := range addrs {
			res := DomainResult{
				Domain: s, TLD: hostile[(i+1)%len(hostile)], Toplist: i%2 == 0, Resolved: i%3 == 0, DNSErr: failureOf(i, s, i%2 == 0),
				Conns: []ConnResult{
					{Target: s, IP: ip, Hop: -i, Err: s, Server: s, Redirect: s, Status: 1 << 40},
					{IP: ip, QUIC: true, ZeroPkts: i, OnePkts: -7, Observations: []core.Observation{}, StackRTTs: []time.Duration{}},
					{Observations: []core.Observation{{PN: 1<<64 - 1, Spin: true, VEC: 255}, {}}, StackRTTs: []time.Duration{-1, 0, 1<<63 - 1}},
				},
			}
			checkAppendJSON(t, &res, utf8.ValidString(s) && utf8.ValidString(res.TLD))
		}
	}
	for _, tm := range times {
		res := DomainResult{Conns: []ConnResult{{Observations: []core.Observation{{T: tm, PN: 3}}}}}
		_, off := tm.Zone()
		checkAppendJSON(t, &res, off%60 == 0) // RFC 3339 drops an offset's seconds
	}
	// A failure of no kind is refused by both encoders.
	checkAppendJSON(t, &DomainResult{DNSErr: dns.Failure{Kind: ^dns.Kind(0), Name: "x"}}, false)
	checkAppendJSON(t, &DomainResult{}, true)                      // Conns null
	checkAppendJSON(t, &DomainResult{Conns: []ConnResult{}}, true) // Conns []
}

// FuzzDomainResultJSON builds a result out of the fuzzer's bytes — text in
// every string field, an address of either family, a time anywhere in or
// out of range, nil or empty slices — and holds the two encoders together.
func FuzzDomainResultJSON(f *testing.F) {
	f.Add("example.com", []byte{192, 0, 2, 1}, int64(1700000000123456789), uint8(0))
	f.Add("<a>&\"\\", []byte("\xff\x00 zone"), int64(-1), uint8(0xff))
	f.Add("w"+string(rune(0x2028)), bytes.Repeat([]byte{0xfe}, 16), int64(1)<<62, uint8(0x15))
	f.Add("", []byte(nil), int64(0), uint8(0x2a))
	f.Fuzz(func(t *testing.T, s string, raw []byte, n int64, flags uint8) {
		text := string(raw)
		c := ConnResult{
			Target: s, Err: text, Server: s + text, Redirect: text + s,
			Hop: int(n), Status: int(n >> 7), ZeroPkts: int(n >> 13), OnePkts: int(-n),
			QUIC: flags&1 != 0,
		}
		switch {
		case len(raw) >= 16:
			c.IP = netip.AddrFrom16([16]byte(raw[:16]))
			if flags&2 != 0 {
				c.IP = c.IP.WithZone(s)
			}
		case len(raw) >= 4:
			c.IP = netip.AddrFrom4([4]byte(raw[:4]))
		}
		tm := time.Unix(0, n)
		if flags&4 != 0 {
			tm = time.Unix(n, int64(flags)) // seconds: years far outside [0,9999]
		}
		if flags&8 != 0 {
			tm = tm.In(time.FixedZone(s, int(n%(30*3600))))
		} else {
			tm = tm.UTC()
		}
		if flags&16 != 0 {
			c.Observations = []core.Observation{{T: tm, PN: uint64(n), Spin: flags&1 != 0, VEC: flags}, {}}
			c.StackRTTs = []time.Duration{time.Duration(n), 0}
		} else if flags&32 != 0 {
			c.Observations, c.StackRTTs = []core.Observation{}, []time.Duration{}
		}
		res := DomainResult{Domain: s, TLD: text, DNSErr: failureOf(int(uint64(n)%4), s, n&8 != 0), Toplist: flags&64 != 0, Resolved: flags&128 != 0}
		switch {
		case flags&3 == 3:
			res.Conns = []ConnResult{}
		case flags&3 != 0:
			res.Conns = []ConnResult{c, {}, c}
		}
		checkAppendJSON(t, &res, utf8.ValidString(s) && utf8.Valid(raw) && (flags&8 == 0 || n%60 == 0))
	})
}

// TestJournalAppendAllocCeiling holds the journal's per-record cost where
// the one-pass encoder put it: appending a result with connections, spin
// observations and RTT samples allocates nothing per record once the
// shard's line buffer has grown (the parent commit measured 6.1).
func TestJournalAppendAllocCeiling(t *testing.T) {
	r := mustRun(t, testWorld(400_000), Config{Week: 1, Engine: EngineFast, Seed: 3, Workers: 1})
	var res *DomainResult
	for i := range r.Domains {
		if d := &r.Domains[i]; d.SpinActivity() && (res == nil || len(d.Conns) > len(res.Conns)) {
			res = d
		}
	}
	if res == nil {
		t.Fatal("no domain with spin activity to journal")
	}
	j, err := resilience.OpenJournalWith(t.TempDir(), resilience.JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	key := "w1/v4/" + res.Domain
	allocs := testing.AllocsPerRun(200, func() {
		if err := j.Append(0, key, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 { // AllocsPerRun rounds down: this allows a stray allocation, not one per record
		t.Errorf("Journal.Append allocates %.0f times per record, want 0", allocs)
	}
}
