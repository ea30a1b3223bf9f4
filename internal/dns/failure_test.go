package dns

import (
	"encoding/json"
	"errors"
	"testing"
)

// TestFailureValue: a Failure spells as ErrText does, matches its kind under
// errors.Is, is the empty text when zero, and crosses JSON as its text.
func TestFailureValue(t *testing.T) {
	for _, c := range []struct {
		f    Failure
		kind error
		text string
	}{
		{Failure{}, nil, ""},
		{Failure{Kind: NXDomain, Name: "www.site1.com"}, ErrNXDomain, "dns: NXDOMAIN: www.site1.com"},
		{Failure{Kind: Timeout, Type: TypeAAAA, Name: "www.site2.net"}, ErrTimeout, "dns: query timed out: www.site2.net AAAA"},
		{Failure{Kind: NoRecord, Name: "www.site3.org"}, ErrNoRecord, "dns: no record of requested type: www.site3.org A"},
	} {
		if got := c.f.Error(); got != c.text || c.f.String() != c.text {
			t.Errorf("%+v spells %q, want %q", c.f, got, c.text)
		}
		if c.kind != nil && !errors.Is(c.f, c.kind) {
			t.Errorf("%+v is not %v", c.f, c.kind)
		}
		if c.f.IsZero() != (c.kind == nil) {
			t.Errorf("%+v: IsZero = %v", c.f, c.f.IsZero())
		}
		enc, err := json.Marshal(struct{ E Failure }{c.f})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(struct{ E string }{c.text})
		if string(enc) != string(want) {
			t.Errorf("%+v encodes as %s, want %s", c.f, enc, want)
		}
		var back struct{ E Failure }
		if err := json.Unmarshal(enc, &back); err != nil || back.E != c.f {
			t.Errorf("%s decodes to (%+v, %v), want %+v", enc, back.E, err, c.f)
		}
	}
	for _, bad := range []string{"dns: NXDOMAIN", "dns: query timed out: x", "dns: query timed out: x MX", "timeout: no QUIC handshake", "dns: no record of requested type x A"} {
		var f Failure
		if err := f.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("%q parses as %+v, want an error", bad, f)
		}
	}
	if _, err := (Failure{Kind: numKinds}).MarshalText(); err == nil {
		t.Error("a Failure of no known kind marshals")
	}
}

// FuzzDNSFailure: a Failure's text is ErrText's spelling of the same parts,
// for any name, and parses back to the same Failure; any text that parses
// spells back to itself.
func FuzzDNSFailure(f *testing.F) {
	for _, name := range []string{"www.site1.com", "", " A", "x AAA", "q AAAA", "dns: NXDOMAIN: x", "a\x00\"\\<>&\u2028", "\xff\xfe", "x\n A"} {
		for k := range numKinds - 1 {
			f.Add(uint8(k), name, k%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, name string, aaaa bool) {
		kind := NXDomain + Kind(k%uint8(numKinds-1))
		typ := TypeA
		if aaaa && kind != NXDomain {
			typ = TypeAAAA
		}
		in := Failure{Kind: kind, Type: typ, Name: name}
		text, err := in.AppendText(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := ErrText(kind.err(), name, typ); string(text) != want {
			t.Fatalf("%+v spells %q, ErrText %q", in, text, want)
		}
		var out Failure
		if err := out.UnmarshalText(text); err != nil || out != in {
			t.Fatalf("%q parses to (%+v, %v), want %+v", text, out, err, in)
		}
		var parsed Failure
		if parsed.UnmarshalText([]byte(name)) == nil {
			if back, err := parsed.AppendText(nil); err != nil || string(back) != name {
				t.Fatalf("%q parses to %+v, which spells %q", name, parsed, back)
			}
		}
	})
}
