package h3

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method:    "GET",
		Authority: "www.example.com",
		Path:      "/index.html",
		Headers:   map[string]string{"user-agent": "quicspin-scanner/1.0", "x-research": "https://measurement.example/optout"},
	}
	got, err := ParseRequest(EncodeRequest(req))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if got.Method != req.Method || got.Authority != req.Authority || got.Path != req.Path {
		t.Errorf("request = %+v", got)
	}
	if got.Headers["user-agent"] != req.Headers["user-agent"] {
		t.Errorf("headers = %v", got.Headers)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		Status:  200,
		Headers: map[string]string{"server": "LiteSpeed", "content-type": "text/html"},
		Body:    []byte("<html>hello\n\nworld</html>"),
	}
	got, err := ParseResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if got.Status != 200 || got.Server() != "LiteSpeed" {
		t.Errorf("response = %+v", got)
	}
	if !bytes.Equal(got.Body, resp.Body) {
		t.Errorf("body = %q", got.Body)
	}
}

func TestRedirect(t *testing.T) {
	r := &Response{Status: 301, Headers: map[string]string{"location": "https://www.example.org/"}}
	got, err := ParseResponse(EncodeResponse(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsRedirect() || got.Location() != "https://www.example.org/" {
		t.Errorf("redirect = %+v", got)
	}
	plain := &Response{Status: 200, Headers: map[string]string{}}
	if plain.IsRedirect() {
		t.Error("200 classified as redirect")
	}
	noLoc := &Response{Status: 302, Headers: map[string]string{}}
	if noLoc.IsRedirect() {
		t.Error("redirect without location classified as redirect")
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := []string{
		"",
		"GET /\n",
		"GET / HTTP/9\n\n",
		"GET / HTTP/3-lite\nbadheader\n\n",
	}
	for _, c := range cases {
		if _, err := ParseRequest([]byte(c)); err == nil {
			t.Errorf("ParseRequest(%q) succeeded", c)
		}
	}
}

func TestParseResponseErrors(t *testing.T) {
	cases := []string{
		"",
		"HTTP/3-lite 200\n", // no terminator
		"HTTP/3-lite abc\n\n",
		"BOGUS 200\n\n",
		"HTTP/3-lite 200\ncontent-length: 5\n\nabc", // length mismatch
	}
	for _, c := range cases {
		if _, err := ParseResponse([]byte(c)); err == nil {
			t.Errorf("ParseResponse(%q) succeeded", c)
		}
	}
}

func TestHeadersLowercasedAndSorted(t *testing.T) {
	req := &Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{"B-Key": "2", "A-Key": "1"}}
	enc := string(EncodeRequest(req))
	if !strings.Contains(enc, "a-key: 1\nb-key: 2\n") {
		t.Errorf("headers not sorted/lowercased:\n%s", enc)
	}
}

// The wire text is pinned literally: the scanner's goldens depend on every
// byte of it, and the response head sent on its own must be exactly what
// EncodeResponse puts before the body.
func TestEncodedTextAndResponseHead(t *testing.T) {
	req := &Request{Method: "GET", Authority: "www.a.test", Path: "/x", Headers: map[string]string{"X-B": "2", "a": "1"}}
	if got, want := string(EncodeRequest(req)), "GET /x HTTP/3-lite\n:authority: www.a.test\nx-b: 2\na: 1\n\n"; got != want {
		t.Errorf("EncodeRequest = %q, want %q", got, want)
	}
	many := map[string]string{}
	for _, k := range []string{"k9", "k8", "k7", "k6", "k5", "k4", "k3", "k2", "k1", "k0"} {
		many[k] = "v"
	}
	for _, resp := range []*Response{
		{Status: 200, Headers: map[string]string{"server": "LiteSpeed", "content-type": "text/html"}, Body: []byte("hello")},
		{Status: 301, Headers: map[string]string{"location": "https://www.b.test/landing"}},
		{Status: 404, Headers: many, Body: []byte("x")}, // more headers than the sort scratch holds
		{Status: 500},
	} {
		enc := EncodeResponse(resp)
		head := AppendResponseHead(nil, resp.Status, len(resp.Body), resp.Headers)
		if !bytes.Equal(enc, append(head, resp.Body...)) {
			t.Errorf("status %d: head + body differs from EncodeResponse:\n%q\n%q", resp.Status, head, enc)
		}
	}
	enc := string(EncodeResponse(&Response{Status: 200, Headers: map[string]string{"server": "s", "content-type": "text/html"}, Body: []byte("hi")}))
	if want := "HTTP/3-lite 200\ncontent-length: 2\ncontent-type: text/html\nserver: s\n\nhi"; enc != want {
		t.Errorf("EncodeResponse = %q, want %q", enc, want)
	}
}

func TestResponseQuickRoundTrip(t *testing.T) {
	f := func(status uint16, body []byte, server string) bool {
		server = strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, server)
		in := &Response{
			Status:  int(status%599) + 100,
			Headers: map[string]string{"server": server},
			Body:    body,
		}
		out, err := ParseResponse(EncodeResponse(in))
		if err != nil {
			return false
		}
		return out.Status == in.Status && bytes.Equal(out.Body, in.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeParseResponse(b *testing.B) {
	resp := &Response{Status: 200, Headers: map[string]string{"server": "LiteSpeed"}, Body: make([]byte, 4096)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseResponse(EncodeResponse(resp)); err != nil {
			b.Fatal(err)
		}
	}
}
