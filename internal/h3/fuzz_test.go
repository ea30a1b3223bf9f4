package h3

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// FuzzH3Request checks that ParseRequest never panics, that it accepts and
// rejects exactly what the reference bufio parser (oracle_test.go) does,
// with the same fields, error text and error classes — also when it parses
// into a Request that held an earlier message — and that every accepted
// request survives an encode→parse round trip unchanged: the property the
// emulated scanner relies on when it replays requests between the client
// and server halves of a connection.
func FuzzH3Request(f *testing.F) {
	f.Add(EncodeRequest(&Request{
		Method: "GET", Authority: "www.example.com", Path: "/",
		Headers: map[string]string{"user-agent": "quicspin-scanner/1.0"},
	}))
	f.Add(EncodeRequest(&Request{Method: "HEAD", Authority: "", Path: "/landing", Headers: map[string]string{}}))
	f.Add([]byte("GET / HTTP/3-lite\n:authority: a\nx: y\n\n"))
	f.Add([]byte("GET / HTTP/3-lite\nbroken-header-line\n\n"))
	f.Add([]byte("GET / HTTP/2\n\n")) // wrong protocol token
	// A CR the line scanner leaves inside a header line.
	f.Add([]byte("0 0 HTTP/3-lite\n: \r\r"))
	f.Add([]byte("GET\u00a0/\tHTTP/3-lite\r\n:AUTHORITY: A\r\nUser-Agent: x\r\n\r\n"))
	f.Add([]byte("GET / HTTP/3-lite\n\xe2\x84\xaaEY: v\n\xffX: y\n\n"))
	f.Add([]byte("\n"))
	f.Add([]byte{})
	// Hostile-profile shapes: the header-flood profile streams endless
	// header lines without ever sending the blank-line terminator, and the
	// oversized-body profile declares a content-length far beyond what it
	// could ever deliver.
	flood := []byte("GET /flood " + Proto + "\n:authority: flood.test\n")
	for i := 0; i < 64; i++ {
		flood = append(flood, []byte(fmt.Sprintf("x-flood-%06d: yyyyyyyyyyyyyyyy\n", i))...)
	}
	f.Add(flood) // no terminator
	f.Add([]byte("GET /big " + Proto + "\n:authority: big.test\ncontent-length: 4194304\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		want, wantErr := oracleParseRequest(data)
		sameOutcome(t, data, err, wantErr)
		reused := &Request{Method: "GET", Authority: "old.test", Path: "/old", Headers: map[string]string{"user-agent": "old", "stale": "x"}}
		sameOutcome(t, data, reused.Parse(data), wantErr)
		if err != nil {
			if req != nil {
				t.Fatal("non-nil request returned alongside an error")
			}
			return
		}
		if !reflect.DeepEqual(req, want) || !reflect.DeepEqual(reused, want) {
			t.Fatalf("parse of %q:\n fresh:  %#v\n reused: %#v\n oracle: %#v", data, req, reused, want)
		}
		enc := EncodeRequest(req)
		again, err := ParseRequest(enc)
		if err != nil {
			t.Fatalf("re-parse of encoded request failed: %v\nencoded: %q", err, enc)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip mismatch:\n before: %#v\n after:  %#v", req, again)
		}
	})
}

// FuzzH3Response holds ParseResponse, and Parse into a Response that held
// an earlier message, to the reference bufio parser: the same accept/reject
// result, fields, error text and error classes.
func FuzzH3Response(f *testing.F) {
	f.Add(EncodeResponse(&Response{Status: 200, Headers: map[string]string{"server": "LiteSpeed", "content-type": "text/html"}, Body: []byte("hello")}))
	f.Add(EncodeResponse(&Response{Status: 301, Headers: map[string]string{"location": "https://www.b.test/landing", "server": "h2o"}}))
	f.Add([]byte(Proto + " 200\n\n"))
	f.Add([]byte(Proto + " +200\r\nServer: x\r\n\r\n\n"))
	f.Add([]byte(Proto + "\u2003-7\ncontent-length: 2\ncontent-length: x\n\nab"))
	f.Add([]byte(Proto + " 200\ncontent-length: 268435456\nserver: h2o\n\n"))
	f.Add([]byte(Proto + " 200\ncontent-length: 3\n\nabcd"))
	f.Add([]byte(Proto + " 200\nbroken\n\n"))
	f.Add([]byte(Proto + " 200\nx: a\rb\n\n"))
	f.Add([]byte(Proto + " 99999999999999999999\n\n"))
	f.Add([]byte("BOGUS 200\n\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(Proto + " 200\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ParseResponse(data)
		want, wantErr := oracleParseResponse(data)
		sameOutcome(t, data, err, wantErr)
		reused := &Response{Status: 500, Headers: map[string]string{"server": "old", "stale": "x"}, Body: []byte("old")}
		sameOutcome(t, data, reused.Parse(data), wantErr)
		if err != nil {
			if resp != nil {
				t.Fatal("non-nil response returned alongside an error")
			}
			return
		}
		if !reflect.DeepEqual(resp, want) || !reflect.DeepEqual(reused, want) {
			t.Fatalf("parse of %q:\n fresh:  %#v\n reused: %#v\n oracle: %#v", data, resp, reused, want)
		}
	})
}

// sameOutcome fails t unless err and the oracle's want agree: both nil, or
// the same text and the same errors.Is classes.
func sameOutcome(t *testing.T, data []byte, err, want error) {
	t.Helper()
	if (err == nil) != (want == nil) {
		t.Fatalf("parse of %q: err %v, oracle %v", data, err, want)
	}
	if err == nil {
		return
	}
	if err.Error() != want.Error() {
		t.Fatalf("parse of %q: err %q, oracle %q", data, err, want)
	}
	for _, class := range []error{ErrMalformed, ErrTooLong, ErrOversized} {
		if errors.Is(err, class) != errors.Is(want, class) {
			t.Fatalf("parse of %q: errors.Is(%v, %v) = %v, oracle %v", data, err, class, errors.Is(err, class), !errors.Is(err, class))
		}
	}
}
