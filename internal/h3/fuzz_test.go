package h3

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzH3Request checks that ParseRequest never panics, and that every
// accepted request survives an encode→parse round trip unchanged — the
// property the emulated scanner relies on when it replays requests between
// the client and server halves of a connection.
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
		if err != nil {
			if req != nil {
				t.Fatal("non-nil request returned alongside an error")
			}
			return
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
