package h3

import (
	"errors"
	"strings"
	"testing"
)

// TestParseResponseTooLong checks that a header line beyond the 1 MiB
// scanner buffer (the header-flood shape) surfaces as a structured
// ErrTooLong inside ErrMalformed rather than a bare bufio error.
func TestParseResponseTooLong(t *testing.T) {
	data := []byte(strings.Repeat("A", (1<<20)+64) + "\n\n")
	resp, err := ParseResponse(data)
	if resp != nil {
		t.Fatal("response returned alongside an error")
	}
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, must also match ErrMalformed", err)
	}
}

// TestParseResponseOversized checks that a declared content-length beyond
// MaxContentLength (the oversized-body shape) is rejected before any
// allocation trusts it.
func TestParseResponseOversized(t *testing.T) {
	data := []byte(Proto + " 200\ncontent-length: 268435456\nserver: h2o\n\n")
	resp, err := ParseResponse(data)
	if resp != nil {
		t.Fatal("response returned alongside an error")
	}
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, must also match ErrMalformed", err)
	}
	// A large-but-legal declaration is still only rejected for the body
	// mismatch, not as oversized.
	small := []byte(Proto + " 200\ncontent-length: 3\n\nabc")
	if _, err := ParseResponse(small); err != nil {
		t.Fatalf("legal response rejected: %v", err)
	}
}

// TestParseRequestTooLong mirrors the response-side check on the request
// parser the websim server runs against scanner-originated streams.
func TestParseRequestTooLong(t *testing.T) {
	data := []byte(strings.Repeat("B", (1<<20)+64) + "\n\n")
	req, err := ParseRequest(data)
	if req != nil {
		t.Fatal("request returned alongside an error")
	}
	if !errors.Is(err, ErrTooLong) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrTooLong wrapped in ErrMalformed", err)
	}
}

// TestLineLimitMatchesOracle pins the 1 MiB line limit where the fuzz
// targets cannot reach: a line of maxLine-1 bytes parses, one of maxLine
// bytes (a trailing CR counted) is ErrTooLong, in the first line, in a
// header line, and as the last, unterminated line — as the reference bufio
// parser decides.
func TestLineLimitMatchesOracle(t *testing.T) {
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1} {
		long := strings.Repeat("v", n)
		for name, data := range map[string]string{
			"request line":        long + "\n\n",
			"request header":      "GET / " + Proto + "\nx: " + long[3:] + "\n\n",
			"request header CR":   "GET / " + Proto + "\nx: " + long[4:] + "\r\n\n",
			"unterminated header": "GET / " + Proto + "\nx: " + long[3:],
			"status line":         long + "\n\n",
			"response header":     Proto + " 200\nx: " + long[3:] + "\n\n",
			"response header CR":  Proto + " 200\nx: " + long[4:] + "\r\n\n",
		} {
			sameAs := func(err, want error) {
				t.Helper()
				if (err == nil) != (want == nil) || err != nil && (err.Error() != want.Error() || errors.Is(err, ErrTooLong) != errors.Is(want, ErrTooLong)) {
					t.Errorf("%s of %d bytes: err %v, oracle %v", name, n, err, want)
				}
			}
			if strings.HasPrefix(name, "request") || name == "unterminated header" {
				_, err := ParseRequest([]byte(data))
				_, want := oracleParseRequest([]byte(data))
				sameAs(err, want)
			} else {
				_, err := ParseResponse([]byte(data))
				_, want := oracleParseResponse([]byte(data))
				sameAs(err, want)
			}
		}
	}
}

// TestParseAllocs: parsing into a reused Request or Response allocates only
// the value strings it keeps — none when the values equal the previous
// parse's, one per value that changed — and the header names the peers send
// are interned.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes allocation counts")
	}
	reqA := EncodeRequest(&Request{Method: "GET", Authority: "www.a.test", Path: "/", Headers: map[string]string{"user-agent": "quicspin-scanner/1.0"}})
	reqB := EncodeRequest(&Request{Method: "GET", Authority: "www.b.test", Path: "/", Headers: map[string]string{"user-agent": "quicspin-scanner/1.0"}})
	var req Request
	if err := req.Parse(reqA); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = req.Parse(reqA) }); n != 0 {
		t.Errorf("re-parsing the same request allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = req.Parse(reqB)
		_ = req.Parse(reqA)
	}); n != 2 {
		t.Errorf("two requests whose authorities differ allocate %.1f times, want 2", n)
	}
	if req.Authority != "www.a.test" || req.Method != "GET" || req.Headers["user-agent"] != "quicspin-scanner/1.0" || len(req.Headers) != 1 {
		t.Errorf("request = %+v", req)
	}

	body := make([]byte, 32<<10)
	respA := EncodeResponse(&Response{Status: 200, Headers: map[string]string{"server": "LiteSpeed", "content-type": "text/html"}, Body: body})
	respB := EncodeResponse(&Response{Status: 301, Headers: map[string]string{"server": "h2o", "content-type": "text/html", "location": "https://www.c.test/landing"}})
	var resp Response
	if err := resp.Parse(respA); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = resp.Parse(respA) }); n != 0 {
		t.Errorf("re-parsing the same response allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = resp.Parse(respB)
		_ = resp.Parse(respA)
	}); n != 3 {
		// respB's server and location, then respA's server again.
		t.Errorf("two responses whose servers differ allocate %.1f times, want 3", n)
	}
	if resp.Status != 200 || resp.Server() != "LiteSpeed" || resp.Location() != "" || len(resp.Body) != len(body) {
		t.Errorf("response = %d %v, %d body bytes", resp.Status, resp.Headers, len(resp.Body))
	}
}
