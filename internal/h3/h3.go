// Package h3 implements HTTP/3-lite: a minimal request/response protocol
// over QUIC-lite streams, sufficient for the paper's web measurements. It
// carries the pieces the study actually uses — request authority and path,
// response status, the Server header for webserver attribution (§4.2), and
// Location headers for redirect following (§3.2.1, up to 3 redirects).
//
// Substitution note: real HTTP/3 uses QPACK-compressed binary framing.
// Header compression is irrelevant to every measured quantity, so frames
// here are plain text with explicit lengths, keeping traces debuggable.
package h3

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Proto is the protocol identifier on the wire (the first token of every
// request and response head). Exported so stream inspectors can recognise
// an HTTP/3-lite response prefix without parsing it.
const Proto = "HTTP/3-lite"

const protoLine = Proto

// MaxContentLength bounds the content-length a response may declare.
// Honest simulated responses stay under a few hundred KB; a hostile
// 2^62-style declaration must error before anything sizes a buffer to it.
const MaxContentLength = 64 << 20

// ErrMalformed reports an unparseable message.
var ErrMalformed = errors.New("h3: malformed message")

// ErrTooLong reports a message whose single line exceeded the scanner
// buffer (bufio.Scanner token overflow). It always arrives wrapped in
// ErrMalformed; match with errors.Is to distinguish a flooded header line
// from ordinary malformed input.
var ErrTooLong = errors.New("h3: line exceeds buffer limit")

// ErrOversized reports a declared length beyond MaxContentLength. It
// always arrives wrapped in ErrMalformed.
var ErrOversized = errors.New("h3: declared length exceeds limit")

// Request is an HTTP/3-lite request.
type Request struct {
	Method    string
	Authority string // host the request is for (":authority")
	Path      string
	Headers   map[string]string
}

// Response is an HTTP/3-lite response.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// Server returns the Server header (webserver software identification).
func (r *Response) Server() string { return r.Headers["server"] }

// Location returns the redirect target, if any.
func (r *Response) Location() string { return r.Headers["location"] }

// IsRedirect reports whether the status is a 3xx redirect with a Location.
func (r *Response) IsRedirect() bool {
	return r.Status >= 300 && r.Status < 400 && r.Location() != ""
}

// EncodeRequest serialises a request for transmission on a stream.
func EncodeRequest(req *Request) []byte {
	return AppendRequest(make([]byte, 0, 256), req)
}

// AppendRequest appends the encoded request to b.
func AppendRequest(b []byte, req *Request) []byte {
	b = append(b, req.Method...)
	b = append(b, ' ')
	b = append(b, req.Path...)
	b = append(b, ' ')
	b = append(b, protoLine...)
	b = append(b, "\n:authority: "...)
	b = append(b, req.Authority...)
	b = append(b, '\n')
	b = appendHeaders(b, req.Headers)
	return append(b, '\n')
}

// ParseRequest parses a complete request stream.
func ParseRequest(data []byte) (*Request, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return nil, fmt.Errorf("%w: %w: reading request line", ErrMalformed, ErrTooLong)
			}
			return nil, fmt.Errorf("%w: reading request line: %v", ErrMalformed, err)
		}
		return nil, fmt.Errorf("%w: empty request", ErrMalformed)
	}
	parts := strings.Fields(sc.Text())
	if len(parts) != 3 || parts[2] != protoLine {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, sc.Text())
	}
	req := &Request{Method: parts[0], Path: parts[1], Headers: map[string]string{}}
	if err := readHeaders(sc, func(k, v string) {
		if k == ":authority" {
			req.Authority = v
		} else {
			req.Headers[k] = v
		}
	}); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeResponse serialises a response for transmission on a stream.
func EncodeResponse(resp *Response) []byte {
	b := make([]byte, 0, 128+len(resp.Body))
	b = AppendResponseHead(b, resp.Status, len(resp.Body), resp.Headers)
	return append(b, resp.Body...)
}

// AppendResponseHead appends everything of an encoded response that comes
// before its body — status line, content-length, headers and the blank
// line — to dst. A server that already holds the body elsewhere sends the
// head and the body as consecutive stream writes instead of joining them;
// EncodeResponse is this head followed by the body.
func AppendResponseHead(dst []byte, status, contentLength int, headers map[string]string) []byte {
	dst = append(dst, protoLine...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, "\ncontent-length: "...)
	dst = strconv.AppendInt(dst, int64(contentLength), 10)
	dst = append(dst, '\n')
	dst = appendHeaders(dst, headers)
	return append(dst, '\n')
}

// ParseResponse parses a complete response stream.
func ParseResponse(data []byte) (*Response, error) {
	i := bytes.Index(data, []byte("\n\n"))
	if i < 0 {
		return nil, fmt.Errorf("%w: missing header terminator", ErrMalformed)
	}
	head, body := data[:i], data[i+2:]
	sc := bufio.NewScanner(bytes.NewReader(head))
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return nil, fmt.Errorf("%w: %w: reading status line", ErrMalformed, ErrTooLong)
			}
			return nil, fmt.Errorf("%w: reading status line: %v", ErrMalformed, err)
		}
		return nil, fmt.Errorf("%w: empty response", ErrMalformed)
	}
	parts := strings.Fields(sc.Text())
	if len(parts) != 2 || parts[0] != protoLine {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, sc.Text())
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	resp := &Response{Status: status, Headers: map[string]string{}}
	var clen = -1
	var clenErr error
	if err := readHeaders(sc, func(k, v string) {
		if k == "content-length" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				clenErr = fmt.Errorf("%w: content-length %q", ErrMalformed, v)
				return
			}
			if n > MaxContentLength {
				// Reject before anyone trusts the declaration enough to
				// allocate for it.
				clenErr = fmt.Errorf("%w: %w: content-length %d", ErrMalformed, ErrOversized, n)
				return
			}
			clen = n
		} else {
			resp.Headers[k] = v
		}
	}); err != nil {
		return nil, err
	}
	if clenErr != nil {
		return nil, clenErr
	}
	if clen >= 0 && clen != len(body) {
		return nil, fmt.Errorf("%w: content-length %d, body %d", ErrMalformed, clen, len(body))
	}
	resp.Body = body
	return resp, nil
}

// appendHeaders is the one header writer: "name: value" lines, names
// lower-cased, sorted by the name as given.
func appendHeaders(dst []byte, h map[string]string) []byte {
	var scratch [8]string
	keys := scratch[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(dst, strings.ToLower(k)...)
		dst = append(dst, ": "...)
		dst = append(dst, h[k]...)
		dst = append(dst, '\n')
	}
	return dst
}

func readHeaders(sc *bufio.Scanner, set func(k, v string)) error {
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			return nil
		}
		// The scanner strips one trailing CR; any other CR would not
		// survive a round trip through the encoder.
		k, v, ok := strings.Cut(line, ": ")
		if !ok || strings.ContainsRune(line, '\r') {
			return fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		set(strings.ToLower(k), v)
	}
	// A scanner error (e.g. a header line exceeding the buffer limit) must
	// surface as a parse failure, not as a silently truncated header set.
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("%w: %w: reading headers", ErrMalformed, ErrTooLong)
		}
		return fmt.Errorf("%w: reading headers: %v", ErrMalformed, err)
	}
	return nil
}
