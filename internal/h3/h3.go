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
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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

// maxLine is the length, newline excluded, from which a line is a flood
// rather than a header: the parsers reject it with ErrTooLong.
const maxLine = 1 << 20

// ErrMalformed reports an unparseable message.
var ErrMalformed = errors.New("h3: malformed message")

// ErrTooLong reports a message with a line of 1 MiB or more (a flooded
// header line). It always arrives wrapped in ErrMalformed; match with
// errors.Is to distinguish it from ordinary malformed input.
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

// ParseRequest parses a complete request stream into a new Request.
func ParseRequest(data []byte) (*Request, error) {
	req := new(Request)
	if err := req.Parse(data); err != nil {
		return nil, err
	}
	return req, nil
}

// Parse parses a complete request stream into r, replacing every field and
// refilling r.Headers (made if nil). A receiver parsed again and again
// allocates only the strings it keeps, and none for a value equal to one it
// held before. Nothing in r aliases data. On error r holds a partial parse.
func (r *Request) Parse(data []byte) error {
	var old recycled
	old.add(r.Method, r.Path, r.Authority)
	r.Headers = old.clear(r.Headers)
	r.Authority = ""
	l := lines{rest: data}
	line, ok, long := l.next()
	if !ok {
		if long {
			return fmt.Errorf("%w: %w: reading request line", ErrMalformed, ErrTooLong)
		}
		return fmt.Errorf("%w: empty request", ErrMalformed)
	}
	var f [3][]byte
	if fields(line, f[:]) != len(f) || string(f[2]) != protoLine {
		return fmt.Errorf("%w: request line %q", ErrMalformed, string(line))
	}
	r.Method, r.Path = old.string(f[0]), old.string(f[1])
	for {
		name, v, ok, err := l.header(&old)
		if err != nil || !ok {
			return err
		}
		if name == ":authority" {
			r.Authority = old.string(v)
		} else {
			r.Headers[name] = old.string(v)
		}
	}
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
	dst = AppendStatus(dst, status, contentLength)
	dst = appendHeaders(dst, headers)
	return append(dst, '\n')
}

// AppendStatus appends the start of a response head, its status line and
// content-length, to dst. A server that writes its headers without a map
// follows it with AppendHeader lines, sorted by name, and the blank line
// ('\n') that ends the head: AppendResponseHead does the same from a map.
func AppendStatus(dst []byte, status, contentLength int) []byte {
	dst = append(dst, protoLine...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, "\ncontent-length: "...)
	dst = strconv.AppendInt(dst, int64(contentLength), 10)
	return append(dst, '\n')
}

// AppendHeader appends one header line to dst: the name lower-cased, then
// the value, written as the concatenation of its parts.
func AppendHeader(dst []byte, name string, value ...string) []byte {
	dst = append(dst, strings.ToLower(name)...)
	dst = append(dst, ": "...)
	for _, v := range value {
		dst = append(dst, v...)
	}
	return append(dst, '\n')
}

// ParseResponse parses a complete response stream into a new Response.
func ParseResponse(data []byte) (*Response, error) {
	resp := new(Response)
	if err := resp.Parse(data); err != nil {
		return nil, err
	}
	return resp, nil
}

// Parse parses a complete response stream into r, replacing every field and
// refilling r.Headers (made if nil). A receiver parsed again and again
// allocates only the strings it keeps, and none for a value equal to one it
// held before. r.Body aliases data; no string in r does. On error r holds a
// partial parse.
func (r *Response) Parse(data []byte) error {
	i := bytes.Index(data, []byte("\n\n"))
	if i < 0 {
		return fmt.Errorf("%w: missing header terminator", ErrMalformed)
	}
	var old recycled
	r.Headers = old.clear(r.Headers)
	l := lines{rest: data[:i]}
	line, ok, long := l.next()
	if !ok {
		if long {
			return fmt.Errorf("%w: %w: reading status line", ErrMalformed, ErrTooLong)
		}
		return fmt.Errorf("%w: empty response", ErrMalformed)
	}
	var f [2][]byte
	if fields(line, f[:]) != len(f) || string(f[0]) != protoLine {
		return fmt.Errorf("%w: status line %q", ErrMalformed, string(line))
	}
	status, err := strconv.Atoi(string(f[1]))
	if err != nil {
		return fmt.Errorf("%w: status %q", ErrMalformed, string(f[1]))
	}
	r.Status = status
	// The last content-length line decides; a bad one anywhere rejects the
	// response, but only once the whole head has parsed.
	clen, clenErr := -1, error(nil)
	for {
		name, v, ok, err := l.header(&old)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if name != "content-length" {
			r.Headers[name] = old.string(v)
			continue
		}
		switch n, err := strconv.Atoi(string(v)); {
		case err != nil || n < 0:
			clenErr = fmt.Errorf("%w: content-length %q", ErrMalformed, string(v))
		case n > MaxContentLength:
			// Reject before anyone trusts the declaration enough to
			// allocate for it.
			clenErr = fmt.Errorf("%w: %w: content-length %d", ErrMalformed, ErrOversized, n)
		default:
			clen = n
		}
	}
	if clenErr != nil {
		return clenErr
	}
	body := data[i+2:]
	if clen >= 0 && clen != len(body) {
		return fmt.Errorf("%w: content-length %d, body %d", ErrMalformed, clen, len(body))
	}
	r.Body = body
	return nil
}

// appendHeaders is the one header writer from a map: AppendHeader lines,
// sorted by the name as given.
func appendHeaders(dst []byte, h map[string]string) []byte {
	var scratch [8]string
	keys := scratch[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = AppendHeader(dst, k, h[k])
	}
	return dst
}

// lines walks a message line by line over its bytes.
type lines struct{ rest []byte }

// next returns the next line without its newline and without one trailing
// CR. ok is false at the end of the data, and for a line of maxLine bytes or
// more, which long reports.
func (l *lines) next() (line []byte, ok, long bool) {
	if len(l.rest) == 0 {
		return nil, false, false
	}
	n := bytes.IndexByte(l.rest[:min(len(l.rest), maxLine)], '\n')
	switch {
	case n >= 0:
		line, l.rest = l.rest[:n], l.rest[n+1:]
	case len(l.rest) >= maxLine:
		return nil, false, true
	default:
		line, l.rest = l.rest, nil
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, true, false
}

// header returns the next header line's name, lower-cased, and its value.
// ok is false at the blank line that ends the headers, at the end of the
// data, and with err set for a malformed or too long line. A name not
// interned is taken from old when it holds it.
func (l *lines) header(old *recycled) (name string, value []byte, ok bool, err error) {
	line, ok, long := l.next()
	if long {
		return "", nil, false, fmt.Errorf("%w: %w: reading headers", ErrMalformed, ErrTooLong)
	}
	if !ok || len(line) == 0 {
		return "", nil, false, nil
	}
	// Only the one trailing CR goes; any other would not survive a round
	// trip through the encoder.
	i := bytes.Index(line, []byte(": "))
	if i < 0 || bytes.IndexByte(line, '\r') >= 0 {
		return "", nil, false, fmt.Errorf("%w: header line %q", ErrMalformed, string(line))
	}
	return headerName(line[:i], old), line[i+2:], true, nil
}

// headerName returns b lower-cased as strings.ToLower would, with the names
// this package's peers send interned, and any other taken from old when it
// holds it.
func headerName(b []byte, old *recycled) string {
	var buf [32]byte
	upper := false
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return strings.ToLower(string(b))
		}
		upper = upper || 'A' <= c && c <= 'Z'
	}
	if upper && len(b) <= len(buf) {
		for i, c := range b {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		b = buf[:len(b)]
	} else if upper {
		return strings.ToLower(string(b))
	}
	switch string(b) {
	case ":authority":
		return ":authority"
	case "content-length":
		return "content-length"
	case "content-type":
		return "content-type"
	case "location":
		return "location"
	case "server":
		return "server"
	case "user-agent":
		return "user-agent"
	}
	return old.string(b)
}

// fields splits line around runs of white space, as strings.Fields does,
// into dst. It returns the number of fields, which may exceed len(dst).
func fields(line []byte, dst [][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < len(dst) {
				dst[n] = line[start:i]
			}
			n, start = n+1, -1
		}
		i += size
	}
	if start >= 0 {
		if n < len(dst) {
			dst[n] = line[start:]
		}
		n++
	}
	return n
}

// recycled holds the strings a receiver kept from its previous parse, so
// that parsing a value equal to one of them reuses it instead of copying.
type recycled struct {
	s [16]string
	n int
}

func (p *recycled) add(s ...string) {
	for _, s := range s {
		if s != "" && p.n < len(p.s) {
			p.s[p.n] = s
			p.n++
		}
	}
}

// clear records h's names and values and empties h, or makes h if it is
// nil.
func (p *recycled) clear(h map[string]string) map[string]string {
	if h == nil {
		return map[string]string{}
	}
	for k, v := range h {
		p.add(k, v)
	}
	clear(h)
	return h
}

// string returns b as a string: a recycled one with the same bytes, or a
// copy. It never aliases b.
func (p *recycled) string(b []byte) string {
	for _, s := range p.s[:p.n] {
		if s == string(b) {
			return s
		}
	}
	return string(b)
}
