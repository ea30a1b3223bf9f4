package h3

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// The reference parsers: the bufio.Scanner implementation the package used
// before it walked the byte slice itself. The fuzz targets hold the parsers
// to them — the same accept/reject result, the same fields, the same error
// text and errors.Is classes — and nothing else calls them.

func oracleParseRequest(data []byte) (*Request, error) {
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
	if err := oracleReadHeaders(sc, func(k, v string) {
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

func oracleParseResponse(data []byte) (*Response, error) {
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
	if err := oracleReadHeaders(sc, func(k, v string) {
		if k == "content-length" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				clenErr = fmt.Errorf("%w: content-length %q", ErrMalformed, v)
				return
			}
			if n > MaxContentLength {
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

func oracleReadHeaders(sc *bufio.Scanner, set func(k, v string)) error {
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			return nil
		}
		k, v, ok := strings.Cut(line, ": ")
		if !ok || strings.ContainsRune(line, '\r') {
			return fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		set(strings.ToLower(k), v)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("%w: %w: reading headers", ErrMalformed, ErrTooLong)
		}
		return fmt.Errorf("%w: reading headers: %v", ErrMalformed, err)
	}
	return nil
}
