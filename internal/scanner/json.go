package scanner

import (
	"errors"
	"strconv"
	"time"
	"unicode/utf8"

	"quicspin/internal/dns"
	"quicspin/internal/resilience"
)

// AppendJSON appends d's JSON encoding to dst: byte for byte what
// json.Marshal(d) returns, in one pass and without reflection. The
// checkpoint journal writes every scanned domain through it, so the bytes
// on disk are the ones json.Marshal wrote before it existed and
// json.Unmarshal reads them back. It fails where json.Marshal fails: on an
// observation time encoding/json cannot represent.
func (d *DomainResult) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"Domain":`...)
	dst = resilience.AppendJSONString(dst, d.Domain)
	dst = append(dst, `,"TLD":`...)
	dst = resilience.AppendJSONString(dst, d.TLD)
	dst = append(dst, `,"Toplist":`...)
	dst = strconv.AppendBool(dst, d.Toplist)
	dst = append(dst, `,"Resolved":`...)
	dst = strconv.AppendBool(dst, d.Resolved)
	dst = append(dst, `,"DNSErr":`...)
	dst, err := appendJSONFailure(dst, d.DNSErr)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"Conns":`...)
	if d.Conns == nil {
		return append(dst, `null}`...), nil
	}
	dst = append(dst, '[')
	for i := range d.Conns {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = d.Conns[i].appendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, `]}`...), nil
}

func (c *ConnResult) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"Target":`...)
	dst = resilience.AppendJSONString(dst, c.Target)
	dst = append(dst, `,"IP":`...)
	// netip.Addr marshals as its text; only a zone can hold a byte that
	// needs escaping, and the zero Addr is the empty string.
	if c.IP.Zone() == "" {
		dst = append(c.IP.AppendTo(append(dst, '"')), '"')
	} else {
		dst = resilience.AppendJSONString(dst, c.IP.String())
	}
	dst = append(dst, `,"Hop":`...)
	dst = strconv.AppendInt(dst, int64(c.Hop), 10)
	dst = append(dst, `,"Err":`...)
	dst = resilience.AppendJSONString(dst, c.Err)
	dst = append(dst, `,"QUIC":`...)
	dst = strconv.AppendBool(dst, c.QUIC)
	dst = append(dst, `,"Status":`...)
	dst = strconv.AppendInt(dst, int64(c.Status), 10)
	dst = append(dst, `,"Server":`...)
	dst = resilience.AppendJSONString(dst, c.Server)
	dst = append(dst, `,"Redirect":`...)
	dst = resilience.AppendJSONString(dst, c.Redirect)
	dst = append(dst, `,"ZeroPkts":`...)
	dst = strconv.AppendInt(dst, int64(c.ZeroPkts), 10)
	dst = append(dst, `,"OnePkts":`...)
	dst = strconv.AppendInt(dst, int64(c.OnePkts), 10)
	dst = append(dst, `,"Observations":`...)
	if c.Observations == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range c.Observations {
			if i > 0 {
				dst = append(dst, ',')
			}
			o := &c.Observations[i]
			dst = append(dst, `{"T":`...)
			var err error
			if dst, err = appendJSONTime(dst, o.T); err != nil {
				return dst, err
			}
			dst = append(dst, `,"PN":`...)
			dst = strconv.AppendUint(dst, o.PN, 10)
			dst = append(dst, `,"Spin":`...)
			dst = strconv.AppendBool(dst, o.Spin)
			dst = append(dst, `,"VEC":`...)
			dst = strconv.AppendUint(dst, uint64(o.VEC), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"StackRTTs":`...)
	if c.StackRTTs == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i, rtt := range c.StackRTTs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(rtt), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendJSONFailure appends f's text as a JSON string, as json.Marshal
// writes a TextMarshaler. The text is appended in place and quoted; only a
// text with a byte to escape, which no name of a generated world has, is
// copied out and escaped.
func appendJSONFailure(dst []byte, f dns.Failure) ([]byte, error) {
	mark := len(dst)
	dst, err := f.AppendText(append(dst, '"'))
	if err != nil {
		return dst[:mark], err
	}
	for _, b := range dst[mark+1:] {
		if b < ' ' || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			return resilience.AppendJSONString(dst[:mark], string(dst[mark+1:])), nil
		}
	}
	return append(dst, '"'), nil
}

// appendJSONTime appends t as time.Time.MarshalJSON writes it: quoted
// RFC 3339 with nanoseconds, refused outside the years and zone offsets
// RFC 3339 can express.
func appendJSONTime(dst []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, errors.New("scanner: encode observation time: year outside of range [0,9999]")
	}
	if _, off := t.Zone(); off <= -24*3600 || off >= 24*3600 {
		return dst, errors.New("scanner: encode observation time: timezone hour outside of range [0,23]")
	}
	return append(t.AppendFormat(append(dst, '"'), time.RFC3339Nano), '"'), nil
}
