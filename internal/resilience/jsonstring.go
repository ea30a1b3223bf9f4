package resilience

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s to dst as a JSON string, byte for byte what
// encoding/json writes for it: control bytes, the quote and the backslash
// escaped, <, > and & as \u00XX (HTML-safe, json.Marshal's default),
// invalid UTF-8 as U+FFFD, and U+2028/U+2029 escaped. Journal lines and
// the append-style record encoders are built with it, so a record reads
// the same whichever encoder wrote it.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending: bytes that are copied as they are
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
