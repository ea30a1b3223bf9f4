// Package resilience is the campaign-survival layer of the scanner: it
// decides which failures are worth retrying, and how a multi-hour campaign
// over hundreds of millions of domains survives a crash without losing
// completed work.
//
// Everything in this package is deterministic by construction:
//
//   - Retry backoff runs in virtual time and draws jitter from the caller's
//     per-domain random stream, so retried scans remain a pure function of
//     (Seed, Week, domain) — byte-identical across worker counts.
//   - The checkpoint journal is an append-only sharded JSONL log whose
//     replay is order-insensitive (last write per key wins), so an
//     interrupted campaign resumes to the exact result an uninterrupted
//     run would have produced.
//
// Classify is the one place where error text becomes a Class. The scanner
// calls it once per failed connection, when it records the failure (and
// when it decodes one from a journal or a qlog trace); every reader —
// retries, telemetry and Table 5 — reads the class the connection
// carries, scanner.ConnResult.ErrClass. Only a DNS failure's text is
// classified where it is read, by the retry path and the trace outcome.
package resilience

import "strings"

// Class buckets a scan failure for retry decisions and Table 5. One byte:
// a scanner.ConnResult carries its class beside the error text.
type Class uint8

const (
	// ClassNone marks success (no error).
	ClassNone Class = iota
	// ClassDNSTimeout is an unresponsive authoritative server — transient.
	ClassDNSTimeout
	// ClassHandshakeTimeout is a QUIC handshake or response timeout —
	// transient (filtered UDP, rate limiting, momentary outage).
	ClassHandshakeTimeout
	// ClassStall marks an emulated event loop killed by the watchdog —
	// transient from the campaign's perspective (the domain can be retried
	// on a rebuilt engine).
	ClassStall
	// ClassNXDomain is a name that does not exist — permanent.
	ClassNXDomain
	// ClassNoRecord is a name without a record of the queried type —
	// permanent.
	ClassNoRecord
	// ClassReset is a connection reset or close by the peer — permanent
	// (the host is reachable and said no).
	ClassReset
	// ClassH3 is an HTTP/3-lite protocol error — permanent.
	ClassH3
	// ClassPanic is a scanner-side panic converted into a result by worker
	// isolation — not retried (it is our bug, not the network's).
	ClassPanic
	// ClassBreakerOpen marks a domain an open circuit breaker skipped. The
	// scanner no longer has a breaker and never produces it; the value is
	// reserved so the classes after it keep their numbers, and a checkpoint
	// journaled with the breaker on replays with the class it was written
	// with.
	ClassBreakerOpen
	// ClassHostile marks an endpoint classified as deliberately misbehaving
	// (protocol violations, floods, exceeded resource budgets) — permanent:
	// never retried (the host answered; it is broken, not unreachable).
	ClassHostile
	// ClassOther is any unrecognised failure — permanent.
	ClassOther
)

// String returns the telemetry label of the class.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassDNSTimeout:
		return "dns-timeout"
	case ClassHandshakeTimeout:
		return "handshake-timeout"
	case ClassStall:
		return "stall"
	case ClassNXDomain:
		return "nxdomain"
	case ClassNoRecord:
		return "norecord"
	case ClassReset:
		return "reset"
	case ClassH3:
		return "h3"
	case ClassPanic:
		return "panic"
	case ClassBreakerOpen:
		return "breaker"
	case ClassHostile:
		return "hostile"
	default:
		return "other"
	}
}

// Transient reports whether the class is worth retrying: the failure may
// resolve itself on a later attempt without the target having changed.
func (c Class) Transient() bool {
	return c == ClassDNSTimeout || c == ClassHandshakeTimeout || c == ClassStall
}

// Classify buckets an error string. An empty string is ClassNone. It runs
// where error text is recorded or decoded, not where a class is read.
func Classify(s string) Class {
	switch {
	case s == "":
		return ClassNone
	case strings.HasPrefix(s, "panic:"):
		return ClassPanic
	case strings.HasPrefix(s, "stall:"):
		return ClassStall
	case strings.HasPrefix(s, "breaker:"):
		return ClassBreakerOpen
	case strings.HasPrefix(s, "hostile:"):
		// Must precede the substring checks: hostile classes may mention
		// resets or packets without being any of those failures.
		return ClassHostile
	case strings.Contains(s, "NXDOMAIN"):
		return ClassNXDomain
	case strings.Contains(s, "no record"):
		return ClassNoRecord
	case strings.Contains(s, "timed out"):
		return ClassDNSTimeout
	case strings.Contains(s, "timeout"):
		return ClassHandshakeTimeout
	case strings.Contains(s, "reset") || strings.Contains(s, "closed"):
		return ClassReset
	case strings.Contains(s, "h3"):
		return ClassH3
	default:
		return ClassOther
	}
}
