// Package dns provides the name-resolution substrate of the measurement
// campaign. The paper resolves >200 M domains through real DNS; this
// package substitutes a deterministic synthetic resolver backed by zone
// data (from internal/websim) with configurable failure modes, reproducing
// the Total→Resolved attrition visible in Tables 1 and 4.
package dns

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"

	"quicspin/internal/fault"
)

// Common resolution errors.
var (
	// ErrNXDomain reports a name that does not exist.
	ErrNXDomain = errors.New("dns: NXDOMAIN")
	// ErrTimeout reports an unresponsive authoritative server.
	ErrTimeout = errors.New("dns: query timed out")
	// ErrNoRecord reports a name that exists but has no record of the
	// queried type (e.g. AAAA query for a v4-only host).
	ErrNoRecord = errors.New("dns: no record of requested type")
)

// RType selects the record type of a query.
type RType int

const (
	// TypeA queries IPv4 addresses.
	TypeA RType = iota
	// TypeAAAA queries IPv6 addresses.
	TypeAAAA
)

// String returns the conventional record-type name.
func (t RType) String() string {
	if t == TypeAAAA {
		return "AAAA"
	}
	return "A"
}

// Record is the address data of one name.
type Record struct {
	A    []netip.Addr
	AAAA []netip.Addr
}

// Backend supplies ground-truth zone data.
type Backend interface {
	// Zone returns the record for a fully-qualified name (no trailing
	// dot), and whether the name exists. The record's slices may alias
	// the backend's storage, so a caller must not write to them.
	Zone(name string) (Record, bool)
}

// Resolver resolves names against a Backend with injected failures. It is
// owned by one goroutine: a campaign builds one per worker, and nothing
// locks it. Its Stats are the only record of what it resolved; the scanner
// publishes their deltas to the campaign's telemetry.
type Resolver struct {
	backend Backend
	// TimeoutRate is the probability that a query times out even though
	// the name exists (lame delegations, rate-limited auths, …).
	TimeoutRate float64

	rng *rand.Rand

	stats Stats
	cache map[cacheKey]cacheEntry

	// faults, when set, times out lookups the plan's dns rules select. See
	// SetFaults.
	faults *fault.Plan
}

// Stats counts resolver outcomes.
type Stats struct {
	Queries  int
	Resolved int
	NXDomain int
	Timeouts int
	NoRecord int
	// CacheHits counts lookups answered from the resolver cache (see
	// EnableCache); they are also counted in Queries and the outcome
	// fields, so attrition ratios stay meaningful.
	CacheHits int
	// CacheMisses counts lookups the enabled cache could not answer. A
	// lookup an injected fault times out consults no cache and is neither.
	CacheMisses int
}

// Delta returns the counts s gained since prev.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Queries:     s.Queries - prev.Queries,
		Resolved:    s.Resolved - prev.Resolved,
		NXDomain:    s.NXDomain - prev.NXDomain,
		Timeouts:    s.Timeouts - prev.Timeouts,
		NoRecord:    s.NoRecord - prev.NoRecord,
		CacheHits:   s.CacheHits - prev.CacheHits,
		CacheMisses: s.CacheMisses - prev.CacheMisses,
	}
}

// cacheKey identifies one cached lookup.
type cacheKey struct {
	name string
	t    RType
}

// cacheEntry memoises a lookup outcome, a failure as its bare kind.
// Injected timeouts are never cached — they model transient auth failures.
type cacheEntry struct {
	addrs []netip.Addr
	err   error
}

// NewResolver builds a resolver over backend; rng drives failure injection
// and must be non-nil when TimeoutRate > 0.
func NewResolver(backend Backend, rng *rand.Rand) *Resolver {
	return &Resolver{backend: backend, rng: rng}
}

// Normalize canonicalises a queried name: lowercase, no trailing dot.
func Normalize(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

// EnableCache turns on lookup memoisation: repeated queries for the same
// (name, type) — redirect chains revisiting the same hosts — are answered
// from memory. Injected timeouts are never cached. Campaign engines enable
// this and scope it to one domain with ResetCache; Stats counts the
// hit/miss split.
func (r *Resolver) EnableCache() {
	if r.cache == nil {
		r.cache = map[cacheKey]cacheEntry{}
	}
}

// SetFaults installs a fault plan: a lookup the plan's dns.timeout rules
// select at (name, attempt) times out. The plan is consulted *before* the
// cache and its decision depends only on (name, attempt), never on
// resolver state, so injected failures stay deterministic across worker
// counts and cache warm-up order. A nil plan (the default) injects nothing.
func (r *Resolver) SetFaults(plan *fault.Plan) {
	r.faults = plan
}

// ResetCache forgets every memoised lookup, keeping the memo's storage.
// Campaign engines call it once per domain: nearly every hit falls inside
// one domain's redirect chain, so a per-domain memo answers almost all of
// them while its size stays bounded by one chain.
func (r *Resolver) ResetCache() {
	clear(r.cache)
}

// Lookup resolves name to addresses of the given type (attempt 0).
func (r *Resolver) Lookup(name string, t RType) ([]netip.Addr, error) {
	return r.LookupAttempt(name, t, 0)
}

// LookupAttempt resolves name to addresses of the given type, identifying
// the caller's per-domain retry attempt (0-based) so a fault plan can fail
// the first k attempts deterministically. It canonicalises name first (see
// Normalize). The result is the caller's own copy. A failure wraps its kind
// (ErrNXDomain, ErrTimeout or ErrNoRecord) and reads as ErrText spells it.
func (r *Resolver) LookupAttempt(name string, t RType, attempt int) ([]netip.Addr, error) {
	name = Normalize(name)
	addrs, err := r.AppendLookup(nil, name, t, attempt)
	if err != nil {
		return nil, &lookupError{kind: err, text: ErrText(err, name, t)}
	}
	return addrs, nil
}

// AppendLookup is LookupAttempt appending the addresses to dst, so a caller
// with storage of its own resolves without allocating. The appended
// addresses are a copy: nothing the caller does to dst reaches the backend
// or the memo. On error dst is returned unchanged, and the error is the bare
// failure kind — ErrNXDomain, ErrTimeout or ErrNoRecord — with no name in
// it: a caller that reports the failure spells it once with ErrText. name
// must be canonical (see Normalize): AppendLookup queries it as it is.
func (r *Resolver) AppendLookup(dst []netip.Addr, name string, t RType, attempt int) ([]netip.Addr, error) {
	r.stats.Queries++
	// The plan outranks the cache: an injected timeout must fire even for
	// cached names, or injected-failure tests would depend on which worker
	// warmed the cache first. A name without a zone has no server to time
	// out.
	if r.faults != nil {
		if _, ok := r.backend.Zone(name); ok && r.faults.Hit(fault.DNS, fault.Timeout, name, attempt) {
			return dst, r.finish(ErrTimeout)
		}
	}
	key := cacheKey{name, t}
	if r.cache != nil {
		if e, ok := r.cache[key]; ok {
			r.stats.CacheHits++
			if e.err != nil {
				return dst, r.finish(e.err)
			}
			return append(dst, e.addrs...), r.finish(nil)
		}
		r.stats.CacheMisses++
	}
	addrs, err := r.lookup(name, t)
	if r.cache != nil && err != ErrTimeout {
		r.cache[key] = cacheEntry{addrs: addrs, err: err}
	}
	if err != nil {
		return dst, r.finish(err)
	}
	return append(dst, addrs...), r.finish(nil)
}

// lookup performs the uncached resolution against the backend. A failure is
// its bare kind.
func (r *Resolver) lookup(name string, t RType) ([]netip.Addr, error) {
	rec, ok := r.backend.Zone(name)
	if !ok {
		return nil, ErrNXDomain
	}
	if r.TimeoutRate > 0 && r.rng.Float64() < r.TimeoutRate {
		return nil, ErrTimeout
	}
	var addrs []netip.Addr
	switch t {
	case TypeA:
		addrs = rec.A
	case TypeAAAA:
		addrs = rec.AAAA
	}
	if len(addrs) == 0 {
		return nil, ErrNoRecord
	}
	return addrs, nil
}

// finish tallies a lookup outcome and returns its error.
func (r *Resolver) finish(err error) error {
	switch err {
	case nil:
		r.stats.Resolved++
	case ErrNXDomain:
		r.stats.NXDomain++
	case ErrTimeout:
		r.stats.Timeouts++
	case ErrNoRecord:
		r.stats.NoRecord++
	}
	return err
}

// ErrText spells a failed lookup of name for type t, whose kind AppendLookup
// returned: "dns: NXDOMAIN: <name>" for a name that does not exist, and the
// kind's text followed by ": <name> <type>" otherwise. It is the text of
// LookupAttempt's error and of a scanned domain's DNS error, built with one
// allocation. name is spelled as it is given.
func ErrText(kind error, name string, t RType) string {
	if kind == ErrNXDomain {
		return kind.Error() + ": " + name
	}
	return kind.Error() + ": " + name + " " + t.String()
}

// lookupError is LookupAttempt's failure: its kind, spelled by ErrText.
type lookupError struct {
	kind error
	text string
}

func (e *lookupError) Error() string { return e.text }
func (e *lookupError) Unwrap() error { return e.kind }

// Stats returns a snapshot of resolver counters.
func (r *Resolver) Stats() Stats { return r.stats }
