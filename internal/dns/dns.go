// Package dns provides the name-resolution substrate of the measurement
// campaign. The paper resolves >200 M domains through real DNS; this
// package substitutes a deterministic synthetic resolver backed by zone
// data (from internal/websim) with configurable failure modes, reproducing
// the Total→Resolved attrition visible in Tables 1 and 4.
package dns

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"quicspin/internal/fault"
)

// Common resolution errors: the kinds a Failure unwraps to.
var (
	// ErrNXDomain reports a name that does not exist.
	ErrNXDomain = errors.New(kindText[NXDomain])
	// ErrTimeout reports an unresponsive authoritative server.
	ErrTimeout = errors.New(kindText[Timeout])
	// ErrNoRecord reports a name that exists but has no record of the
	// queried type (e.g. AAAA query for a v4-only host).
	ErrNoRecord = errors.New(kindText[NoRecord])
)

// Kind is what a failed lookup ran into. The zero Kind is no failure.
type Kind uint8

// The failure kinds.
const (
	// NXDomain is a name that does not exist.
	NXDomain Kind = 1 + iota
	// Timeout is an unresponsive authoritative server.
	Timeout
	// NoRecord is a name without a record of the queried type.
	NoRecord
	numKinds
)

// kindText is each kind's error text, the prefix of a Failure's.
var kindText = [numKinds]string{
	NXDomain: "dns: NXDOMAIN",
	Timeout:  "dns: query timed out",
	NoRecord: "dns: no record of requested type",
}

// err is k's sentinel error, nil for the zero Kind and any unknown one.
func (k Kind) err() error {
	switch k {
	case NXDomain:
		return ErrNXDomain
	case Timeout:
		return ErrTimeout
	case NoRecord:
		return ErrNoRecord
	}
	return nil
}

// RType selects the record type of a query.
type RType uint8

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

// cacheEntry memoises a lookup outcome, a failure as its kind. Injected
// timeouts are never cached — they model transient auth failures.
type cacheEntry struct {
	addrs []netip.Addr
	kind  Kind
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
// Normalize). The result is the caller's own copy. A failure is the lookup's
// Failure, which unwraps to its kind's error (ErrNXDomain, ErrTimeout or
// ErrNoRecord) and reads as ErrText spells it.
func (r *Resolver) LookupAttempt(name string, t RType, attempt int) ([]netip.Addr, error) {
	addrs, f := r.AppendLookup(nil, Normalize(name), t, attempt)
	if !f.IsZero() {
		return nil, f
	}
	return addrs, nil
}

// AppendLookup is LookupAttempt appending the addresses to dst, so a caller
// with storage of its own resolves without allocating. The appended
// addresses are a copy: nothing the caller does to dst reaches the backend
// or the memo. On failure dst is returned unchanged with the Failure, which
// holds name itself: recording it allocates nothing. The Failure is zero on
// success. name must be canonical (see Normalize): AppendLookup queries it as
// it is.
func (r *Resolver) AppendLookup(dst []netip.Addr, name string, t RType, attempt int) ([]netip.Addr, Failure) {
	r.stats.Queries++
	// The plan outranks the cache: an injected timeout must fire even for
	// cached names, or injected-failure tests would depend on which worker
	// warmed the cache first. A name without a zone has no server to time
	// out.
	if r.faults != nil {
		if _, ok := r.backend.Zone(name); ok && r.faults.Hit(fault.DNS, fault.Timeout, name, attempt) {
			return dst, r.finish(Timeout, name, t)
		}
	}
	key := cacheKey{name, t}
	if r.cache != nil {
		if e, ok := r.cache[key]; ok {
			r.stats.CacheHits++
			if e.kind != 0 {
				return dst, r.finish(e.kind, name, t)
			}
			return append(dst, e.addrs...), r.finish(0, name, t)
		}
		r.stats.CacheMisses++
	}
	addrs, kind := r.lookup(name, t)
	if r.cache != nil && kind != Timeout {
		r.cache[key] = cacheEntry{addrs: addrs, kind: kind}
	}
	if kind != 0 {
		return dst, r.finish(kind, name, t)
	}
	return append(dst, addrs...), r.finish(0, name, t)
}

// lookup performs the uncached resolution against the backend. A failure is
// its kind.
func (r *Resolver) lookup(name string, t RType) ([]netip.Addr, Kind) {
	rec, ok := r.backend.Zone(name)
	if !ok {
		return nil, NXDomain
	}
	if r.TimeoutRate > 0 && r.rng.Float64() < r.TimeoutRate {
		return nil, Timeout
	}
	var addrs []netip.Addr
	switch t {
	case TypeA:
		addrs = rec.A
	case TypeAAAA:
		addrs = rec.AAAA
	}
	if len(addrs) == 0 {
		return nil, NoRecord
	}
	return addrs, 0
}

// finish tallies a lookup outcome of kind (0 for success) for name and t,
// and returns its Failure.
func (r *Resolver) finish(kind Kind, name string, t RType) Failure {
	switch kind {
	case 0:
		r.stats.Resolved++
		return Failure{}
	case NXDomain:
		r.stats.NXDomain++
		// The name does not exist for any type: the failure is the same
		// whichever was queried, and its text names none.
		t = TypeA
	case Timeout:
		r.stats.Timeouts++
	case NoRecord:
		r.stats.NoRecord++
	}
	return Failure{Kind: kind, Type: t, Name: name}
}

// ErrText spells a failed lookup of name for type t, whose kind is the
// error kind: "dns: NXDOMAIN: <name>" for a name that does not exist, and
// the kind's text followed by ": <name> <type>" otherwise. It is what a
// Failure's Error returns, built with one allocation. name is spelled as it
// is given.
func ErrText(kind error, name string, t RType) string {
	if kind == ErrNXDomain {
		return kind.Error() + ": " + name
	}
	return kind.Error() + ": " + name + " " + t.String()
}

// Failure is a failed lookup: its kind, the record type and the name as
// queried. The zero Failure is no failure. It holds the name the caller
// already has, so recording one allocates nothing; it is spelled (Error,
// AppendText) only where it is printed or encoded. Its text form is the one
// ErrText spells, and MarshalText and UnmarshalText carry it through JSON
// as that text.
type Failure struct {
	Kind Kind
	// Type is the queried record type; TypeA for NXDOMAIN, which names no
	// type.
	Type RType
	Name string
}

// IsZero reports whether f is no failure.
func (f Failure) IsZero() bool { return f.Kind == 0 }

// Error spells f as ErrText does; the zero Failure is "".
func (f Failure) Error() string {
	if k := f.Kind.err(); k != nil {
		return ErrText(k, f.Name, f.Type)
	}
	return ""
}

// String is Error.
func (f Failure) String() string { return f.Error() }

// Unwrap returns f's kind as its error (ErrNXDomain, ErrTimeout or
// ErrNoRecord), so errors.Is matches a failure by kind.
func (f Failure) Unwrap() error { return f.Kind.err() }

// AppendText appends f's text, as Error spells it, to b without allocating
// beyond b's growth. The zero Failure appends nothing; a Failure of no
// known kind is an error.
func (f Failure) AppendText(b []byte) ([]byte, error) {
	if f.Kind == 0 {
		return b, nil
	}
	if f.Kind >= numKinds {
		return b, fmt.Errorf("dns: unknown failure kind %d", f.Kind)
	}
	b = append(b, kindText[f.Kind]...)
	b = append(b, ": "...)
	b = append(b, f.Name...)
	if f.Kind != NXDomain {
		b = append(b, ' ')
		b = append(b, f.Type.String()...)
	}
	return b, nil
}

// MarshalText is AppendText into a new slice.
func (f Failure) MarshalText() ([]byte, error) {
	return f.AppendText(nil)
}

// UnmarshalText parses text as AppendText spells it: empty text is the zero
// Failure, and text of no kind, or of a kind without its ": <name>" or its
// record type, is an error.
func (f *Failure) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*f = Failure{}
		return nil
	}
	s := string(text)
	for k := NXDomain; k < numKinds; k++ {
		rest, ok := strings.CutPrefix(s, kindText[k])
		if !ok {
			continue
		}
		name, ok := strings.CutPrefix(rest, ": ")
		t := TypeA
		if ok && k != NXDomain {
			if name, ok = strings.CutSuffix(name, " AAAA"); ok {
				t = TypeAAAA
			} else {
				name, ok = strings.CutSuffix(name, " A")
			}
		}
		if !ok {
			break
		}
		*f = Failure{Kind: k, Type: t, Name: name}
		return nil
	}
	return fmt.Errorf("dns: not a lookup failure: %q", text)
}

// Stats returns a snapshot of resolver counters.
func (r *Resolver) Stats() Stats { return r.stats }
