package websim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/dice"
	"quicspin/internal/dns"
	"quicspin/internal/hostile"
)

// Lazy world generation. GenerateLazy builds only the organisation layer
// (orgs, address pools, spin-mode quotas, the ASDB) eagerly; every domain
// and server is synthesised on demand from an rng keyed by (Seed, name)
// or (Seed, address). The synthesis is a pure function, so repeated
// lookups agree with each other — DNS answers, redirect targets and server
// deployments are self-consistent — and results are independent of lookup
// order and worker count.
//
// A lazy world is its own deterministic population: it is NOT
// byte-identical to the eager world of the same profile, because eager
// generation threads one rng stream through all domains in sequence while
// lazy generation gives every domain an independent stream. Within a mode,
// everything downstream (scan results, rendered tables) is reproducible;
// tests pin both modes' determinism separately. The streaming scanner
// (scanner.Run/RunStream) works with either; batch-materialising helpers
// (Lists, qlog replay) synthesise domains transiently and remain usable.

// lazyState marks a world as lazily generated and caches the population
// split.
type lazyState struct {
	topN  int
	zoneN int
}

// Salts separating the lazy per-domain and per-server rng streams from
// each other and from scan-time randomness.
const (
	lazyDomainSalt int64 = 0x1afd0e551a7e5eed
	lazyServerSalt int64 = 0x5eed5ca1ab1e0bad
)

// GenerateLazy builds a world whose population is synthesised on demand.
// The organisation layer (orgs, pools, spin quotas, ASDB) is identical to
// Generate's for the same profile; domains and servers draw from keyed
// rngs instead of the shared generation stream.
func GenerateLazy(p Profile) *World {
	w, _ := newWorld(p)
	w.buildASDB()
	w.lazy = &lazyState{
		topN:  scaled(w.Profile.TopDomains, w.Profile.Scale),
		zoneN: scaled(w.Profile.ZoneDomains, w.Profile.Scale),
	}
	return w
}

// fnvOffset64/fnvPrime64 are the FNV-1a constants (hash/fnv, inlined to
// keep domain keying allocation-free).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// lazyLabel returns the canonical label and toplist membership of
// population index i.
func (w *World) lazyLabel(i int) (label string, top bool) {
	if i < w.lazy.topN {
		return fmt.Sprintf("top%d", i), true
	}
	return fmt.Sprintf("site%d", i-w.lazy.topN), false
}

// lazyDomainRng derives the per-domain synthesis stream. Labels are unique
// across the population, so streams never collide.
func (w *World) lazyDomainRng(label string) *rand.Rand {
	return lazyRng(w.Profile.Seed ^ int64(fnv64(label)) ^ lazyDomainSalt)
}

// lazyRng returns the world-synthesis stream of a salted key.
func lazyRng(seed int64) *rand.Rand {
	return dice.Seeded(dice.Key{Seed: seed, Purpose: dice.World})
}

// lazyDomainAt synthesises population index i, including its redirect
// assignment. The draw order mirrors eager addDomain: TLD, resolvability,
// QUIC hosting, org, body size, v4 placement, v6 dice — then the redirect
// dice that eager generation performs in its second pass, continuing the
// same per-domain stream.
func (w *World) lazyDomainAt(i int) *Domain {
	d, rng := w.lazyDomainBase(i)
	if !d.Resolves || d.Org == nil || !d.Org.QUICHosting {
		return d
	}
	p := w.Profile
	if rng.Float64() >= p.RedirectRate {
		return d
	}
	if rng.Float64() < p.CrossHostRedirectRate && w.NumDomains() > 1 {
		j := rng.Intn(w.NumDomains())
		if j != i {
			if t, _ := w.lazyDomainBase(j); t.Resolves && t.Org != nil && t.Org.QUICHosting {
				d.RedirectTo = t.Name
				return d
			}
		}
	}
	d.RedirectTo = d.Name // canonical-self redirect
	return d
}

// lazyDomainBase synthesises a domain without its redirect assignment
// (redirect targets use it to break the recursion) and returns the
// per-domain rng positioned after the base draws.
func (w *World) lazyDomainBase(i int) (*Domain, *rand.Rand) {
	p := w.Profile
	label, top := w.lazyLabel(i)
	rng := w.lazyDomainRng(label)
	tld := pickTLD(rng, top)
	d := newDomain(label, tld, top)

	resolveRate := p.ZoneResolveRate
	quicRate := p.ZoneQUICRate
	if top {
		resolveRate = p.TopResolveRate
		quicRate = p.TopQUICRate
	}
	if rng.Float64() >= resolveRate {
		return d, rng // NXDOMAIN
	}
	d.Resolves = true
	quic := rng.Float64() < quicRate
	d.Org = w.pickOrg(rng, top, quic)
	d.BodyBytes = int(logUniform(rng, float64(p.BodyMinBytes), float64(p.BodyMaxBytes)))

	d.V4 = d.Org.pick(rng, d.Org.v4Spin, d.Org.v4Rest, top)

	v6Share := d.Org.V6Share
	if top && d.Org.TopV6Share >= 0 {
		v6Share = d.Org.TopV6Share
	}
	if d.Org.V6PerDomain {
		if w.lazyServerMode(d.Org, d.V4) == core.ModeSpin {
			v6Share = min(1, v6Share*1.25)
		} else {
			v6Share *= 0.70
		}
	}
	if rng.Float64() < v6Share {
		if d.Org.V6PerDomain {
			// Index-keyed allocation replaces the eager sequential counter;
			// host 0 is never used, so i+1 keeps addresses unique and
			// reversible (lazyServerAt decodes the index back out).
			d.V6 = v6At(d.Org.V6Prefix, uint64(i)+1)
		} else if len(d.Org.v6Pool) > 0 {
			d.V6 = d.Org.pick(rng, d.Org.v6Spin, d.Org.v6Rest, top)
		}
	}
	return d, rng
}

// lazyServerMode looks up the spin-mode quota assignment of a pooled
// address (eager serverFor reads the same org table).
func (w *World) lazyServerMode(o *Org, addr netip.Addr) core.Mode {
	if m, ok := o.modes[addr]; ok {
		return m
	}
	return core.ModeZero
}

// lazyDomainByHost decodes a www-form host name back to its population
// index and re-synthesises the domain, returning nil for names outside
// the population (or whose TLD dice disagree with the queried name).
func (w *World) lazyDomainByHost(host string) *Domain {
	name, ok := strings.CutPrefix(host, "www.")
	if !ok {
		return nil
	}
	dot := strings.IndexByte(name, '.')
	if dot <= 0 {
		return nil
	}
	label := name[:dot]
	var idx int
	switch {
	case strings.HasPrefix(label, "top"):
		n, err := strconv.Atoi(label[3:])
		if err != nil || n < 0 || n >= w.lazy.topN {
			return nil
		}
		idx = n
	case strings.HasPrefix(label, "site"):
		n, err := strconv.Atoi(label[4:])
		if err != nil || n < 0 || n >= w.lazy.zoneN {
			return nil
		}
		idx = w.lazy.topN + n
	default:
		return nil
	}
	d := w.lazyDomainAt(idx)
	if d.Name != name {
		return nil // TLD mismatch: the queried name does not exist
	}
	return d
}

// lazyZone adapts lazy domain synthesis to the dns.Backend interface.
type lazyZone struct{ w *World }

// Zone implements dns.Backend: only resolving domains have records, with
// A/AAAA presence matching the domain's address dice.
func (z lazyZone) Zone(name string) (dns.Record, bool) {
	d := z.w.DomainByHost(name)
	if d == nil || !d.Resolves {
		return dns.Record{}, false
	}
	rec := dns.Record{}
	if d.V4.IsValid() {
		rec.A = []netip.Addr{d.V4}
	}
	if d.V6.IsValid() {
		rec.AAAA = []netip.Addr{d.V6}
	}
	return rec, true
}

// lazyServerAt synthesises the server deployed at addr, or nil for
// blackhole/unallocated space. Pooled addresses draw their deployment from
// an address-keyed rng; per-domain v6 addresses front the same stack as
// the owning domain's v4 server, like eager cloneServer.
func (w *World) lazyServerAt(addr netip.Addr) *Server {
	for _, o := range w.Orgs {
		switch {
		case o.V4Prefix.Contains(addr):
			if host, ok := v4HostIndex(o.V4Prefix, addr); ok && host >= 1 && int(host) <= len(o.v4Pool) {
				return w.lazyServer(o, addr)
			}
			return nil
		case o.V6Prefix.Contains(addr):
			host := v6HostIndex(addr)
			if o.V6PerDomain {
				if host < 1 || host > uint64(w.NumDomains()) {
					return nil
				}
				d, _ := w.lazyDomainBase(int(host - 1))
				if d.V6 != addr || !d.V4.IsValid() {
					return nil
				}
				src := w.lazyServer(o, d.V4)
				cp := *src
				cp.Addr = addr
				return &cp
			}
			if host >= 1 && int(host) <= len(o.v6Pool) {
				return w.lazyServer(o, addr)
			}
			return nil
		}
	}
	return nil
}

// lazyServer synthesises a pooled server with the draw order of eager
// serverFor (base RTT, then deployment churn), from an rng keyed by the
// address.
func (w *World) lazyServer(o *Org, addr netip.Addr) *Server {
	rng := lazyRng(w.Profile.Seed ^ int64(fnv64(addr.String())) ^ lazyServerSalt)
	s := &Server{
		Addr:          addr,
		Org:           o,
		QUIC:          o.QUICHosting,
		Software:      o.Software,
		DisableEveryN: o.DisableEveryN,
		BaseRTT:       time.Duration(logUniform(rng, o.BaseRTTMinMs, o.BaseRTTMaxMs) * msf),
		Mode:          core.ModeZero,
	}
	if s.QUIC {
		s.Mode = w.lazyServerMode(o, addr)
	}
	weeks := w.Profile.Weeks
	if weeks < 1 {
		weeks = 1
	}
	s.SpinFromWeek, s.SpinToWeek = 1, weeks
	if s.Mode == core.ModeSpin && weeks > 3 && rng.Float64() >= o.StableSpinShare {
		if rng.Float64() < 0.7 {
			s.SpinFromWeek = 2 + rng.Intn(weeks-1)
		} else {
			s.SpinToWeek = 1 + rng.Intn(weeks-1)
		}
	}
	if w.Profile.HostileFrac > 0 && s.QUIC {
		s.Hostile = hostile.Assign(w.Profile.Seed, addr.String(), w.Profile.HostileFrac)
	}
	return s
}

// v4HostIndex recovers the pool index encoded by v4At.
func v4HostIndex(p netip.Prefix, addr netip.Addr) (uint32, bool) {
	if !addr.Is4() {
		return 0, false
	}
	b := p.Addr().As4()
	base := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	a := addr.As4()
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	if v < base {
		return 0, false
	}
	return v - base, true
}

// v6HostIndex recovers the host counter encoded by v6At (low 8 bytes).
func v6HostIndex(addr netip.Addr) uint64 {
	b := addr.As16()
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[15-i]) << (8 * i)
	}
	return v
}
