package websim

import (
	"encoding/binary"
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

// Keyed synthesis: the one population model. Only the organisation layer
// (orgs, address pools, spin-mode quotas, the ASDB) is drawn from the
// profile's seed in sequence. Every domain is then a pure function of its
// population index, drawn from a stream keyed by (Seed, label), and every
// server a pure function of its address, drawn from a stream keyed by
// (Seed, address). DNS answers, redirect targets and server deployments
// are therefore self-consistent, and independent of lookup order and
// worker count.
//
// The keyed model has two storages, which hold the same population.
// Generate runs the synthesis once per domain and per resolved address and
// keeps the results; GenerateLazy keeps nothing and synthesises on every
// lookup, trading speed for a memory floor that does not grow with the
// population. The streaming scanner (scanner.Run/RunStream) works with
// either, and renders the same tables on both.

// Salts separating the per-domain and per-server synthesis streams from
// each other and from scan-time randomness.
const (
	domainSalt int64 = 0x1afd0e551a7e5eed
	serverSalt int64 = 0x5eed5ca1ab1e0bad
)

// GenerateLazy builds the world of Generate(p) without materialising its
// population: domains and servers are synthesised on demand.
func GenerateLazy(p Profile) *World { return newWorld(p) }

// fnvOffset64/fnvPrime64 are the FNV-1a constants (hash/fnv, inlined to
// keep domain keying allocation-free).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64[T string | []byte](s T) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// synthDomain fills d with population index i, all but its redirect, from
// r reseeded to the key of the index's label, and returns the stream
// positioned after the domain's draws for drawRedirect. The draws, in
// order: TLD, resolvability, QUIC hosting, org, body size, v4 placement,
// v6 presence and placement.
func (w *World) synthDomain(d *Domain, i int, r *dice.Rand) *rand.Rand {
	p := w.Profile
	top := i < w.topN
	var buf [64]byte
	host := append(buf[:0], "www."...)
	if top {
		host = strconv.AppendInt(append(host, "top"...), int64(i), 10)
	} else {
		host = strconv.AppendInt(append(host, "site"...), int64(i-w.topN), 10)
	}
	// Labels are unique across the population, so streams never collide.
	rng := r.Reseed(dice.Key{Seed: p.Seed ^ int64(fnv64(host[len("www."):])) ^ domainSalt, Purpose: dice.World})
	tld := pickTLD(rng, top)
	host = append(append(host, '.'), tld...)
	*d = Domain{TLD: tld, Toplist: top, host: string(host)}
	d.Name = d.host[len("www."):]

	resolveRate := p.ZoneResolveRate
	quicRate := p.ZoneQUICRate
	if top {
		resolveRate = p.TopResolveRate
		quicRate = p.TopQUICRate
	}
	if rng.Float64() >= resolveRate {
		return rng // NXDOMAIN
	}
	d.Resolves = true
	quic := rng.Float64() < quicRate
	d.Org = w.pickOrg(rng, top, quic)
	d.BodyBytes = int(logUniform(rng, float64(p.BodyMinBytes), float64(p.BodyMaxBytes)))

	// IPv4 address (spin-enabled IPs attract more zone domains).
	d.V4 = d.Org.pick(rng, d.Org.v4Spin, d.Org.v4Rest, top)

	// IPv6: AAAA presence per org (toplist hosting may differ). Modern
	// spin-enabled stacks correlate with IPv6 rollout, which is what
	// makes Table 4's host-level spin share exceed IPv4's.
	v6Share := d.Org.V6Share
	if top && d.Org.TopV6Share >= 0 {
		v6Share = d.Org.TopV6Share
	}
	if d.Org.V6PerDomain {
		if d.Org.mode(d.V4) == core.ModeSpin {
			v6Share = min(1, v6Share*1.25)
		} else {
			v6Share *= 0.70
		}
	}
	if rng.Float64() < v6Share {
		if d.Org.V6PerDomain {
			// Host 0 is never used, so i+1 keeps addresses unique and
			// reversible (ServerAt decodes the index back out).
			d.V6 = v6At(d.Org.V6Prefix, uint64(i)+1)
		} else if len(d.Org.v6Pool) > 0 {
			d.V6 = d.Org.pick(rng, d.Org.v6Spin, d.Org.v6Rest, top)
		}
	}
	return rng
}

// drawRedirect rolls the redirect dice of the resolving QUIC domain at
// population index i, continuing its synthesis stream. It reports whether
// the landing page redirects and, when the redirect draws another
// population index, that index (-1 otherwise). The caller resolves it with
// (*Domain).redirect.
func (w *World) drawRedirect(rng *rand.Rand, i int) (redirects bool, target int) {
	p := w.Profile
	if rng.Float64() >= p.RedirectRate {
		return false, -1
	}
	n := w.NumDomains()
	if rng.Float64() < p.CrossHostRedirectRate && n > 1 {
		if j := rng.Intn(n); j != i {
			return true, j
		}
	}
	return true, -1
}

// redirect points d's landing page at t when t is a resolving QUIC domain
// (a cross-host redirect), and at d itself otherwise (canonical-self).
func (d *Domain) redirect(t *Domain) {
	if t != nil && t.quic() {
		d.RedirectTo = t.Name
		return
	}
	d.RedirectTo = d.Name
}

// mode returns the spin deployment the org's quota assigned to a pooled
// address (ModeZero when none), by its pool host.
func (o *Org) mode(addr netip.Addr) core.Mode {
	modes := o.v6Modes
	var host uint64
	if addr.Is4() {
		modes = o.v4Modes
		a := addr.As4()
		host = uint64(binary.BigEndian.Uint32(a[:]) & v4BlockHosts)
	} else {
		b := addr.As16()
		host = binary.BigEndian.Uint64(b[8:])
	}
	if host == 0 || host > uint64(len(modes)) {
		return core.ModeZero
	}
	return modes[host-1]
}

// synthServer fills s with the pooled server of org o at addr, drawn from
// r reseeded to the address's key: base RTT, then deployment churn. It
// returns s.
func (w *World) synthServer(s *Server, r *dice.Rand, o *Org, addr netip.Addr) *Server {
	var buf [64]byte
	key := fnv64(addr.AppendTo(buf[:0])) // the bytes of addr.String()
	rng := r.Reseed(dice.Key{Seed: w.Profile.Seed ^ int64(key) ^ serverSalt, Purpose: dice.World})
	*s = Server{
		Addr:          addr,
		Org:           o,
		QUIC:          o.QUICHosting,
		Software:      o.Software,
		DisableEveryN: o.DisableEveryN,
		BaseRTT:       time.Duration(logUniform(rng, o.BaseRTTMinMs, o.BaseRTTMaxMs) * msf),
		Mode:          core.ModeZero,
	}
	if s.QUIC {
		s.Mode = o.mode(addr)
	}
	weeks := w.Profile.Weeks
	s.SpinFromWeek = 1 // SpinToWeek 0: a deployment that never drops spin has no end week
	if s.Mode == core.ModeSpin && weeks > 3 && rng.Float64() >= o.StableSpinShare {
		// Deployment churn. Spin support mostly arrives with stack
		// updates and then stays (adopters); a minority of deployments
		// lose it mid-campaign (migrations to other stacks, droppers).
		if rng.Float64() < 0.7 {
			s.SpinFromWeek = 2 + rng.Intn(weeks-1) // adopted in week 2..weeks
		} else {
			s.SpinToWeek = 1 + rng.Intn(weeks-1) // dropped after week 1..weeks-1
		}
	}
	// Hash-based, draw-free assignment: a HostileFrac of 0 consumes no
	// randomness and leaves the world byte-identical to pre-hostile builds.
	if w.Profile.HostileFrac > 0 && s.QUIC {
		s.Hostile = hostile.Assign(w.Profile.Seed, addr.String(), w.Profile.HostileFrac)
	}
	return s
}

// hostIndex decodes a www-form host name to the population index its label
// names. The caller compares the host with that domain's, which rejects a
// wrong TLD or a non-canonical spelling of the number.
func (w *World) hostIndex(host string) (int, bool) {
	name, ok := strings.CutPrefix(host, "www.")
	if !ok {
		return 0, false
	}
	dot := strings.IndexByte(name, '.')
	if dot <= 0 {
		return 0, false
	}
	label := name[:dot]
	switch {
	case strings.HasPrefix(label, "top"):
		n, err := strconv.Atoi(label[len("top"):])
		if err != nil || n < 0 || n >= w.topN {
			return 0, false
		}
		return n, true
	case strings.HasPrefix(label, "site"):
		n, err := strconv.Atoi(label[len("site"):])
		if err != nil || n < 0 || n >= w.zoneN {
			return 0, false
		}
		return w.topN + n, true
	}
	return 0, false
}

// lazyDomainAt synthesises population index i with its redirect. A
// cross-host target is synthesised from the same stream once the
// domain's own draws are done.
func (w *World) lazyDomainAt(i int) *Domain {
	r := dice.New()
	d := new(Domain)
	rng := w.synthDomain(d, i, r)
	if !d.quic() {
		return d
	}
	ok, j := w.drawRedirect(rng, i)
	if !ok {
		return d
	}
	var t *Domain
	if j >= 0 {
		t = new(Domain)
		w.synthDomain(t, j, r)
	}
	d.redirect(t)
	return d
}

// zone serves a world's DNS. It decodes the population index from the
// queried name and answers from that domain: the stored one on a
// materialised world, a synthesised one on demand. Only resolving domains
// have records.
type zone struct{ w *World }

// Zone implements dns.Backend. The redirect does not reach the zone, so
// the on-demand world skips its draws.
func (z zone) Zone(name string) (dns.Record, bool) {
	i, ok := z.w.hostIndex(name)
	if !ok {
		return dns.Record{}, false
	}
	var d *Domain
	if z.w.lazy() {
		d = new(Domain)
		z.w.synthDomain(d, i, dice.New())
	} else {
		d = z.w.Domains[i]
	}
	if d.host != name || !d.Resolves {
		return dns.Record{}, false
	}
	return d.record(), true
}
