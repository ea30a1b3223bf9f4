package websim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"quicspin/internal/asdb"
	"quicspin/internal/core"
	"quicspin/internal/dns"
	"quicspin/internal/hostile"
	"quicspin/internal/netem"
)

// Org is one instantiated hosting organisation.
type Org struct {
	OrgProfile
	// QUICHosting reports whether the org's servers speak QUIC at all.
	QUICHosting bool
	V4Prefix    netip.Prefix
	V6Prefix    netip.Prefix
	v4Pool      []netip.Addr
	v6Pool      []netip.Addr
	v6Next      uint64 // allocator for per-domain v6 addresses
	// modes pre-assigns the spin deployment of each pool address by
	// quota, so small scaled-down pools still hit the org's configured
	// SpinIPShare exactly instead of suffering Bernoulli noise.
	modes map[netip.Addr]core.Mode
	// spin/rest split each pool for density-weighted domain placement.
	v4Spin, v4Rest []netip.Addr
	v6Spin, v6Rest []netip.Addr
}

// pick draws a server address for a new domain: with density weighting
// toward spin-enabled IPs for zone domains, uniformly for toplist ones. The
// density models shared-hosting IPs packed with long-tail zone sites, which
// toplist sites rarely share (Table 1: 15.2 % of toplist IPs spin, ≈ 45 %
// of CZDS IPs).
func (o *Org) pick(rng *rand.Rand, spin, rest []netip.Addr, top bool) netip.Addr {
	w := o.SpinIPDensity
	if w <= 0 || top {
		w = 1
	}
	ns, nr := len(spin), len(rest)
	switch {
	case ns == 0:
		return rest[rng.Intn(nr)]
	case nr == 0:
		return spin[rng.Intn(ns)]
	}
	if rng.Float64() < w*float64(ns)/(w*float64(ns)+float64(nr)) {
		return spin[rng.Intn(ns)]
	}
	return rest[rng.Intn(nr)]
}

// splitPools partitions the pools by assigned mode for weighted placement.
func (o *Org) splitPools() {
	split := func(pool []netip.Addr) (spin, rest []netip.Addr) {
		for _, a := range pool {
			// Note: ModeSpin is the zero Mode, so presence in the map
			// must be checked explicitly.
			if m, ok := o.modes[a]; ok && m == core.ModeSpin {
				spin = append(spin, a)
			} else {
				rest = append(rest, a)
			}
		}
		return
	}
	o.v4Spin, o.v4Rest = split(o.v4Pool)
	o.v6Spin, o.v6Rest = split(o.v6Pool)
}

// assignModes deals out spin deployments over a pool: an exact quota of
// spin-enabled stacks, plus the (rare) all-one and per-packet-grease
// configurations, at randomly permuted positions.
func (o *Org) assignModes(rng *rand.Rand, pool []netip.Addr) {
	if o.modes == nil {
		o.modes = map[netip.Addr]core.Mode{}
	}
	n := len(pool)
	if n == 0 {
		return
	}
	// Probabilistic rounding keeps the expected share unbiased even for
	// pools scaled down to one or two addresses.
	quota := func(share float64) int {
		exact := share * float64(n)
		q := int(exact)
		if rng.Float64() < exact-float64(q) {
			q++
		}
		return q
	}
	nSpin, nOne, nGrease := quota(o.SpinIPShare), quota(o.AllOneIPShare), quota(o.GreaseIPShare)
	perm := rng.Perm(n)
	idx := 0
	take := func(k int, m core.Mode) {
		for i := 0; i < k && idx < n; i++ {
			o.modes[pool[perm[idx]]] = m
			idx++
		}
	}
	take(nSpin, core.ModeSpin)
	take(nOne, core.ModeOne)
	take(nGrease, core.ModeGreasePerPacket)
}

// Server is one addressable webserver (one IP).
type Server struct {
	Addr netip.Addr
	Org  *Org
	// QUIC reports whether the server answers QUIC at all; non-QUIC
	// servers are UDP blackholes to the scanner.
	QUIC bool
	// Mode is the deployed spin behaviour of the stack on this IP.
	Mode core.Mode
	// DisableEveryN is the RFC 1-in-N disable rule in effect when spinning.
	DisableEveryN int
	// Software is the Server response header.
	Software string
	// BaseRTT is the network round-trip time from the vantage point.
	BaseRTT time.Duration
	// SpinFromWeek and SpinToWeek bound (inclusive, 1-based) the weeks in
	// which a ModeSpin deployment is actually present; outside the window
	// the server behaves like ModeZero (deployment churn, Fig. 2).
	SpinFromWeek, SpinToWeek int
	// Hostile is the endpoint-misbehavior profile of this deployment
	// (hostile.None for the well-behaved majority).
	Hostile hostile.Profile
}

// PolicyForWeek returns the transport spin policy of this server in the
// given 1-based campaign week.
func (s *Server) PolicyForWeek(week int) core.Policy {
	mode := s.Mode
	if mode == core.ModeSpin && (week < s.SpinFromWeek || week > s.SpinToWeek) {
		mode = core.ModeZero
	}
	return spinPolicyFor(mode, s.DisableEveryN)
}

// ProcessingDelay draws the application processing delay for one request.
func (s *Server) ProcessingDelay(rng *rand.Rand) time.Duration {
	p := s.Org.OrgProfile
	if rng.Float64() < p.FastResponseShare {
		return time.Duration((1 + rng.Float64()*(p.FastDelayMaxMs-1)) * msf)
	}
	return time.Duration(logUniform(rng, p.SlowDelayMinMs, p.SlowDelayMaxMs) * msf)
}

// Chunk is one scheduled application write of a response body.
type Chunk struct {
	// At is the delay after the request completed at which this chunk is
	// written (cumulative: includes TTFB and all preceding gaps).
	At time.Duration
	// Bytes is the number of response bytes written.
	Bytes int
}

// ResponsePlan draws the application-level write schedule for a response
// of total bytes: a time-to-first-byte (the processing delay), and — for
// dynamically generated pages — further chunks separated by rendering
// gaps. These gaps are the end-host delays that inflate spin-bit RTT
// measurements.
func (s *Server) ResponsePlan(rng *rand.Rand, total int) []Chunk {
	p := s.Org.OrgProfile
	ttfb := s.ProcessingDelay(rng)
	if total < 2048 || rng.Float64() >= p.DynamicShare {
		return []Chunk{{At: ttfb, Bytes: total}}
	}
	n := 2 + rng.Intn(3)
	if n > total {
		n = total
	}
	chunks := make([]Chunk, n)
	at := ttfb
	remaining := total
	for i := 0; i < n; i++ {
		size := remaining / (n - i)
		if i == n-1 {
			size = remaining
		}
		chunks[i] = Chunk{At: at, Bytes: size}
		remaining -= size
		at += time.Duration(logUniform(rng, p.GapMinMs, p.GapMaxMs) * msf)
	}
	return chunks
}

// Domain is one target domain with its ground truth.
type Domain struct {
	// Name is the registered domain, e.g. "site123.com"; the scanner
	// queries the www-form.
	Name    string
	TLD     string
	Toplist bool
	// Resolves is false for the Total−Resolved attrition of Table 1.
	Resolves bool
	Org      *Org
	V4       netip.Addr // zero when unresolvable
	V6       netip.Addr // zero when no AAAA
	// RedirectTo, when non-empty, makes requests for path "/" answer with
	// a 301 to https://www.<RedirectTo>/landing.
	RedirectTo string
	// BodyBytes is the landing-page size.
	BodyBytes int
	// host is the www-form name; Name is its suffix, so one concatenation
	// per domain serves both.
	host string
}

// newDomain builds the named domain with its www-form host; every Domain is
// built here.
func newDomain(label, tld string, top bool) *Domain {
	host := "www." + label + "." + tld
	return &Domain{Name: host[len("www."):], TLD: tld, Toplist: top, host: host}
}

// Host returns the www-form name the scanner queries.
func (d *Domain) Host() string { return d.host }

// World is a fully generated synthetic web. Worlds built by Generate
// materialise every domain and server up front; worlds built by
// GenerateLazy synthesise them on demand (Domains stays nil — use
// NumDomains and DomainAt).
type World struct {
	Profile    Profile
	Orgs       []*Org
	Domains    []*Domain
	servers    map[netip.Addr]*Server
	byHost     map[string]*Domain
	zone       dns.MapBackend
	asResolver *asdb.Resolver
	prefixes   map[netip.Prefix]uint32
	lazy       *lazyState
}

// Generate builds a world from the profile. Equal profiles yield identical
// worlds.
func Generate(p Profile) *World {
	w, rng := newWorld(p)
	w.buildDomains(rng)
	w.buildASDB()
	return w
}

// newWorld builds the organisation layer every world shares (orgs, address
// pools, spin-mode quotas) and returns the generation stream after it.
func newWorld(p Profile) (*World, *rand.Rand) {
	if p.Scale < 1 {
		p.Scale = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	w := &World{
		Profile:  p,
		servers:  map[netip.Addr]*Server{},
		byHost:   map[string]*Domain{},
		zone:     dns.MapBackend{},
		prefixes: map[netip.Prefix]uint32{},
	}
	w.buildOrgs(rng)
	return w, rng
}

func (w *World) buildOrgs(rng *rand.Rand) {
	idx := 0
	add := func(prof OrgProfile, quic bool) {
		o := &Org{OrgProfile: prof, QUICHosting: quic}
		// Each org gets a /12 IPv4 block and a /32 IPv6 block, unique by
		// index: synthetic but routable-looking address space.
		o.V4Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{32 + byte(idx>>4), byte(idx<<4) & 0xf0, 0, 0}), 12)
		o.V6Prefix = netip.PrefixFrom(netip.AddrFrom16(v6base(uint16(idx))), 32)
		pool := scaled(prof.V4Pool, w.Profile.Scale)
		o.v4Pool = make([]netip.Addr, pool)
		for i := range o.v4Pool {
			o.v4Pool[i] = v4At(o.V4Prefix, uint32(i)+1)
		}
		if !prof.V6PerDomain && prof.V6Pool > 0 {
			n := scaled(prof.V6Pool, w.Profile.Scale)
			o.v6Pool = make([]netip.Addr, n)
			for i := range o.v6Pool {
				o.v6Pool[i] = v6At(o.V6Prefix, uint64(i)+1)
			}
		}
		if quic {
			o.assignModes(rng, o.v4Pool)
			o.assignModes(rng, o.v6Pool)
		}
		o.splitPools()
		w.Orgs = append(w.Orgs, o)
		idx++
	}
	for _, prof := range w.Profile.QUICOrgs {
		add(prof, true)
	}
	for _, prof := range w.Profile.LegacyOrgs {
		add(prof, false)
	}
}

func (w *World) buildDomains(rng *rand.Rand) {
	p := w.Profile
	topN := scaled(p.TopDomains, p.Scale)
	zoneN := scaled(p.ZoneDomains, p.Scale)
	w.Domains = make([]*Domain, 0, topN+zoneN)
	for i := 0; i < topN; i++ {
		w.addDomain(rng, fmt.Sprintf("top%d", i), true)
	}
	for i := 0; i < zoneN; i++ {
		w.addDomain(rng, fmt.Sprintf("site%d", i), false)
	}
	// Cross-host redirects need the full population; assign them last.
	quicDomains := make([]*Domain, 0, 1024)
	for _, d := range w.Domains {
		if d.Resolves && d.Org.QUICHosting {
			quicDomains = append(quicDomains, d)
		}
	}
	for _, d := range quicDomains {
		if rng.Float64() >= p.RedirectRate {
			continue
		}
		if rng.Float64() < p.CrossHostRedirectRate && len(quicDomains) > 1 {
			t := quicDomains[rng.Intn(len(quicDomains))]
			if t != d {
				d.RedirectTo = t.Name
				continue
			}
		}
		d.RedirectTo = d.Name // canonical-self redirect
	}
}

var topTLDs = []struct {
	tld string
	cum float64
}{
	{"com", 0.55}, {"net", 0.60}, {"org", 0.65}, {"de", 0.75}, {"io", 0.80},
	{"co.uk", 0.86}, {"fr", 0.90}, {"jp", 0.95}, {"ru", 1.0},
}

var zoneTLDs = []struct {
	tld string
	cum float64
}{
	{"com", 0.72}, {"net", 0.805}, {"org", 0.85}, {"info", 0.90},
	{"xyz", 0.95}, {"online", 1.0},
}

// zoneSet is the set of TLDs with CZDS zone files (gTLDs only).
var zoneSet = map[string]bool{"com": true, "net": true, "org": true, "info": true, "xyz": true, "online": true}

// InZoneView reports whether a TLD's zone file is part of the CZDS view.
func InZoneView(tld string) bool { return zoneSet[tld] }

// ComNetOrg reports whether a TLD belongs to the paper's focused
// com/net/org view.
func ComNetOrg(tld string) bool { return tld == "com" || tld == "net" || tld == "org" }

func pickTLD(rng *rand.Rand, top bool) string {
	r := rng.Float64()
	if top {
		for _, t := range topTLDs {
			if r < t.cum {
				return t.tld
			}
		}
		return "com"
	}
	for _, t := range zoneTLDs {
		if r < t.cum {
			return t.tld
		}
	}
	return "com"
}

func (w *World) addDomain(rng *rand.Rand, label string, top bool) {
	p := w.Profile
	tld := pickTLD(rng, top)
	d := newDomain(label, tld, top)
	w.Domains = append(w.Domains, d)
	w.byHost[d.Host()] = d

	resolveRate := p.ZoneResolveRate
	quicRate := p.ZoneQUICRate
	if top {
		resolveRate = p.TopResolveRate
		quicRate = p.TopQUICRate
	}
	if rng.Float64() >= resolveRate {
		return // NXDOMAIN
	}
	d.Resolves = true
	quic := rng.Float64() < quicRate
	d.Org = w.pickOrg(rng, top, quic)
	d.BodyBytes = int(logUniform(rng, float64(p.BodyMinBytes), float64(p.BodyMaxBytes)))

	// IPv4 address and server (spin-enabled IPs attract more domains).
	d.V4 = d.Org.pick(rng, d.Org.v4Spin, d.Org.v4Rest, top)
	v4srv := w.serverFor(rng, d.Org, d.V4, quic)

	// IPv6: AAAA presence per org (toplist hosting may differ). Modern
	// spin-enabled stacks correlate with IPv6 rollout, which is what
	// makes Table 4's host-level spin share exceed IPv4's.
	v6Share := d.Org.V6Share
	if top && d.Org.TopV6Share >= 0 {
		v6Share = d.Org.TopV6Share
	}
	if d.Org.V6PerDomain {
		if v4srv.Mode == core.ModeSpin {
			v6Share = min(1, v6Share*1.25)
		} else {
			v6Share *= 0.70
		}
	}
	if rng.Float64() < v6Share {
		if d.Org.V6PerDomain {
			d.Org.v6Next++
			d.V6 = v6At(d.Org.V6Prefix, d.Org.v6Next)
			// Per-domain v6 addresses front the same physical stack as the
			// domain's v4 server: inherit its deployment.
			w.cloneServer(v4srv, d.V6)
		} else if len(d.Org.v6Pool) > 0 {
			d.V6 = d.Org.pick(rng, d.Org.v6Spin, d.Org.v6Rest, top)
			w.serverFor(rng, d.Org, d.V6, quic)
		}
	}

	rec := dns.Record{}
	if d.V4.IsValid() {
		rec.A = []netip.Addr{d.V4}
	}
	if d.V6.IsValid() {
		rec.AAAA = []netip.Addr{d.V6}
	}
	w.zone[d.Host()] = rec
}

// pickOrg selects the hosting organisation for a domain.
func (w *World) pickOrg(rng *rand.Rand, top, quic bool) *Org {
	var total float64
	for _, o := range w.Orgs {
		if o.QUICHosting != quic {
			continue
		}
		total += o.share(top)
	}
	r := rng.Float64() * total
	for _, o := range w.Orgs {
		if o.QUICHosting != quic {
			continue
		}
		r -= o.share(top)
		if r <= 0 {
			return o
		}
	}
	// Fall back to the last matching org (floating-point remainder).
	for i := len(w.Orgs) - 1; i >= 0; i-- {
		if w.Orgs[i].QUICHosting == quic {
			return w.Orgs[i]
		}
	}
	panic("websim: no org matches")
}

func (o *Org) share(top bool) float64 {
	if top {
		return o.TopQUICShare
	}
	return o.ZoneQUICShare
}

// serverFor returns the server at addr, creating it with org dice on first
// use.
func (w *World) serverFor(rng *rand.Rand, org *Org, addr netip.Addr, quic bool) *Server {
	if s, ok := w.servers[addr]; ok {
		return s
	}
	s := &Server{
		Addr:          addr,
		Org:           org,
		QUIC:          quic && org.QUICHosting,
		Software:      org.Software,
		DisableEveryN: org.DisableEveryN,
		BaseRTT:       time.Duration(logUniform(rng, org.BaseRTTMinMs, org.BaseRTTMaxMs) * msf),
		Mode:          core.ModeZero,
	}
	if s.QUIC {
		if m, ok := org.modes[addr]; ok {
			s.Mode = m
		}
	}
	weeks := w.Profile.Weeks
	if weeks < 1 {
		weeks = 1
	}
	s.SpinFromWeek, s.SpinToWeek = 1, weeks
	if s.Mode == core.ModeSpin && weeks > 3 && rng.Float64() >= org.StableSpinShare {
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
	w.servers[addr] = s
	return s
}

// cloneServer registers a second address fronting the same deployment.
func (w *World) cloneServer(src *Server, addr netip.Addr) *Server {
	if s, ok := w.servers[addr]; ok {
		return s
	}
	cp := *src
	cp.Addr = addr
	w.servers[addr] = &cp
	return &cp
}

func (w *World) buildASDB() {
	table := asdb.NewTable()
	orgs := asdb.NewOrgDB()
	for _, o := range w.Orgs {
		w.prefixes[o.V4Prefix] = o.ASN
		w.prefixes[o.V6Prefix] = o.ASN
		if err := table.Insert(o.V4Prefix, o.ASN); err != nil {
			panic(err) // generated prefixes are always valid
		}
		if err := table.Insert(o.V6Prefix, o.ASN); err != nil {
			panic(err)
		}
		orgs.Add(o.ASN, asdb.Org{Name: o.Name})
	}
	w.asResolver = &asdb.Resolver{Table: table, Orgs: orgs}
}

// --- accessors ----------------------------------------------------------

// NumDomains returns the population size without materialising it.
func (w *World) NumDomains() int {
	if w.lazy != nil {
		return w.lazy.topN + w.lazy.zoneN
	}
	return len(w.Domains)
}

// DomainAt returns the i-th domain of the canonical population order. On
// eagerly generated worlds it indexes Domains; on lazy worlds it
// synthesises the domain on demand (repeated calls return equal values).
func (w *World) DomainAt(i int) *Domain {
	if w.lazy != nil {
		return w.lazyDomainAt(i)
	}
	return w.Domains[i]
}

// DNSBackend exposes the world's zone data to a dns.Resolver.
func (w *World) DNSBackend() dns.Backend {
	if w.lazy != nil {
		return lazyZone{w}
	}
	return w.zone
}

// ASDB returns the IP→ASN→org attribution database (the RIS + as2org
// substitute).
func (w *World) ASDB() *asdb.Resolver { return w.asResolver }

// Prefixes returns the announced prefix→ASN map (for snapshots).
func (w *World) Prefixes() map[netip.Prefix]uint32 { return w.prefixes }

// ServerAt returns the server at addr, or nil (blackhole / unallocated).
func (w *World) ServerAt(addr netip.Addr) *Server {
	if w.lazy != nil {
		return w.lazyServerAt(addr)
	}
	return w.servers[addr]
}

// Servers returns the full server map keyed by address. Lazy worlds never
// materialise their server set and return nil.
func (w *World) Servers() map[netip.Addr]*Server { return w.servers }

// DomainByHost maps a www-form host name to its domain.
func (w *World) DomainByHost(host string) *Domain {
	if w.lazy != nil {
		return w.lazyDomainByHost(host)
	}
	return w.byHost[host]
}

// Turnaround draws one endpoint processing latency.
func (w *World) Turnaround(rng *rand.Rand) time.Duration {
	p := w.Profile
	if p.TurnaroundMaxMs <= 0 {
		return 0
	}
	return time.Duration((p.TurnaroundMinMs + rng.Float64()*(p.TurnaroundMaxMs-p.TurnaroundMinMs)) * msf)
}

// PathConfig returns the netem path shaping toward (and from) a server.
func (w *World) PathConfig(s *Server) netem.PathConfig {
	p := w.Profile
	return netem.PathConfig{
		Delay:        s.BaseRTT / 2,
		Jitter:       time.Duration(p.PathJitterMs * msf),
		LossRate:     p.PathLossRate,
		ReorderRate:  p.PathReorderRate,
		ReorderExtra: time.Duration(p.PathReorderExtraMs * msf),
	}
}

// --- helpers ------------------------------------------------------------

func scaled(n, scale int) int {
	v := n / scale
	if v < 1 {
		v = 1
	}
	return v
}

// logUniform draws from a log-uniform distribution on [lo, hi].
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if lo <= 0 {
		lo = 0.001
	}
	if hi <= lo {
		return lo
	}
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

func v4At(p netip.Prefix, host uint32) netip.Addr {
	b := p.Addr().As4()
	base := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	a := base + host
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

func v6base(idx uint16) [16]byte {
	var b [16]byte
	b[0], b[1] = 0x26, 0x00
	b[2] = byte(idx >> 8)
	b[3] = byte(idx)
	return b
}

func v6At(p netip.Prefix, host uint64) netip.Addr {
	b := p.Addr().As16()
	for i := 0; i < 8; i++ {
		b[15-i] = byte(host >> (8 * i))
	}
	return netip.AddrFrom16(b)
}
