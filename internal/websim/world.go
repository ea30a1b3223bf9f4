package websim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net/netip"
	"time"
	"unsafe"

	"quicspin/internal/asdb"
	"quicspin/internal/core"
	"quicspin/internal/dice"
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
	// v4Modes and v6Modes pre-assign the spin deployment of each pool
	// address, by pool host minus one, by quota, so small scaled-down pools
	// still hit the org's configured SpinIPShare exactly instead of
	// suffering Bernoulli noise.
	v4Modes, v6Modes []core.Mode
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
	split := func(pool []netip.Addr, modes []core.Mode) (spin, rest []netip.Addr) {
		for i, a := range pool {
			if i < len(modes) && modes[i] == core.ModeSpin {
				spin = append(spin, a)
			} else {
				rest = append(rest, a)
			}
		}
		return
	}
	o.v4Spin, o.v4Rest = split(o.v4Pool, o.v4Modes)
	o.v6Spin, o.v6Rest = split(o.v6Pool, o.v6Modes)
}

// assignModes deals out spin deployments over a pool: an exact quota of
// spin-enabled stacks, plus the (rare) all-one and per-packet-grease
// configurations, at randomly permuted positions. It returns the pool's
// modes, ModeZero where none was dealt.
func (o *Org) assignModes(rng *rand.Rand, pool []netip.Addr) []core.Mode {
	n := len(pool)
	modes := make([]core.Mode, n)
	for i := range modes {
		modes[i] = core.ModeZero
	}
	if n == 0 {
		return modes
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
			modes[perm[idx]] = m
			idx++
		}
	}
	take(nSpin, core.ModeSpin)
	take(nOne, core.ModeOne)
	take(nGrease, core.ModeGreasePerPacket)
	return modes
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
	// the server behaves like ModeZero (deployment churn, Fig. 2). A
	// SpinToWeek of 0 means the deployment never drops spin, so it keeps
	// spinning past the profile's last week (a -follow campaign).
	SpinFromWeek, SpinToWeek int
	// Hostile is the endpoint-misbehavior profile of this deployment
	// (hostile.None for the well-behaved majority).
	Hostile hostile.Profile
}

// PolicyForWeek returns the transport spin policy of this server in the
// given 1-based campaign week.
func (s *Server) PolicyForWeek(week int) core.Policy {
	mode := s.Mode
	if mode == core.ModeSpin && (week < s.SpinFromWeek || s.SpinToWeek > 0 && week > s.SpinToWeek) {
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
	return s.AppendResponsePlan(nil, rng, total)
}

// AppendResponsePlan is ResponsePlan appending the chunks to dst, so an
// engine plans every response into one scratch slice. It draws exactly what
// ResponsePlan draws.
func (s *Server) AppendResponsePlan(dst []Chunk, rng *rand.Rand, total int) []Chunk {
	p := s.Org.OrgProfile
	ttfb := s.ProcessingDelay(rng)
	if total < 2048 || rng.Float64() >= p.DynamicShare {
		return append(dst, Chunk{At: ttfb, Bytes: total})
	}
	n := 2 + rng.Intn(3)
	if n > total {
		n = total
	}
	at := ttfb
	remaining := total
	for i := 0; i < n; i++ {
		size := remaining / (n - i)
		if i == n-1 {
			size = remaining
		}
		dst = append(dst, Chunk{At: at, Bytes: size})
		remaining -= size
		at += time.Duration(logUniform(rng, p.GapMinMs, p.GapMaxMs) * msf)
	}
	return dst
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
	// host is the www-form name; Name is its suffix, so one string per
	// domain serves both.
	host string
}

// Host returns the www-form name the scanner queries.
func (d *Domain) Host() string { return d.host }

// quic reports whether d resolves to a QUIC-hosting org.
func (d *Domain) quic() bool { return d.Resolves && d.Org.QUICHosting }

// record is d's zone record: an A and, when present, an AAAA address. The
// record's slices alias d's address fields, so answering a query copies
// nothing; dns.Resolver copies them out and never writes to them.
func (d *Domain) record() dns.Record {
	rec := dns.Record{A: unsafe.Slice(&d.V4, 1)}
	if d.V6.IsValid() {
		rec.AAAA = unsafe.Slice(&d.V6, 1)
	}
	return rec
}

// World is one synthetic web: an organisation layer built up front and a
// population in which every domain is a pure function of the profile and
// its index, and every server one of the profile and its address (keyed
// synthesis, lazy.go). The population has two storages. Generate
// materialises it; GenerateLazy synthesises each domain and server on
// demand, so Domains stays nil (use NumDomains and DomainAt). Both storages
// of one profile hold the same population and render the same tables;
// they differ in memory and speed only. Neither looks a name or an address
// up in a map: a host name encodes its population index and an address its
// org and pool host (hostIndex, orgHost), so every lookup decodes them.
type World struct {
	Profile Profile
	Orgs    []*Org
	Domains []*Domain
	// pools, on a materialised world, holds the server at each pooled
	// address a domain resolves to: pools[k] those of Orgs[k], indexed by
	// pool host minus one. A slot whose Org is nil holds no server.
	pools []orgServers
	// v6Servers holds the per-domain v6 servers, and v6Slot, by population
	// index, one more than the index of that domain's server in v6Servers
	// (0 for a domain without one).
	v6Servers  []Server
	v6Slot     []int32
	asResolver *asdb.Resolver
	prefixes   map[netip.Prefix]uint32
	// Population indices below topN are toplist domains, the zoneN after
	// them zone-file domains.
	topN, zoneN int
}

// orgServers is one org's materialised pool servers, by pool host minus one.
type orgServers struct{ v4, v6 []Server }

// Generate builds a world from the profile and materialises its
// population: every domain and the server at every address a domain
// resolves to, each equal to what GenerateLazy(p) synthesises on demand.
// Equal profiles yield identical worlds.
func Generate(p Profile) *World {
	w := newWorld(p)
	n := w.NumDomains()
	slab := make([]Domain, n)
	w.Domains = make([]*Domain, n)
	w.pools = make([]orgServers, len(w.Orgs))
	for k, o := range w.Orgs {
		w.pools[k] = orgServers{v4: make([]Server, len(o.v4Pool)), v6: make([]Server, len(o.v6Pool))}
	}
	w.v6Slot = make([]int32, n)
	// A cross-host target may lie ahead in the population; resolve the
	// drawn redirects once every domain exists.
	type redirect struct {
		d      *Domain
		target int
	}
	var redirects []redirect
	r := dice.New()
	for i := range slab {
		d := &slab[i]
		w.Domains[i] = d
		rng := w.synthDomain(d, i, r)
		if !d.Resolves {
			continue
		}
		if d.Org.QUICHosting {
			if ok, j := w.drawRedirect(rng, i); ok {
				redirects = append(redirects, redirect{d, j})
			}
		}
		v4 := w.poolSlot(d.V4)
		if v4.Org == nil {
			w.synthServer(v4, r, d.Org, d.V4)
		}
		switch {
		case !d.V6.IsValid():
		case d.Org.V6PerDomain:
			// A per-domain v6 address fronts the same stack as its v4 one.
			s := *v4
			s.Addr = d.V6
			w.v6Servers = append(w.v6Servers, s)
			w.v6Slot[i] = int32(len(w.v6Servers))
		default:
			if v6 := w.poolSlot(d.V6); v6.Org == nil {
				w.synthServer(v6, r, d.Org, d.V6)
			}
		}
	}
	for _, rd := range redirects {
		var t *Domain
		if rd.target >= 0 {
			t = w.Domains[rd.target]
		}
		rd.d.redirect(t)
	}
	return w
}

// poolSlot returns the materialised world's slot for a pooled address some
// domain resolves to.
func (w *World) poolSlot(addr netip.Addr) *Server {
	k, host, _ := w.orgHost(addr)
	if addr.Is4() {
		return &w.pools[k].v4[host-1]
	}
	return &w.pools[k].v6[host-1]
}

// newWorld builds the organisation layer every world shares (orgs, address
// pools, spin-mode quotas, the ASDB) from the profile's seed.
func newWorld(p Profile) *World {
	if p.Scale < 1 {
		p.Scale = 1
	}
	w := &World{
		Profile:  p,
		prefixes: map[netip.Prefix]uint32{},
		topN:     scaled(p.TopDomains, p.Scale),
		zoneN:    scaled(p.ZoneDomains, p.Scale),
	}
	w.buildOrgs(rand.New(rand.NewSource(p.Seed)))
	w.buildASDB()
	return w
}

func (w *World) buildOrgs(rng *rand.Rand) {
	idx := 0
	add := func(prof OrgProfile, quic bool) {
		if idx >= maxOrgs {
			panic("websim: more orgs than the address layout has blocks")
		}
		o := &Org{OrgProfile: prof, QUICHosting: quic}
		// Each org gets a /12 IPv4 block and a /32 IPv6 block, unique by
		// index: synthetic but routable-looking address space.
		o.V4Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{32 + byte(idx>>4), byte(idx<<4) & 0xf0, 0, 0}), 12)
		o.V6Prefix = netip.PrefixFrom(netip.AddrFrom16(v6base(uint16(idx))), 32)
		// A pool never outgrows its /12, so its addresses decode back
		// to this org (orgHost).
		pool := min(scaled(prof.V4Pool, w.Profile.Scale), v4BlockHosts)
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
			o.v4Modes = o.assignModes(rng, o.v4Pool)
			o.v6Modes = o.assignModes(rng, o.v6Pool)
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

// InZoneView reports whether a TLD's zone file is part of the CZDS view: the
// gTLDs of zoneTLDs.
func InZoneView(tld string) bool {
	switch tld {
	case "com", "net", "org", "info", "xyz", "online":
		return true
	}
	return false
}

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
func (w *World) NumDomains() int { return w.topN + w.zoneN }

// lazy reports whether the world synthesises its population on demand.
func (w *World) lazy() bool { return w.Domains == nil }

// DomainAt returns the i-th domain of the canonical population order:
// Domains[i] on a materialised world, synthesised on demand otherwise
// (repeated calls return equal values).
func (w *World) DomainAt(i int) *Domain {
	if w.lazy() {
		return w.lazyDomainAt(i)
	}
	return w.Domains[i]
}

// DNSBackend exposes the world's zone data to a dns.Resolver.
func (w *World) DNSBackend() dns.Backend { return zone{w} }

// ASDB returns the IP→ASN→org attribution database (the RIS + as2org
// substitute).
func (w *World) ASDB() *asdb.Resolver { return w.asResolver }

// Prefixes returns the announced prefix→ASN map (for snapshots).
func (w *World) Prefixes() map[netip.Prefix]uint32 { return w.prefixes }

// ServerAt returns the server at addr, or nil (blackhole / unallocated).
// It decodes the org and pool host from the address (orgHost). A
// materialised world reads the server from its slot and holds only the
// servers its domains resolve to; the on-demand world synthesises the
// server at any pooled address.
func (w *World) ServerAt(addr netip.Addr) *Server {
	k, host, ok := w.orgHost(addr)
	if !ok || host == 0 {
		return nil
	}
	o := w.Orgs[k]
	if addr.Is6() && o.V6PerDomain {
		return w.domainV6Server(o, addr, host-1)
	}
	pool := len(o.v4Pool)
	if addr.Is6() {
		pool = len(o.v6Pool)
	}
	if host > uint64(pool) {
		return nil
	}
	if w.lazy() {
		return w.synthServer(new(Server), dice.New(), o, addr)
	}
	if s := w.poolSlot(addr); s.Org != nil {
		return s
	}
	return nil
}

// domainV6Server returns the server at per-domain v6 address addr of org o,
// which encodes population index i: the one fronting the same stack as
// domain i's v4 server, or nil when addr is not domain i's v6 address.
func (w *World) domainV6Server(o *Org, addr netip.Addr, i uint64) *Server {
	if i >= uint64(w.NumDomains()) {
		return nil
	}
	if w.lazy() {
		r := dice.New()
		var d Domain
		w.synthDomain(&d, int(i), r)
		if d.V6 != addr {
			return nil
		}
		s := w.synthServer(new(Server), r, o, d.V4)
		s.Addr = addr
		return s
	}
	j := w.v6Slot[i]
	if j == 0 || w.v6Servers[j-1].Addr != addr {
		return nil
	}
	return &w.v6Servers[j-1]
}

// Servers returns the materialised servers keyed by address: one entry per
// distinct address the domains resolve to, built from the world's slots on
// each call. A world built by GenerateLazy returns nil.
func (w *World) Servers() map[netip.Addr]*Server {
	if w.lazy() {
		return nil
	}
	m := make(map[netip.Addr]*Server, w.NumServers())
	w.eachServer(func(s *Server) { m[s.Addr] = s })
	return m
}

// NumServers returns the number of materialised servers, len(Servers())
// without building the map.
func (w *World) NumServers() int {
	n := 0
	w.eachServer(func(*Server) { n++ })
	return n
}

// eachServer calls f with every materialised server.
func (w *World) eachServer(f func(*Server)) {
	each := func(slab []Server) {
		for i := range slab {
			if s := &slab[i]; s.Org != nil {
				f(s)
			}
		}
	}
	for _, p := range w.pools {
		each(p.v4)
		each(p.v6)
	}
	each(w.v6Servers)
}

// DomainByHost maps a www-form host name to its domain, or nil for a name
// outside the population.
func (w *World) DomainByHost(host string) *Domain {
	i, ok := w.hostIndex(host)
	if !ok {
		return nil
	}
	if d := w.DomainAt(i); d.host == host {
		return d
	}
	return nil // TLD mismatch: the queried name does not exist
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

// The address layout of buildOrgs: org k holds the IPv4 block whose top 12
// bits are v4BlockBase+k (32.0.0.0/12 for org 0) and the IPv6 block
// 2600:kkkk::/32; a pool host h is the block's base plus h (v4At, v6At).
const (
	v4BlockBase  = 32 << 4
	v4BlockHosts = 1<<20 - 1
	maxOrgs      = (256 - 32) << 4
)

// orgHost decodes addr into the index in Orgs of the org whose block holds
// it and the host number within the block, inverting buildOrgs' layout. ok is
// false outside every org's block.
func (w *World) orgHost(addr netip.Addr) (k int, host uint64, ok bool) {
	switch {
	case addr.Is4():
		a := addr.As4()
		v := binary.BigEndian.Uint32(a[:])
		if v>>20 < v4BlockBase {
			return 0, 0, false
		}
		k, host = int(v>>20-v4BlockBase), uint64(v&v4BlockHosts)
	case addr.Is6() && addr.Zone() == "":
		b := addr.As16()
		if b[0] != 0x26 || b[1] != 0 || b[4]|b[5]|b[6]|b[7] != 0 {
			return 0, 0, false
		}
		k, host = int(b[2])<<8|int(b[3]), binary.BigEndian.Uint64(b[8:])
	default:
		return 0, 0, false
	}
	return k, host, k < len(w.Orgs)
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
