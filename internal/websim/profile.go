// Package websim generates a synthetic web standing in for the public
// Internet the paper scans: hosting organisations with AS numbers and
// prefixes, server fleets with per-IP QUIC and spin-bit deployment, domain
// populations drawn from toplists and TLD zone files, shared-hosting
// domain→IP maps for IPv4 and IPv6, heavy-tailed server processing delays,
// and per-week deployment churn for the longitudinal RFC-compliance
// analysis.
//
// The generator is parameterised by the marginals the paper publishes
// (Tables 1–4, Figs. 2–4): org connection shares, per-org spin shares,
// QUIC-support rates, resolution rates, and domains-per-IP densities. The
// analysis pipeline run on this population reproduces the *shape* of every
// table and figure; see DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for paper-vs-measured values.
package websim

import (
	"time"

	"quicspin/internal/core"
)

// OrgProfile parameterises one hosting organisation.
type OrgProfile struct {
	// Name as it should appear in Table 2 (via as2org attribution).
	Name string
	// ASN is the org's autonomous system number.
	ASN uint32
	// Software is the Server header its webservers return.
	Software string

	// TopQUICShare and ZoneQUICShare are the org's share of QUIC-capable
	// domains in the toplist and zonelist views (normalised over all
	// QUIC-hosting orgs). These encode the Table 2 connection shares.
	TopQUICShare  float64
	ZoneQUICShare float64

	// SpinIPShare is the fraction of the org's QUIC IPs that run a
	// spin-enabled stack (LiteSpeed-style deployments).
	SpinIPShare float64
	// SpinIPDensity weights domain placement toward spin-enabled IPs.
	// Shared LiteSpeed boxes host many customers each, so they carry
	// disproportionately many connections — the reason the paper sees
	// ~52-68 % spin shares per org's connections but only ~45 % of QUIC
	// IPs spinning. 0 means 1 (uniform placement).
	SpinIPDensity float64
	// AllOneIPShare and GreaseIPShare are the (tiny) fractions of QUIC IPs
	// that pin the bit to 1 or grease it per packet.
	AllOneIPShare float64
	GreaseIPShare float64
	// DisableEveryN is the RFC disable rule configured on spin-enabled
	// servers (16 per RFC 9000; 8 per RFC 9312; 0 = never — non-compliant).
	DisableEveryN int

	// V4Pool is the number of IPv4 server addresses (paper scale; divided
	// by the population scale).
	V4Pool int
	// V6PerDomain gives each hosted domain its own IPv6 address when true
	// (shared hosters assign per-customer v6), otherwise a v6 pool of
	// V6Pool addresses is used.
	V6PerDomain bool
	V6Pool      int
	// V6Share is the probability a hosted domain has an AAAA record.
	V6Share float64
	// TopV6Share overrides V6Share for toplist-view domains when >= 0
	// (toplist hosting skews differently, driving Table 4's weak toplist
	// spin support).
	TopV6Share float64

	// BaseRTTMinMs/BaseRTTMaxMs bound the per-server network RTT from the
	// vantage point (log-uniform).
	BaseRTTMinMs, BaseRTTMaxMs float64
	// FastResponseShare is the probability a request is served without
	// significant processing delay; the rest draw a heavy-tailed delay in
	// [SlowDelayMinMs, SlowDelayMaxMs] (log-uniform). These drive the
	// over-estimation shape of Figs. 3 and 4.
	FastResponseShare              float64
	FastDelayMaxMs                 float64
	SlowDelayMinMs, SlowDelayMaxMs float64
	// DynamicShare is the probability a landing page is generated
	// dynamically and streamed in chunks separated by application gaps
	// (database queries, template rendering). Gaps land between spin
	// edges, so they are the end-host delays that inflate spin-bit RTT
	// estimates (§5.2 and §6 of the paper); static pages are written in
	// one piece and measure close to the network RTT.
	DynamicShare       float64
	GapMinMs, GapMaxMs float64

	// StableSpinShare is the fraction of the org's spin-enabled servers
	// whose deployment is stable across the whole campaign; the rest
	// support the spin bit only during a random contiguous window of weeks
	// (hosting migrations, stack updates — the churn behind Fig. 2).
	StableSpinShare float64
}

// Profile parameterises world generation.
type Profile struct {
	// Seed drives all randomness; equal seeds give identical worlds.
	Seed int64
	// Scale divides every paper-scale count (domains, IP pools). 1000
	// means the 216 M CZDS domains become 216 k.
	Scale int

	// TopDomains and ZoneDomains are the paper-scale population sizes.
	TopDomains  int
	ZoneDomains int

	// TopResolveRate and ZoneResolveRate are the Resolved/Total shares of
	// Table 1.
	TopResolveRate  float64
	ZoneResolveRate float64

	// TopQUICRate and ZoneQUICRate are the QUIC/Resolved domain shares.
	TopQUICRate  float64
	ZoneQUICRate float64

	// RedirectRate is the probability a QUIC domain's landing page answers
	// with a redirect (driving >1 connection per domain, §3.2.1).
	RedirectRate float64
	// CrossHostRedirectRate is the probability a redirect draws another
	// population index as its target. The redirect lands cross-host only
	// when that domain resolves to QUIC hosting, and is canonical-self
	// otherwise, so the realised cross-host share of redirects is about
	// this rate × the population's QUIC share.
	CrossHostRedirectRate float64

	// BodyMinBytes/BodyMaxBytes bound landing-page sizes (log-uniform).
	// Multi-packet bodies are what make the spin bit flip during a
	// download.
	BodyMinBytes, BodyMaxBytes int

	// Weeks is the campaign length for longitudinal behaviour (Fig. 2).
	Weeks int

	// PathLossRate, PathReorderRate and PathJitterMs shape all network
	// paths; reordered packets are held back PathReorderExtraMs.
	PathLossRate       float64
	PathReorderRate    float64
	PathReorderExtraMs float64
	PathJitterMs       float64

	// TurnaroundMinMs/MaxMs bound the endpoint processing latency between
	// receiving a packet and transmitting in response. This floor keeps
	// spin-bit cycles strictly above the stack's min_rtt, as on real
	// hosts; without it the grease filter misfires on exact ties.
	TurnaroundMinMs, TurnaroundMaxMs float64

	// HostileFrac assigns this fraction of QUIC-capable servers a
	// deterministic misbehavior profile (internal/hostile). Assignment is
	// hash-based and draws nothing from the generator's random streams, so
	// a zero fraction produces worlds byte-identical to ones generated
	// before hostile profiles existed.
	HostileFrac float64

	// QUICOrgs hosts QUIC-capable domains; LegacyOrgs host the rest.
	QUICOrgs   []OrgProfile
	LegacyOrgs []OrgProfile
}

// Software identifiers used by the default profile.
const (
	SoftLiteSpeed  = "LiteSpeed"
	SoftImunify    = "imunify360-webshield"
	SoftCloudflare = "cloudflare"
	SoftGoogle     = "gws"
	SoftFastly     = "fastly"
	SoftNginx      = "nginx"
	SoftApache     = "Apache"
)

// DefaultProfile returns the calibrated reproduction profile. The org
// shares encode Table 2; spin shares per org are the paper's "Spin %"
// column; resolution/QUIC rates come from Tables 1 and 4.
func DefaultProfile() Profile {
	p := Profile{
		Seed:  20230515,
		Scale: 2000,

		TopDomains:  2_732_702,
		ZoneDomains: 216_520_521,

		TopResolveRate:  0.709,
		ZoneResolveRate: 0.849,
		TopQUICRate:     0.282,
		ZoneQUICRate:    0.121,

		RedirectRate:          0.10,
		CrossHostRedirectRate: 0.15,

		BodyMinBytes: 2_000,
		BodyMaxBytes: 250_000,

		Weeks: 12,

		PathLossRate:       0.002,
		PathReorderRate:    0.0015,
		PathReorderExtraMs: 3,
		PathJitterMs:       0.1,

		TurnaroundMinMs: 0.25,
		TurnaroundMaxMs: 1.2,
	}

	hoster := func(name string, asn uint32, top, zone, spin float64, v4Pool int) OrgProfile {
		return OrgProfile{
			Name: name, ASN: asn, Software: SoftLiteSpeed,
			TopQUICShare: top, ZoneQUICShare: zone,
			SpinIPShare: spin, SpinIPDensity: 3, AllOneIPShare: 0.004, GreaseIPShare: 0.0006,
			DisableEveryN: 16,
			V4Pool:        v4Pool,
			V6PerDomain:   true, V6Share: 0.75, TopV6Share: 0.35,
			BaseRTTMinMs: 8, BaseRTTMaxMs: 180,
			FastResponseShare: 0.33, FastDelayMaxMs: 18,
			SlowDelayMinMs: 40, SlowDelayMaxMs: 2200,
			DynamicShare: 0.55, GapMinMs: 40, GapMaxMs: 1200,
			StableSpinShare: 0.42,
		}
	}

	p.QUICOrgs = []OrgProfile{
		{
			Name: "Cloudflare", ASN: 13335, Software: SoftCloudflare,
			TopQUICShare: 0.55, ZoneQUICShare: 0.504,
			SpinIPShare: 0, AllOneIPShare: 0.001, GreaseIPShare: 0.0002,
			V4Pool: 15_000, V6PerDomain: false, V6Pool: 15_000, V6Share: 0.92, TopV6Share: -1,
			BaseRTTMinMs: 4, BaseRTTMaxMs: 35,
			FastResponseShare: 0.5, FastDelayMaxMs: 10,
			SlowDelayMinMs: 25, SlowDelayMaxMs: 900,
			DynamicShare: 0.2, GapMinMs: 20, GapMaxMs: 400,
			StableSpinShare: 1,
		},
		{
			Name: "Google", ASN: 15169, Software: SoftGoogle,
			TopQUICShare: 0.26, ZoneQUICShare: 0.270,
			SpinIPShare: 0.0011, AllOneIPShare: 0.0005, GreaseIPShare: 0.0002,
			DisableEveryN: 16,
			V4Pool:        25_000, V6PerDomain: false, V6Pool: 25_000, V6Share: 0.95, TopV6Share: -1,
			BaseRTTMinMs: 4, BaseRTTMaxMs: 40,
			FastResponseShare: 0.5, FastDelayMaxMs: 10,
			SlowDelayMinMs: 25, SlowDelayMaxMs: 700,
			DynamicShare: 0.2, GapMinMs: 20, GapMaxMs: 400,
			StableSpinShare: 1,
		},
		{
			Name: "Fastly", ASN: 54113, Software: SoftFastly,
			TopQUICShare: 0.030, ZoneQUICShare: 0.014,
			SpinIPShare: 0, AllOneIPShare: 0.001, GreaseIPShare: 0.0002,
			V4Pool: 5_000, V6PerDomain: false, V6Pool: 5_000, V6Share: 0.9, TopV6Share: -1,
			BaseRTTMinMs: 4, BaseRTTMaxMs: 35,
			FastResponseShare: 0.5, FastDelayMaxMs: 10,
			SlowDelayMinMs: 25, SlowDelayMaxMs: 900,
			DynamicShare: 0.2, GapMinMs: 20, GapMaxMs: 400,
			StableSpinShare: 1,
		},
		hoster("Hostinger", 47583, 0.028, 0.068, 0.55, 30_000),
		hoster("OVH SAS", 16276, 0.010, 0.0096, 0.84, 20_000),
		hoster("A2 Hosting", 55293, 0.007, 0.0096, 0.74, 15_000),
		hoster("SingleHop", 32475, 0.004, 0.0076, 0.80, 10_000),
		hoster("Server Central", 23352, 0.004, 0.0065, 0.95, 8_000),
	}
	// Long tail: many small hosters; in aggregate 53.3 % of their QUIC
	// connections spin (Table 2's <other> row). Toplist long tail spins
	// less (Table 1: only 15.2 % of toplist IPs show spin).
	const tailOrgs = 24
	topTail, zoneTail := 1-sumTop(p.QUICOrgs), 1-sumZone(p.QUICOrgs)
	for i := 0; i < tailOrgs; i++ {
		spin := 0.64
		soft := SoftLiteSpeed
		if i%3 == 0 {
			soft = SoftImunify
		}
		if i%8 == 7 {
			// A minority of tail hosters run non-spinning stacks with
			// sparser (non-shared) IP usage.
			spin, soft = 0.0, SoftNginx
		}
		o := hoster(tailName(i), 200000+uint32(i), topTail/tailOrgs, zoneTail/tailOrgs, spin, 5_500)
		o.Software = soft
		o.SpinIPDensity = 5
		// Toplist tail skews to lower spin support.
		if i%2 == 1 {
			o.TopQUICShare *= 0.4
		}
		p.QUICOrgs = append(p.QUICOrgs, o)
	}

	p.LegacyOrgs = []OrgProfile{
		{
			Name: "GoDaddy.com LLC", ASN: 26496, Software: SoftApache,
			TopQUICShare: 0.4, ZoneQUICShare: 0.35,
			V4Pool: 3_500_000, V6Pool: 500_000, V6Share: 0.06, TopV6Share: 0.10,
			BaseRTTMinMs: 15, BaseRTTMaxMs: 200,
		},
		{
			Name: "IONOS SE", ASN: 8560, Software: SoftApache,
			TopQUICShare: 0.2, ZoneQUICShare: 0.25,
			V4Pool: 2_500_000, V6Pool: 400_000, V6Share: 0.08, TopV6Share: 0.12,
			BaseRTTMinMs: 8, BaseRTTMaxMs: 120,
		},
		{
			Name: "Newfold Digital", ASN: 46606, Software: SoftNginx,
			TopQUICShare: 0.25, ZoneQUICShare: 0.25,
			V4Pool: 2_500_000, V6Pool: 300_000, V6Share: 0.05, TopV6Share: 0.08,
			BaseRTTMinMs: 15, BaseRTTMaxMs: 200,
		},
		{
			Name: "Amazon.com Inc.", ASN: 16509, Software: SoftNginx,
			TopQUICShare: 0.15, ZoneQUICShare: 0.15,
			V4Pool: 1_800_000, V6Pool: 400_000, V6Share: 0.12, TopV6Share: 0.15,
			BaseRTTMinMs: 5, BaseRTTMaxMs: 150,
		},
	}
	return p
}

func sumTop(orgs []OrgProfile) float64 {
	var s float64
	for _, o := range orgs {
		s += o.TopQUICShare
	}
	return s
}

func sumZone(orgs []OrgProfile) float64 {
	var s float64
	for _, o := range orgs {
		s += o.ZoneQUICShare
	}
	return s
}

func tailName(i int) string {
	names := []string{
		"WebhostOne GmbH", "Contabo GmbH", "Hetzner Online", "netcup GmbH",
		"Krystal Hosting", "Hostpoint AG", "Combell NV", "Loopia AB",
		"Seznam.cz", "PlanetHoster", "o2switch", "Infomaniak Network",
		"SiteGround Hosting", "GreenGeeks LLC", "Kinsta Inc", "Rackspace Tech",
		"DreamHost LLC", "MochaHost Inc", "TMD Hosting", "InterServer Inc",
		"Namecheap Inc", "Hostwinds LLC", "ScalaHosting Ltd", "Verpex Hosting",
	}
	return names[i%len(names)]
}

// spinPolicyFor maps a server's deployed mode to a transport spin policy.
func spinPolicyFor(mode core.Mode, disableEveryN int) core.Policy {
	return core.Policy{Mode: mode, DisableEveryN: disableEveryN, DisabledMode: core.ModeZero}
}

// Durations used by generated worlds.
const (
	msf = float64(time.Millisecond)
)
