// Package conformance cross-validates the repository's measurement stack:
// it runs the fast and emulated scanner engines over the same seeded websim
// world and checks that they agree wherever the ground truth pins the
// outcome (differential testing), and it drives the packet-level transport
// through deterministic netem chaos schedules while asserting observer
// invariants that must hold regardless of loss, reordering or duplication.
//
// Both engines key every random stream by (Seed, Week, domain, purpose,
// hop, attempt, side) (internal/dice), so a connection's server rolls the
// same spin dice — the RFC 1-in-N disable rule, the per-connection grease
// value — in both. What must agree exactly is everything the ground truth
// and the dice determine: resolution, the redirect chain (targets, IPs,
// hops), QUIC capability, response status, and the spin classification
// wherever the dice alone set it. There the two now share one code path:
// the emulated engine reports a connection that nothing answers, or whose
// server rolled a fixed spin value, through the fast engine's closed form
// whenever it ends its domain's chain, so for those connections this
// differential compares the closed form with itself. Their witness is
// scanner's TestClosedFormEquivalence instead, which scans with and without
// the shortcut and requires the same tables, outcomes and spin series. Only
// packet timing may separate the two engines: a spinning connection can look
// like Spin, AllZero or Grease, and per-packet grease like anything, so
// there each engine's class must lie in the set the rolled mode can produce.
// Spin-RTT estimates must stay within bounded divergence: both engines time
// the same response plans over the same base RTTs, so their per-domain means
// may wobble (jitter, packet pacing) but not drift.
package conformance

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/core"
	"quicspin/internal/fault"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// DiffConfig parameterises one differential run.
type DiffConfig struct {
	// World is the shared ground truth both engines scan.
	World *websim.World
	// Week, IPv6, Seed and Workers are passed to both engines verbatim
	// (see scanner.Config).
	Week    int
	IPv6    bool
	Seed    int64
	Workers int
	// Retry and Faults are passed to both engines verbatim, so the
	// differential contract can be exercised under injected transient
	// failures (the plan's dns and net rules) and recovery retries.
	Retry  resilience.RetryPolicy
	Faults *fault.Plan
}

// The spin-RTT bounds of every differential run.
const (
	// maxDomainLogRatio bounds |ln(fast/emulated)| of a domain's mean
	// spin-RTT across engines: ln 256. The bound is loose by design: spin
	// samples include application chunk gaps (up to ~1.2 s in the
	// calibrated profile); both engines draw the same gaps, but packet
	// timing decides which samples span them, so a single-sample mean
	// spanning one maximal gap can stand against a pure-RTT mean of a few
	// milliseconds. The per-domain bound only catches catastrophic
	// divergence; the statistically meaningful check is maxMedianRatio.
	maxDomainLogRatio = 8 * math.Ln2
	// maxMedianRatio bounds the population median of the per-domain
	// fast/emulated spin-RTT ratios. Individual domains may diverge, but
	// the population must not be biased.
	maxMedianRatio = 1.5
)

// Disagreement is one contract violation between the engines (or between
// one engine and the ground truth).
type Disagreement struct {
	// Domain is the scanned domain, or "<population>" for aggregate checks.
	Domain string
	// Kind groups violations: "resolve", "chain", "quic", "class", "rtt".
	Kind string
	// Detail is a human-readable description.
	Detail string
}

func (d Disagreement) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Domain, d.Kind, d.Detail)
}

// DiffReport is the outcome of one differential run.
type DiffReport struct {
	// Domains is the scanned population size.
	Domains int
	// QUICDomains counts domains with at least one QUIC connection (both
	// engines agreed on capability for all of them if Disagreements is
	// empty).
	QUICDomains int
	// ClassChecked counts per-connection classifications validated against
	// the class sets of the connections' dice (both engines).
	ClassChecked int
	// RTTCompared counts domains whose spin-RTT means were compared.
	RTTCompared int
	// MedianRatio is the population median of fast/emulated spin-RTT mean
	// ratios (0 when nothing was compared).
	MedianRatio float64
	// Disagreements lists every contract violation found.
	Disagreements []Disagreement
}

// OK reports whether the run found no disagreements.
func (r *DiffReport) OK() bool { return len(r.Disagreements) == 0 }

// Summary renders a short human-readable report.
func (r *DiffReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential: %d domains (%d QUIC), %d conn classifications checked, %d RTT comparisons (median ratio %.3f): ",
		r.Domains, r.QUICDomains, r.ClassChecked, r.RTTCompared, r.MedianRatio)
	if r.OK() {
		b.WriteString("0 disagreements")
		return b.String()
	}
	fmt.Fprintf(&b, "%d disagreements", len(r.Disagreements))
	max := len(r.Disagreements)
	if max > 10 {
		max = 10
	}
	for _, d := range r.Disagreements[:max] {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	if max < len(r.Disagreements) {
		fmt.Fprintf(&b, "\n  ... and %d more", len(r.Disagreements)-max)
	}
	return b.String()
}

// RunDiff scans the world with both engines and cross-validates the
// results. It returns an error only for invalid configurations.
func RunDiff(cfg DiffConfig) (*DiffReport, error) {
	base := scanner.Config{
		Week:    cfg.Week,
		IPv6:    cfg.IPv6,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Retry:   cfg.Retry,
		Faults:  cfg.Faults,
	}
	fastCfg, emuCfg := base, base
	fastCfg.Engine = scanner.EngineFast
	emuCfg.Engine = scanner.EngineEmulated
	fast, err := scanner.Run(cfg.World, fastCfg)
	if err != nil {
		return nil, fmt.Errorf("conformance: fast engine: %w", err)
	}
	emu, err := scanner.Run(cfg.World, emuCfg)
	if err != nil {
		return nil, fmt.Errorf("conformance: emulated engine: %w", err)
	}
	return compare(cfg, fast, emu), nil
}

func compare(cfg DiffConfig, fast, emu *scanner.Result) *DiffReport {
	rep := &DiffReport{Domains: len(fast.Domains)}
	if len(fast.Domains) != len(emu.Domains) {
		rep.Disagreements = append(rep.Disagreements, Disagreement{
			Domain: "<population>", Kind: "chain",
			Detail: fmt.Sprintf("population size differs: fast %d, emulated %d", len(fast.Domains), len(emu.Domains)),
		})
		return rep
	}
	var ratios []float64
	for i := range fast.Domains {
		fd, ed := &fast.Domains[i], &emu.Domains[i]
		disagrees := compareDomain(cfg, fd, ed, rep)
		rep.Disagreements = append(rep.Disagreements, disagrees...)
		if fd.QUIC() || ed.QUIC() {
			rep.QUICDomains++
		}
		if fr, er := domainSpinMean(cfg.World, fd), domainSpinMean(cfg.World, ed); fr > 0 && er > 0 {
			rep.RTTCompared++
			ratio := float64(fr) / float64(er)
			ratios = append(ratios, ratio)
			if lr := math.Abs(math.Log(ratio)); lr > maxDomainLogRatio {
				rep.Disagreements = append(rep.Disagreements, Disagreement{
					Domain: fd.Domain, Kind: "rtt",
					Detail: fmt.Sprintf("spin-RTT means diverge: fast %v, emulated %v (|ln ratio| %.2f > %.2f)",
						fr, er, lr, maxDomainLogRatio),
				})
			}
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		rep.MedianRatio = ratios[len(ratios)/2]
		if rep.MedianRatio > maxMedianRatio || rep.MedianRatio < 1/maxMedianRatio {
			rep.Disagreements = append(rep.Disagreements, Disagreement{
				Domain: "<population>", Kind: "rtt",
				Detail: fmt.Sprintf("median spin-RTT ratio %.3f outside [%.3f, %.3f]", rep.MedianRatio, 1/maxMedianRatio, maxMedianRatio),
			})
		}
	}
	return rep
}

// compareDomain validates one domain's pair of scans and returns the
// disagreements. It bumps rep.ClassChecked for side-effect counting only.
func compareDomain(cfg DiffConfig, fd, ed *scanner.DomainResult, rep *DiffReport) []Disagreement {
	var out []Disagreement
	add := func(kind, format string, args ...any) {
		out = append(out, Disagreement{Domain: fd.Domain, Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	if fd.Domain != ed.Domain {
		add("chain", "domain order differs: fast %q, emulated %q", fd.Domain, ed.Domain)
		return out
	}
	if fd.Resolved != ed.Resolved || fd.DNSErr != ed.DNSErr {
		add("resolve", "resolution differs: fast (%v, %q), emulated (%v, %q)", fd.Resolved, fd.DNSErr, ed.Resolved, ed.DNSErr)
		return out
	}
	if len(fd.Conns) != len(ed.Conns) {
		add("chain", "connection chains differ: fast %d hops, emulated %d hops", len(fd.Conns), len(ed.Conns))
		return out
	}
	for j := range fd.Conns {
		fc, ec := &fd.Conns[j], &ed.Conns[j]
		if fc.Target != ec.Target || fc.IP != ec.IP || fc.Hop != ec.Hop {
			add("chain", "hop %d differs: fast (%s @ %s), emulated (%s @ %s)", j, fc.Target, fc.IP, ec.Target, ec.IP)
			continue
		}
		if fc.QUIC != ec.QUIC {
			add("quic", "hop %d (%s): QUIC capability differs: fast %v, emulated %v", j, fc.Target, fc.QUIC, ec.QUIC)
			continue
		}
		if fc.Status != ec.Status || fc.Redirect != ec.Redirect || fc.Server != ec.Server {
			add("chain", "hop %d (%s): response differs: fast (%d %q %q), emulated (%d %q %q)",
				j, fc.Target, fc.Status, fc.Server, fc.Redirect, ec.Status, ec.Server, ec.Redirect)
		}
		// Each connection's class lies in its set, so the domain's class —
		// the highest-ranked of them — is one the sets allow too.
		set := connClasses(cfg, fd.Domain, fc)
		for _, eng := range []struct {
			name string
			conn *scanner.ConnResult
		}{{"fast", fc}, {"emulated", ec}} {
			class := analysis.AnalyzeConn(eng.conn).Class
			rep.ClassChecked++
			if !set.has(class) {
				add("class", "hop %d (%s): %s engine classified %v, its dice permit %v", j, fc.Target, eng.name, class, set)
			}
		}
	}
	return out
}

// domainSpinMean averages the received-order spin-RTT means of a domain's
// spin-classified connections, or 0 when there are none. Connections to
// hostile servers are excluded: a spin series forged by an adversarial peer
// carries no RTT signal, and the two engines legitimately disagree on it.
func domainSpinMean(w *websim.World, d *scanner.DomainResult) time.Duration {
	var sum time.Duration
	n := 0
	for j := range d.Conns {
		if srv := w.ServerAt(d.Conns[j].IP); srv != nil && srv.Hostile != hostile.None {
			continue
		}
		c := analysis.AnalyzeConn(&d.Conns[j])
		if c.Class == analysis.ClassSpin && c.SpinMeanR > 0 {
			sum += c.SpinMeanR
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// --- classification sets ------------------------------------------------

// classSet is a bitset over analysis.Class.
type classSet uint8

func (s classSet) has(c analysis.Class) bool { return s&(1<<uint(c)) != 0 }

func (s classSet) String() string {
	var names []string
	for c := analysis.ClassNone; c <= analysis.ClassGrease; c++ {
		if s.has(c) {
			names = append(names, c.String())
		}
	}
	return "{" + strings.Join(names, ", ") + "}"
}

func setOf(classes ...analysis.Class) classSet {
	var s classSet
	for _, c := range classes {
		s |= 1 << uint(c)
	}
	return s
}

// diceClasses returns the classes a completed QUIC connection can take once
// its server has rolled ctrl's dice. The dice alone decide a fixed value —
// a fixed mode, the per-connection grease value, a disable roll into a
// fixed mode — and then the class is that value's. Packet timing decides
// the rest:
//
//   - ModeSpin can look like Spin, like AllZero (responses too small for the
//     wave to flip before the last packet), or like Grease (reordering can
//     push a received-order sample below the stack minimum past the guard
//     band — the false positives of §5.2).
//   - Greasing per packet usually trips the grease filter, but short series
//     can come out constant or accidentally spin-like.
func diceClasses(ctrl *core.Controller) classSet {
	switch ctrl.EffectiveMode() {
	case core.ModeSpin:
		return setOf(analysis.ClassSpin, analysis.ClassGrease, analysis.ClassAllZero)
	case core.ModeGreasePerPacket:
		return setOf(analysis.ClassGrease, analysis.ClassSpin, analysis.ClassAllZero, analysis.ClassAllOne)
	}
	if ctrl.Next() {
		return setOf(analysis.ClassAllOne)
	}
	return setOf(analysis.ClassAllZero)
}

// connClasses computes the classification set of one connection record of
// domain: what the server at the connection's IP produces in the scanned
// week with the dice both engines roll for it. A record does not say which
// retry attempt it came from, so with retries the sets of every attempt the
// policy allows are joined; without, the set is exact.
func connClasses(cfg DiffConfig, domain string, c *scanner.ConnResult) classSet {
	if !c.QUIC {
		return setOf(analysis.ClassNone)
	}
	srv := cfg.World.ServerAt(c.IP)
	if srv == nil || !srv.QUIC {
		// A completed handshake against a non-QUIC address would itself be
		// a bug; no class is permissible.
		return 0
	}
	if srv.Hostile != hostile.None {
		// A hostile server's wire behaviour is adversarial by construction:
		// any classification is permissible. What the differential contract
		// asserts for these is graceful degradation — matching chain, QUIC
		// capability and response fields — not a trusted spin measurement.
		return setOf(analysis.ClassNone, analysis.ClassAllZero, analysis.ClassAllOne,
			analysis.ClassSpin, analysis.ClassGrease)
	}
	p := srv.PolicyForWeek(cfg.Week)
	sc := scanner.Config{Seed: cfg.Seed, Week: cfg.Week}
	var s classSet
	for attempt := 0; attempt <= cfg.Retry.MaxRetries; attempt++ {
		s |= diceClasses(scanner.ConnDice(sc, domain, c.Hop, attempt, p))
	}
	return s
}
