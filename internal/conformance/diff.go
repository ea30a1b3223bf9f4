// Package conformance cross-validates the repository's measurement stack:
// it runs the fast and emulated scanner engines over the same seeded websim
// world and checks that they agree wherever the ground truth pins the
// outcome (differential testing), and it drives the packet-level transport
// through deterministic netem chaos schedules while asserting observer
// invariants that must hold regardless of loss, reordering or duplication.
//
// The differential contract is deliberately asymmetric to the dice: both
// engines derive per-domain randomness from (Seed, Week, domain), but they
// consume their streams differently, so per-connection coin flips (the RFC
// 1-in-N disable rule, grease values) legitimately differ. What must agree
// exactly is everything the ground truth determines — resolution, the
// redirect chain (targets, IPs, hops), QUIC capability, response status —
// and every engine's spin classification must lie in the set of classes the
// scanned server's deployed policy can produce. Spin-RTT estimates must
// stay within bounded divergence: both engines time the same response plans
// over the same base RTTs, so their per-domain means may wobble (jitter,
// chunk-gap sampling) but not drift.
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
	// Week, IPv6, Seed, Workers, Timeout and MaxRedirects are passed to
	// both engines verbatim (see scanner.Config).
	Week         int
	IPv6         bool
	Seed         int64
	Workers      int
	Timeout      time.Duration
	MaxRedirects int
	// MaxDomainLogRatio bounds |ln(fast/emulated)| of a domain's mean
	// spin-RTT across engines; zero means ln(256). The bound is loose by
	// design: spin samples include application chunk gaps (up to ~1.2 s in
	// the calibrated profile), which the two engines draw from different
	// points of the domain's random stream, so a single-sample mean
	// spanning one maximal gap can stand against a pure-RTT mean of a few
	// milliseconds. The per-domain bound only catches catastrophic
	// divergence; the statistically meaningful check is MaxMedianRatio.
	MaxDomainLogRatio float64
	// MaxMedianRatio bounds the population median of the per-domain
	// fast/emulated spin-RTT ratios; zero means 1.5. Individual domains may
	// diverge, but the population must not be biased.
	MaxMedianRatio float64
	// Retry and Faults are passed to both engines verbatim, so the
	// differential contract can be exercised under injected transient
	// failures (the plan's dns and net rules) and recovery retries.
	Retry  resilience.RetryPolicy
	Faults *fault.Plan
}

func (c DiffConfig) maxDomainLogRatio() float64 {
	if c.MaxDomainLogRatio == 0 {
		return math.Log(256)
	}
	return c.MaxDomainLogRatio
}

func (c DiffConfig) maxMedianRatio() float64 {
	if c.MaxMedianRatio == 0 {
		return 1.5
	}
	return c.MaxMedianRatio
}

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
	// the ground-truth permissible sets (both engines).
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
		Week:         cfg.Week,
		IPv6:         cfg.IPv6,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		Timeout:      cfg.Timeout,
		MaxRedirects: cfg.MaxRedirects,
		Retry:        cfg.Retry,
		Faults:       cfg.Faults,
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
			if lr := math.Abs(math.Log(ratio)); lr > cfg.maxDomainLogRatio() {
				rep.Disagreements = append(rep.Disagreements, Disagreement{
					Domain: fd.Domain, Kind: "rtt",
					Detail: fmt.Sprintf("spin-RTT means diverge: fast %v, emulated %v (|ln ratio| %.2f > %.2f)",
						fr, er, lr, cfg.maxDomainLogRatio()),
				})
			}
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		rep.MedianRatio = ratios[len(ratios)/2]
		if m := cfg.maxMedianRatio(); rep.MedianRatio > m || rep.MedianRatio < 1/m {
			rep.Disagreements = append(rep.Disagreements, Disagreement{
				Domain: "<population>", Kind: "rtt",
				Detail: fmt.Sprintf("median spin-RTT ratio %.3f outside [%.3f, %.3f]", rep.MedianRatio, 1/m, m),
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
		set := permissibleConnClasses(cfg.World, cfg.Week, fc)
		for _, eng := range []struct {
			name string
			conn *scanner.ConnResult
		}{{"fast", fc}, {"emulated", ec}} {
			class := analysis.AnalyzeConn(eng.conn).Class
			rep.ClassChecked++
			if !set.has(class) {
				add("class", "hop %d (%s): %s engine classified %v, ground truth permits %v", j, fc.Target, eng.name, class, set)
			}
		}
	}
	// Domain-level classification: each engine's fold must be achievable
	// from the per-connection permissible sets.
	sets := make([]classSet, len(fd.Conns))
	for j := range fd.Conns {
		sets[j] = permissibleConnClasses(cfg.World, cfg.Week, &fd.Conns[j])
	}
	for _, eng := range []struct {
		name string
		dom  *scanner.DomainResult
	}{{"fast", fd}, {"emulated", ed}} {
		conns := make([]analysis.Conn, len(eng.dom.Conns))
		for j := range eng.dom.Conns {
			conns[j] = analysis.AnalyzeConn(&eng.dom.Conns[j])
		}
		class := analysis.DomainClass(conns)
		if !achievableDomainClass(class, sets) {
			add("class", "%s engine domain class %v is not achievable from per-connection sets", eng.name, class)
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

// --- permissible classification sets ------------------------------------

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

// classesForMode returns the connection classifications a deployment mode
// can produce on a completed QUIC connection.
//
//   - ModeSpin can look like Spin, like AllZero (responses too small for the
//     wave to flip before the last packet), or like Grease (reordering can
//     push a received-order sample below the stack minimum past the guard
//     band — the false positives of §5.2).
//   - Greasing per packet usually trips the grease filter, but short series
//     can come out constant or accidentally spin-like.
//   - Greasing per connection is indistinguishable from a fixed value.
func classesForMode(m core.Mode) classSet {
	switch m {
	case core.ModeSpin:
		return setOf(analysis.ClassSpin, analysis.ClassGrease, analysis.ClassAllZero)
	case core.ModeZero:
		return setOf(analysis.ClassAllZero)
	case core.ModeOne:
		return setOf(analysis.ClassAllOne)
	case core.ModeGreasePerPacket:
		return setOf(analysis.ClassGrease, analysis.ClassSpin, analysis.ClassAllZero, analysis.ClassAllOne)
	case core.ModeGreasePerConn:
		return setOf(analysis.ClassAllZero, analysis.ClassAllOne)
	default:
		return 0
	}
}

// permissibleConnClasses computes the ground-truth classification set for
// one connection record: what the deployed policy of the server at the
// connection's IP can legitimately produce in the scanned week.
func permissibleConnClasses(w *websim.World, week int, c *scanner.ConnResult) classSet {
	if !c.QUIC {
		return setOf(analysis.ClassNone)
	}
	srv := w.ServerAt(c.IP)
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
	p := srv.PolicyForWeek(week)
	s := classesForMode(p.Mode)
	if p.Mode == core.ModeSpin && p.DisableEveryN > 0 {
		// The RFC 1-in-N rule swaps in the disabled-mode behaviour on a
		// per-connection dice roll, so its classes are reachable too.
		s |= classesForMode(p.DisabledMode)
	}
	return s
}

// domainRank orders classes by the DomainClass fold priority
// (Spin > Grease > AllOne > AllZero > None).
func domainRank(c analysis.Class) int {
	switch c {
	case analysis.ClassSpin:
		return 4
	case analysis.ClassGrease:
		return 3
	case analysis.ClassAllOne:
		return 2
	case analysis.ClassAllZero:
		return 1
	default:
		return 0
	}
}

// achievableDomainClass reports whether the DomainClass fold can evaluate
// to v given per-connection permissible sets: v must be producible by some
// connection, and no connection may be forced to produce a higher-priority
// class.
func achievableDomainClass(v analysis.Class, sets []classSet) bool {
	if len(sets) == 0 {
		return v == analysis.ClassNone
	}
	found := false
	for _, s := range sets {
		if s.has(v) {
			found = true
		}
		minRank := math.MaxInt
		for c := analysis.ClassNone; c <= analysis.ClassGrease; c++ {
			if s.has(c) && domainRank(c) < minRank {
				minRank = domainRank(c)
			}
		}
		if minRank > domainRank(v) {
			return false // this connection always outranks v
		}
	}
	return found
}
