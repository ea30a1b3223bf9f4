// Package analysis implements the paper's evaluation pipeline (§3.3, §4,
// §5): per-connection spin classification with the grease filter,
// spin-vs-stack RTT accuracy in received (R) and packet-number-sorted (S)
// order, per-list adoption aggregation (Tables 1, 3, 4), AS-organisation
// attribution (Table 2), longitudinal RFC-compliance histograms (Fig. 2),
// and the accuracy histograms (Figs. 3 and 4).
package analysis

import (
	"time"

	"quicspin/internal/core"
	"quicspin/internal/scanner"
	"quicspin/internal/stats"
	"quicspin/internal/websim"
)

// Class is the paper's per-connection (and per-domain) spin classification
// of Table 3.
type Class int

const (
	// ClassNone marks connections without QUIC or without 1-RTT packets.
	ClassNone Class = iota
	// ClassAllZero: spin bit constantly 0.
	ClassAllZero
	// ClassAllOne: spin bit constantly 1.
	ClassAllOne
	// ClassSpin: spin flips and the grease filter did not fire.
	ClassSpin
	// ClassGrease: spin flips but some spin RTT estimate undercuts the
	// stack's minimum RTT — presumed per-packet greasing (§3.3).
	ClassGrease
)

// String returns the Table 3 column name.
func (c Class) String() string {
	switch c {
	case ClassAllZero:
		return "All Zero"
	case ClassAllOne:
		return "All One"
	case ClassSpin:
		return "Spin"
	case ClassGrease:
		return "Grease"
	default:
		return "None"
	}
}

// Conn is the full per-connection analysis.
type Conn struct {
	Class Class
	// SpinRTTsR/S are the spin-bit RTT estimates in received order and
	// after sorting by packet number.
	SpinRTTsR, SpinRTTsS []time.Duration
	// SpinMeanR/S are their means (0 when no samples).
	SpinMeanR, SpinMeanS time.Duration
	// StackMean is the mean of the QUIC stack's accepted samples.
	StackMean time.Duration
	// AbsR/S = spin − stack (§5.1 method 1); only meaningful when both
	// means exist.
	AbsR, AbsS time.Duration
	// RatioR/S is the mapped ratio of means (§5.1 method 2): always
	// divides by the smaller mean, negated when spin < stack.
	RatioR, RatioS float64
	// HasAccuracy reports that both a spin and a stack mean exist, i.e.
	// the connection contributes to Figs. 3 and 4.
	HasAccuracy bool
}

// AnalyzeConn runs the §3.3 methodology on one connection record.
func AnalyzeConn(c *scanner.ConnResult) Conn {
	var out Conn
	analyzeConn(&out, c, nil)
	return out
}

// analyzeConn is AnalyzeConn into out, which must be zero, with the
// spin-RTT series appended to rtts, which it returns grown: out's SpinRTTsR
// and SpinRTTsS alias rtts, so a caller that reuses rtts keeps out only as
// long as that.
func analyzeConn(out *Conn, c *scanner.ConnResult, rtts []time.Duration) []time.Duration {
	switch c.Kind() {
	case core.KindEmpty:
		out.Class = ClassNone
		return rtts
	case core.KindAllZero:
		out.Class = ClassAllZero
		return rtts
	case core.KindAllOne:
		out.Class = ClassAllOne
		return rtts
	}
	// Flipping: compute spin RTTs both ways.
	first := len(rtts)
	rtts = core.AppendSpinRTTs(rtts, c.Observations, false)
	mid := len(rtts)
	rtts = core.AppendSpinRTTs(rtts, c.Observations, true)
	out.SpinRTTsR, out.SpinRTTsS = span(rtts, first, mid), span(rtts, mid, len(rtts))
	out.SpinMeanR = meanDur(out.SpinRTTsR)
	out.SpinMeanS = meanDur(out.SpinRTTsS)
	out.StackMean = meanDur(c.StackRTTs)

	// Grease filter (§3.3): any spin estimate below the stack's minimum
	// marks the connection as presumably greased. A small guard band
	// absorbs sub-millisecond scheduling noise: genuine per-packet
	// greasing produces edges between back-to-back packets, i.e. samples
	// orders of magnitude below min_rtt, while honest spin cycles can tie
	// with min_rtt to within timestamp precision (the false positives the
	// paper itself observes in §5.2).
	out.Class = ClassSpin
	stackMin := c.StackMin()
	if stackMin > greaseGuard {
		for _, s := range out.SpinRTTsR {
			if s < stackMin-greaseGuard {
				out.Class = ClassGrease
				break
			}
		}
	}
	if out.SpinMeanR > 0 && out.StackMean > 0 {
		out.HasAccuracy = true
		out.AbsR = out.SpinMeanR - out.StackMean
		out.AbsS = out.SpinMeanS - out.StackMean
		out.RatioR = mappedRatio(out.SpinMeanR, out.StackMean)
		out.RatioS = mappedRatio(out.SpinMeanS, out.StackMean)
	}
	return rtts
}

// span is s[i:j] capped at j, so an append to it cannot reach past j, and
// nil when empty, as core.SpinRTTs returns no samples.
func span(s []time.Duration, i, j int) []time.Duration {
	if i == j {
		return nil
	}
	return s[i:j:j]
}

// greaseGuard is the tolerance below min_rtt before the grease filter
// fires.
const greaseGuard = time.Millisecond

// mappedRatio implements §5.1: divide the larger mean by the smaller one
// and negate the result when spin underestimates.
func mappedRatio(spin, stack time.Duration) float64 {
	if spin == 0 || stack == 0 {
		return 0
	}
	if spin >= stack {
		return float64(spin) / float64(stack)
	}
	return -float64(stack) / float64(spin)
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

// DomainClass derives the Table 3 per-domain classification from its
// connections: spin activity wins over greasing, which wins over the
// fixed-value categories.
func DomainClass(conns []Conn) Class {
	best := ClassNone
	for i := range conns {
		c := conns[i].Class
		switch {
		case c == ClassSpin:
			return ClassSpin
		case c == ClassGrease && best != ClassSpin:
			best = ClassGrease
		case c == ClassAllOne && best < ClassAllOne:
			best = ClassAllOne
		case c == ClassAllZero && best < ClassAllZero:
			best = ClassAllZero
		}
	}
	return best
}

// DomainAnalysis is one domain as the folds see it: the scan record, its
// per-connection analyses and the derived Table 3 class.
type DomainAnalysis struct {
	Src   *scanner.DomainResult
	Conns []Conn
	Class Class
}

// View selects which domains contribute to a table row.
type View struct {
	Label string
	Match func(d *scanner.DomainResult) bool
}

// StandardViews returns the paper's three list views.
func StandardViews() []View {
	return []View{
		{Label: "Toplists", Match: func(d *scanner.DomainResult) bool { return d.Toplist }},
		{Label: "CZDS", Match: func(d *scanner.DomainResult) bool { return websim.InZoneView(d.TLD) }},
		{Label: "com/net/org", Match: func(d *scanner.DomainResult) bool { return websim.ComNetOrg(d.TLD) }},
	}
}

// OverviewRow is one block of Table 1 / Table 4.
type OverviewRow struct {
	Label                                                   string
	TotalDomains, ResolvedDomains, QUICDomains, SpinDomains int
	TotalIPs, QUICIPs, SpinIPs                              int
}

// ConfigRow is one row of Table 3.
type ConfigRow struct {
	Label                               string
	QUICDomains                         int
	AllZero, AllOne, Spin, Grease, None int
}

// OrgRow is one row of Table 2.
type OrgRow struct {
	Org        string
	Rank       int // 1-based by total connections
	TotalConns int
	SpinConns  int
	SpinRank   int // 1-based by spin connections; 0 when none
}

// --- Fig. 2: longitudinal RFC compliance --------------------------------

// Longitudinal is the Fig. 2 dataset.
type Longitudinal struct {
	Weeks int
	// EverSpun is the number of domains with spin activity in any week.
	EverSpun int
	// Considered is the subset with a working QUIC connection every week.
	Considered int
	// Share[k] is the fraction of considered domains that spun in exactly
	// k weeks (k = 0..Weeks).
	Share []float64
	// RFC9000 and RFC9312 are the binomial reference shares for disabling
	// on one in 16 / one in 8 connections.
	RFC9000, RFC9312 []float64
}

// rfcShares computes the theoretical share of domains spinning in k of n
// weeks when the spin bit is disabled on one in disableN connections:
// Binomial(n, 1−1/disableN).
func rfcShares(n, disableN int) []float64 {
	p := 1 - 1/float64(disableN)
	out := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		out[k] = stats.BinomialPMF(n, k, p)
	}
	return out
}

// --- Figs. 3 and 4: accuracy histograms ---------------------------------

// AccuracySet selects which connections feed a histogram.
type AccuracySet struct {
	// Class is ClassSpin or ClassGrease.
	Class Class
	// Sorted selects the packet-number-sorted (S) variant over received
	// order (R).
	Sorted bool
}

// Fig3Edges are the absolute-difference bins in milliseconds.
var Fig3Edges = []float64{-200, -100, -50, -25, 0, 25, 50, 100, 200}

// Fig4Edges are the mapped-ratio bins (values lie in (−∞,−1] ∪ [1,∞)).
var Fig4Edges = []float64{-3, -2, -1.25, 1.25, 2, 3}

// ReorderingImpact quantifies §5.2's R-vs-S comparison.
type ReorderingImpact struct {
	// Conns is the number of accuracy-contributing connections.
	Conns int
	// Differing is how many have different R and S means.
	Differing int
	// Sub1ms is how many differing connections change by less than 1 ms.
	Sub1ms int
	// Improved is how many differing connections move closer to the stack
	// estimate after sorting.
	Improved int
}

// Reordering computes the impact of packet reordering on spin estimates
// over the spinning, accuracy-contributing connections of materialised
// scans. It needs each connection's R and S means side by side, which the
// accumulators' histograms do not retain, so it works from the results.
func Reordering(results ...*scanner.Result) ReorderingImpact {
	var out ReorderingImpact
	for _, r := range results {
		for i := range r.Domains {
			for j := range r.Domains[i].Conns {
				c := AnalyzeConn(&r.Domains[i].Conns[j])
				if c.Class == ClassSpin && c.HasAccuracy {
					out.observe(&c)
				}
			}
		}
	}
	return out
}

func (out *ReorderingImpact) observe(c *Conn) {
	out.Conns++
	if c.SpinMeanR == c.SpinMeanS {
		return
	}
	out.Differing++
	diff := c.SpinMeanR - c.SpinMeanS
	if diff < 0 {
		diff = -diff
	}
	if diff < time.Millisecond {
		out.Sub1ms++
	}
	absR, absS := c.AbsR, c.AbsS
	if absR < 0 {
		absR = -absR
	}
	if absS < 0 {
		absS = -absS
	}
	if absS < absR {
		out.Improved++
	}
}
