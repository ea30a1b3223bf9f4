package analysis

import (
	"fmt"

	"quicspin/internal/hostile"
	"quicspin/internal/report"
	"quicspin/internal/resilience"
	"quicspin/internal/stats"
)

// renderOverviewTable formats Table 1 (IPv4) or Table 4 (IPv6) from
// aggregated rows.
func renderOverviewTable(week int, ipv6 bool, rows []OverviewRow) *report.Table {
	title := "Table 1. Overview of IPv4 results"
	if ipv6 {
		title = "Table 4. Overview of IPv6 results"
	}
	t := report.NewTable(title+fmt.Sprintf(" (week %d)", week),
		"List", "Unit", "Total", "Resolved", "QUIC", "Spin", "Spin%")
	for _, row := range rows {
		t.AddRow(row.Label, "#Domains",
			report.Count(row.TotalDomains), report.Count(row.ResolvedDomains),
			report.Count(row.QUICDomains), report.Count(row.SpinDomains),
			stats.Percent(row.SpinDomains, row.QUICDomains))
		t.AddRow("", "#IPs",
			report.Count(row.TotalIPs), "",
			report.Count(row.QUICIPs), report.Count(row.SpinIPs),
			stats.Percent(row.SpinIPs, row.QUICIPs))
	}
	return t
}

// renderOrgTable formats Table 2 from ranked rows.
func renderOrgTable(week int, rows []OrgRow) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table 2. QUIC connections and spin activity per AS organization (com/net/org, week %d)", week),
		"Rank", "Total #", "AS Organization", "Spin #", "Spin %", "Spin Rank")
	for _, r := range rows {
		rank, spinRank := "", ""
		if r.Rank > 0 {
			rank = fmt.Sprintf("%d", r.Rank)
		}
		if r.SpinRank > 0 {
			spinRank = fmt.Sprintf("%d", r.SpinRank)
		}
		t.AddRow(rank, report.Count(r.TotalConns), r.Org,
			report.Count(r.SpinConns), stats.Percent(r.SpinConns, r.TotalConns), spinRank)
	}
	return t
}

// renderSpinConfigTable formats Table 3 from aggregated rows.
func renderSpinConfigTable(week int, rows []ConfigRow) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table 3. Spin behavior of all QUIC domains (week %d)", week),
		"List", "All Zero", "All One", "Spin", "Grease")
	for _, r := range rows {
		pc := func(n int) string {
			return fmt.Sprintf("%s (%s)", report.Count(n), stats.Percent(n, r.QUICDomains))
		}
		t.AddRow(r.Label, pc(r.AllZero), pc(r.AllOne), report.Count(r.Spin), pc(r.Grease))
	}
	return t
}

// renderErrorTable formats Table 5, the connection-failure breakdown by
// resilience error class, with hostile-endpoint profiles broken out beneath
// the hostile class. Shares are over all connection attempts of the week.
func renderErrorTable(week int, f *errorClassFold) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table 5. Connection errors by class (week %d)", week),
		"Class", "Conns", "Share")
	for cls := resilience.ClassNone + 1; cls <= resilience.ClassOther; cls++ {
		n := f.classes[cls]
		if n == 0 {
			continue
		}
		t.AddRow(cls.String(), report.Count(n), stats.Percent(n, f.total))
		if cls != resilience.ClassHostile {
			continue
		}
		for _, p := range hostile.Profiles() {
			if pn := f.profiles[p]; pn > 0 {
				t.AddRow("  hostile: "+p.String(), report.Count(pn), stats.Percent(pn, f.total))
			}
		}
	}
	if f.classes == ([resilience.ClassOther + 1]int{}) {
		t.AddRow("(no errors)", report.Count(0), stats.Percent(0, f.total))
	}
	return t
}

// RenderLongitudinal renders the Fig. 2 histogram with RFC reference
// columns.
func RenderLongitudinal(l Longitudinal) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 2. Weeks with spin bit enabled (%s domains ever spun, %s considered)",
			report.Count(l.EverSpun), report.Count(l.Considered)),
		"Weeks", "Share", "RFC 9312 (1/8)", "RFC 9000 (1/16)")
	for k := 1; k <= l.Weeks; k++ {
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1f%%", l.Share[k]*100),
			fmt.Sprintf("%.1f%%", l.RFC9312[k]*100),
			fmt.Sprintf("%.1f%%", l.RFC9000[k]*100))
	}
	return t
}

// renderAccuracyFrom formats the four Fig. 3 (abs difference) or Fig. 4
// (mapped ratio) panels given a source of per-panel histograms.
func renderAccuracyFrom(fig int, hist func(i int) *stats.Histogram) string {
	unit := "mapped ratio of means"
	if fig == 3 {
		unit = "ms abs difference (spin − stack)"
	}
	out := ""
	for i, name := range accuracySetNames {
		h := hist(i)
		out += fmt.Sprintf("Figure %d — %s, %s (n=%d)\n%s\n", fig, name, unit, h.N, h)
	}
	return out
}

// AccuracyHeadlines computes the §5.2 headline numbers on the Spin (R)
// set: share overestimating, share within 25 ms, share over 200 ms (Fig.
// 3), and the within-25 %, within-2x and over-3x ratio shares (Fig. 4).
type AccuracyHeadlines struct {
	N                 int
	OverestimateShare float64
	Within25ms        float64
	Over200ms         float64
	Within25pct       float64
	Within2x          float64
	Over3x            float64
}
