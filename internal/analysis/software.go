package analysis

import (
	"fmt"

	"quicspin/internal/report"
	"quicspin/internal/stats"
)

// SoftwareRow attributes connections to webserver software via the HTTP
// Server header (§4.2 "Webserver support": the paper finds LiteSpeed
// behind >80 % of spinning connections, plus imunify360-webshield, which
// it suspects builds on LiteSpeed).
type SoftwareRow struct {
	Software  string
	Conns     int
	SpinConns int
}

// SpinShareOfSoftware returns the given software's share of all spinning
// connections in the view (the paper's ">80 % LiteSpeed" number).
func SpinShareOfSoftware(rows []SoftwareRow, software string) float64 {
	var total, match int
	for _, r := range rows {
		total += r.SpinConns
		if r.Software == software {
			match += r.SpinConns
		}
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}

// renderSoftwareTable formats the attribution table from sorted rows.
func renderSoftwareTable(label string, week int, rows []SoftwareRow) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Webserver attribution (%s, week %d) — §4.2", label, week),
		"Server", "QUIC conns", "Spin conns", "Spin %")
	for _, r := range rows {
		t.AddRow(r.Software, report.Count(r.Conns), report.Count(r.SpinConns),
			stats.Percent(r.SpinConns, r.Conns))
	}
	return t
}
