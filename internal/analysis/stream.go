package analysis

import (
	"net/netip"
	"slices"
	"time"

	"quicspin/internal/asdb"
	"quicspin/internal/report"
	"quicspin/internal/scanner"
	"quicspin/internal/stats"
)

// Accumulator is the analysis pipeline for one measurement week: it folds
// scan results domain by domain and can render every per-week table without
// ever retaining a per-domain row. Feed it from scanner.RunStream via Sink,
// from a materialised scanner.Result via AddResult, or call Add directly;
// memory use is bounded by the aggregate state (IP/org/software/domain-name
// maps), not by the population size. The renderings are pinned by the
// golden suite in golden_test.go.
type Accumulator struct {
	Week int
	IPv6 bool

	views    []View
	overview []*overviewFold
	ips      ipTable
	config   []*configFold
	orgs     *orgFold
	software *softwareFold
	errs     *errorClassFold
	acc      *accuracyFold
	long     *longFold // shared campaign fold; nil outside a campaign

	// scratch and rtts are reused per Add: the per-connection analyses and
	// the spin-RTT series they alias. Aggregate state never aliases either.
	scratch []Conn
	rtts    []time.Duration
}

// NewAccumulator prepares aggregation for one measurement week. res
// resolves connection IPs to AS organisations for Table 2 (the world's
// resolver, or a loaded snapshot); with a nil resolver every connection is
// attributed to "<unknown>".
func NewAccumulator(week int, ipv6 bool, res *asdb.Resolver) *Accumulator {
	a := &Accumulator{
		Week:     week,
		IPv6:     ipv6,
		views:    StandardViews(),
		ips:      newIPTable(),
		errs:     newErrorClassFold(),
		acc:      newAccuracyFold(),
		software: newSoftwareFold(StandardViews()[1]),
	}
	for _, v := range a.views {
		a.overview = append(a.overview, newOverviewFold(v))
		a.config = append(a.config, newConfigFold(v))
	}
	a.orgs = newOrgFold(a.views[2], res)
	return a
}

// Add folds one finished domain into every aggregate and returns the
// domain's spin class (the live dashboard's window counters reuse it
// without re-analysing the connections). The DomainResult is only read
// during the call; the per-connection analyses live in a scratch slice
// reused across calls.
func (a *Accumulator) Add(d *scanner.DomainResult) Class {
	// Each analysis is filled in its scratch slot, not built aside and
	// copied in.
	conns := slices.Grow(a.scratch[:0], len(d.Conns))[:len(d.Conns)]
	clear(conns)
	rtts := a.rtts[:0]
	for j := range conns {
		rtts = analyzeConn(&conns[j], &d.Conns[j], rtts)
	}
	a.scratch, a.rtts = conns, rtts
	da := DomainAnalysis{Src: d, Conns: conns, Class: DomainClass(conns)}
	var mask ipBits
	for i, v := range a.views {
		if !v.Match(d) {
			continue
		}
		if a.overview[i].add(&da) {
			mask |= 1 << i
		}
		a.config[i].add(&da)
	}
	if mask != 0 {
		addIPs(a.ips, &da, mask)
	}
	a.orgs.add(&da)
	a.software.add(&da)
	a.errs.add(d)
	a.acc.add(&da)
	if a.long != nil {
		a.long.add(&da)
	}
	return da.Class
}

// AddResult folds every domain of a materialised scan — scanner.Run's, or
// one reassembled from qlog traces by scanner.MergeQlogConns — and returns
// a for chaining.
func (a *Accumulator) AddResult(r *scanner.Result) *Accumulator {
	for i := range r.Domains {
		a.Add(&r.Domains[i])
	}
	return a
}

// Sink adapts the accumulator to scanner.RunStream's delivery callback.
func (a *Accumulator) Sink() func(i int, d *scanner.DomainResult) error {
	return func(_ int, d *scanner.DomainResult) error {
		a.Add(d)
		return nil
	}
}

// RenderOverview renders Table 1/4 from the folded state.
func (a *Accumulator) RenderOverview() *report.Table {
	return renderOverviewTable(a.Week, a.IPv6, a.OverviewRows())
}

// RenderOrgTable renders Table 2 (com/net/org view): organisations ranked
// by connection count, those beyond topN merged into an "<other>" row.
func (a *Accumulator) RenderOrgTable(topN int) *report.Table {
	return renderOrgTable(a.Week, a.orgs.finish(topN))
}

// RenderSpinConfig renders Table 3.
func (a *Accumulator) RenderSpinConfig() *report.Table {
	return renderSpinConfigTable(a.Week, a.ConfigRows())
}

// RenderSoftwareTable renders the §4.2 webserver attribution (CZDS view).
func (a *Accumulator) RenderSoftwareTable() *report.Table {
	return renderSoftwareTable(a.software.v.Label, a.Week, a.software.finish())
}

// RenderErrorClasses renders Table 5.
func (a *Accumulator) RenderErrorClasses() *report.Table {
	return renderErrorTable(a.Week, a.errs)
}

// OverviewRows returns the finished Table 1/4 rows (one per view), for
// consumers that need the counts rather than the rendered table (the
// cross-vantage agreement table in internal/shard).
func (a *Accumulator) OverviewRows() []OverviewRow {
	rows := make([]OverviewRow, len(a.overview))
	for i, f := range a.overview {
		rows[i] = f.row
	}
	a.ips.each(func(_ netip.Addr, b ipBits) {
		for i := range rows {
			seen, quic, spin := b.view(i)
			if !seen {
				continue
			}
			rows[i].TotalIPs++
			if quic {
				rows[i].QUICIPs++
			}
			if spin {
				rows[i].SpinIPs++
			}
		}
	})
	return rows
}

// ConfigRows returns the Table 3 classification rows (one per view).
func (a *Accumulator) ConfigRows() []ConfigRow {
	rows := make([]ConfigRow, 0, len(a.config))
	for _, f := range a.config {
		rows = append(rows, f.row)
	}
	return rows
}

// RenderAccuracy renders the week's Fig. 3 or Fig. 4 panels.
func (a *Accumulator) RenderAccuracy(fig int) string {
	return renderAccuracyFrom(fig, func(i int) *stats.Histogram {
		return a.acc.histAt(fig, i)
	})
}

// Headlines returns the week's §5.2 headline accuracy shares.
func (a *Accumulator) Headlines() AccuracyHeadlines {
	return a.acc.headlines()
}

// CampaignAccumulator spans a multi-week campaign: it owns the shared
// Fig. 2 fold (cross-week spin history by domain name) and merges the
// weekly accuracy folds for campaign-level Figs. 3/4.
type CampaignAccumulator struct {
	long  *longFold
	weeks []*Accumulator
}

// NewCampaignAccumulator prepares a multi-week campaign.
func NewCampaignAccumulator() *CampaignAccumulator {
	return &CampaignAccumulator{long: newLongFold()}
}

// StartWeek returns the accumulator for one week's scan, wired into the
// campaign's longitudinal fold. Weeks are indexed by (week, ipv6), not by
// call order: starting weeks 3, 1, 2 yields the same campaign as 1, 2, 3,
// and starting an already-started week returns its existing accumulator
// (further Adds continue the same week's fold). This is what lets shard
// workers scan week subsets in any order and still merge into an aligned
// longitudinal table. Weekly aggregate state stays available for rendering
// but no per-domain data is retained.
func (c *CampaignAccumulator) StartWeek(week int, ipv6 bool, res *asdb.Resolver) *Accumulator {
	if a := c.findWeek(week, ipv6); a != nil {
		return a
	}
	a := NewAccumulator(week, ipv6, res)
	a.long = c.long
	c.insertWeek(a)
	return a
}

// Weeks returns the per-week accumulators in (Week, IPv6) order,
// independent of the order they were started in.
func (c *CampaignAccumulator) Weeks() []*Accumulator { return c.weeks }

// Longitudinal computes the Fig. 2 dataset over all started weeks. Domains
// are matched by name, so the weeks may come from independently loaded qlog
// sets.
func (c *CampaignAccumulator) Longitudinal() Longitudinal {
	return c.long.finish(len(c.weeks))
}

// accuracy merges every week's accuracy fold.
func (c *CampaignAccumulator) accuracy() *accuracyFold {
	merged := newAccuracyFold()
	for _, a := range c.weeks {
		merged.merge(a.acc)
	}
	return merged
}

// RenderAccuracy renders campaign-level Fig. 3 or Fig. 4 panels over every
// week's connections.
func (c *CampaignAccumulator) RenderAccuracy(fig int) string {
	merged := c.accuracy()
	return renderAccuracyFrom(fig, func(i int) *stats.Histogram {
		return merged.histAt(fig, i)
	})
}

// Headlines returns the §5.2 headline accuracy shares over every week's
// connections.
func (c *CampaignAccumulator) Headlines() AccuracyHeadlines {
	return c.accuracy().headlines()
}
