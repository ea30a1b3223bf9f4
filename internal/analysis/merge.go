package analysis

import (
	"fmt"
	"sort"
)

// Merge semantics: every fold object is a keyed sum (counters, count maps)
// or a keyed monotone flag (ipBits, longTrack.everSpun), so merging is
// associative AND commutative, with the freshly-constructed fold as the
// identity. The distributed coordinator (internal/shard) relies on exactly
// these laws: shard accumulators can be merged in any grouping and any
// order and still render byte-identical tables to a single-process fold of
// the whole population. merge_test.go pins each law over seeded worlds.

// MergeError reports an attempt to merge accumulators that aggregate
// different measurements (different weeks, address families, or view sets).
// Such merges are always a coordinator bug, never data-dependent, so they
// fail loudly instead of producing silently misaligned tables.
type MergeError struct {
	// Field names the mismatched property ("week", "ipv6", "views").
	Field string
	// Have and Got describe the receiver's and the argument's value.
	Have, Got string
}

func (e *MergeError) Error() string {
	return fmt.Sprintf("analysis: cannot merge accumulators: %s mismatch (have %s, got %s)", e.Field, e.Have, e.Got)
}

// Merge folds another accumulator of the same (Week, IPv6) measurement into
// a. The other accumulator is only read: every fold copies its counts and
// rows, so o stays valid and may keep folding, and later Adds into either
// never reach the other. Merging never touches the campaign longitudinal
// fold — that lives on the CampaignAccumulator and has its own Merge.
func (a *Accumulator) Merge(o *Accumulator) error {
	if o == nil {
		return nil
	}
	if a.Week != o.Week {
		return &MergeError{Field: "week", Have: fmt.Sprint(a.Week), Got: fmt.Sprint(o.Week)}
	}
	if a.IPv6 != o.IPv6 {
		return &MergeError{Field: "ipv6", Have: fmt.Sprint(a.IPv6), Got: fmt.Sprint(o.IPv6)}
	}
	if len(a.views) != len(o.views) {
		return &MergeError{Field: "views", Have: fmt.Sprint(len(a.views)), Got: fmt.Sprint(len(o.views))}
	}
	for i := range a.views {
		if a.views[i].Label != o.views[i].Label {
			return &MergeError{Field: "views", Have: a.views[i].Label, Got: o.views[i].Label}
		}
	}
	for i := range a.overview {
		a.overview[i].merge(o.overview[i])
		a.config[i].merge(o.config[i])
	}
	a.ips.merge(o.ips)
	a.orgs.merge(o.orgs)
	a.software.merge(o.software)
	a.errs.merge(o.errs)
	a.acc.merge(o.acc)
	return nil
}

func (f *overviewFold) merge(o *overviewFold) {
	// Only the add-path counters merge; the per-IP counts are derived from
	// the accumulator's IP table by OverviewRows.
	f.row.TotalDomains += o.row.TotalDomains
	f.row.ResolvedDomains += o.row.ResolvedDomains
	f.row.QUICDomains += o.row.QUICDomains
	f.row.SpinDomains += o.row.SpinDomains
}

func (f *configFold) merge(o *configFold) {
	f.row.QUICDomains += o.row.QUICDomains
	f.row.AllZero += o.row.AllZero
	f.row.AllOne += o.row.AllOne
	f.row.Spin += o.row.Spin
	f.row.Grease += o.row.Grease
	f.row.None += o.row.None
}

func (f *orgFold) merge(o *orgFold) {
	for org, r := range o.totals {
		dst := f.totals[org]
		if dst == nil {
			dst = &OrgRow{Org: org}
			f.totals[org] = dst
		}
		dst.TotalConns += r.TotalConns
		dst.SpinConns += r.SpinConns
	}
}

func (f *softwareFold) merge(o *softwareFold) {
	for sw, r := range o.agg {
		dst := f.agg[sw]
		if dst == nil {
			dst = &SoftwareRow{Software: sw}
			f.agg[sw] = dst
		}
		dst.Conns += r.Conns
		dst.SpinConns += r.SpinConns
	}
}

func (f *errorClassFold) merge(o *errorClassFold) {
	f.total += o.total
	for cls, n := range o.classes {
		f.classes[cls] += n
	}
	for p, n := range o.profiles {
		f.profiles[p] += n
	}
}

func (f *longFold) merge(o *longFold) {
	for name, t := range o.domains {
		dst := f.track(name)
		dst.everSpun = dst.everSpun || t.everSpun
		dst.quicWeeks += t.quicWeeks
		dst.spinWeeks += t.spinWeeks
	}
}

// Merge folds another campaign into c: the longitudinal folds merge by
// domain name, and weekly accumulators pair up by (Week, IPv6). A week only
// the other campaign scanned is adopted as is: c takes o's accumulator
// itself, not a copy, and rewires it onto c's longitudinal fold, so o must
// not fold into that week afterwards. A week both campaigns hold merges
// through Accumulator.Merge, which only reads o's. The shard runner starts
// the week in c first, so it never adopts; campaigns that each scanned
// different week subsets merge by adoption.
func (c *CampaignAccumulator) Merge(o *CampaignAccumulator) error {
	if o == nil {
		return nil
	}
	// Validate the pairing before mutating anything, so a failed merge
	// leaves c untouched.
	for _, w := range o.weeks {
		if mine := c.findWeek(w.Week, w.IPv6); mine != nil {
			if len(mine.views) != len(w.views) {
				return &MergeError{Field: "views", Have: fmt.Sprint(len(mine.views)), Got: fmt.Sprint(len(w.views))}
			}
			for i := range mine.views {
				if mine.views[i].Label != w.views[i].Label {
					return &MergeError{Field: "views", Have: mine.views[i].Label, Got: w.views[i].Label}
				}
			}
		}
	}
	c.long.merge(o.long)
	for _, w := range o.weeks {
		if mine := c.findWeek(w.Week, w.IPv6); mine != nil {
			if err := mine.Merge(w); err != nil {
				return err
			}
			continue
		}
		w.long = c.long
		c.insertWeek(w)
	}
	return nil
}

// findWeek returns the accumulator for (week, ipv6), or nil.
func (c *CampaignAccumulator) findWeek(week int, ipv6 bool) *Accumulator {
	for _, a := range c.weeks {
		if a.Week == week && a.IPv6 == ipv6 {
			return a
		}
	}
	return nil
}

// insertWeek adds a week accumulator keeping c.weeks sorted by (Week, IPv6
// last). Weeks therefore render in campaign order however they arrived —
// the StartWeek regression tests pin this.
func (c *CampaignAccumulator) insertWeek(a *Accumulator) {
	i := sort.Search(len(c.weeks), func(i int) bool {
		w := c.weeks[i]
		if w.Week != a.Week {
			return w.Week > a.Week
		}
		return w.IPv6 && !a.IPv6
	})
	c.weeks = append(c.weeks, nil)
	copy(c.weeks[i+1:], c.weeks[i:])
	c.weeks[i] = a
}
