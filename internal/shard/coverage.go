package shard

import (
	"fmt"
	"strconv"
	"strings"

	"quicspin/internal/report"
)

// ShardState classifies one shard's supervision outcome.
type ShardState int

const (
	// ShardOK means the shard's first attempt completed.
	ShardOK ShardState = iota
	// ShardRecovered means the shard's scan failed at least once but
	// a supervised restart completed it — by construction with the same
	// results an undisturbed run would have produced.
	ShardRecovered
	// ShardLost means the shard kept failing past its restart budget (or
	// its accumulator could not be delivered); its range is missing from
	// the merged tables.
	ShardLost
)

func (s ShardState) String() string {
	switch s {
	case ShardOK:
		return "ok"
	case ShardRecovered:
		return "recovered"
	case ShardLost:
		return "lost"
	default:
		return fmt.Sprintf("ShardState(%d)", int(s))
	}
}

// ShardStatus is one shard's supervision record: of one week inside the
// runner, of the whole campaign (see vantageRun.fold) in a Coverage.
type ShardStatus struct {
	Shard    int
	Range    Range
	State    ShardState
	Restarts int
	// Faults describes every fault the supervisor absorbed (or gave up
	// on), oldest first.
	Faults []string
	// Err is the interrupt error for interrupted shards and the terminal
	// fault for lost ones; nil for shards that completed.
	Err error
}

// Coverage is the degraded-merge accounting for one vantage: exactly
// which part of the population the merged tables describe. A campaign
// with no lost shards has Complete coverage; the coordinator only
// produces partial coverage instead of failing when StrictShards is off.
type Coverage struct {
	// TotalDomains is the vantage's full population size.
	TotalDomains int
	// CoveredDomains counts population indices inside surviving shards.
	CoveredDomains int
	// Missing lists the population ranges of shards lost in any week,
	// ascending and coalesced (adjacent lost shards merge into one range).
	Missing []Range
	// Shards records every shard's supervision outcome, in shard order.
	Shards []ShardStatus
}

// Complete reports whether every shard survived.
func (c Coverage) Complete() bool { return len(c.Missing) == 0 }

// Fraction is the covered share of the population (1 for an empty
// population).
func (c Coverage) Fraction() float64 {
	if c.TotalDomains == 0 {
		return 1
	}
	return float64(c.CoveredDomains) / float64(c.TotalDomains)
}

// Confidence renders the per-table annotation for degraded output: which
// share of the population the named table reflects and what is missing.
// Empty for complete coverage — complete tables need no caveat.
func (c Coverage) Confidence(table string) string {
	if c.Complete() {
		return ""
	}
	var ranges []string
	for _, r := range c.Missing {
		ranges = append(ranges, fmt.Sprintf("[%d,%d)", r.Start, r.End))
	}
	return fmt.Sprintf("%s: %.1f%% of the population covered (%d of %d domains; missing %s)",
		table, 100*c.Fraction(), c.CoveredDomains, c.TotalDomains, strings.Join(ranges, " "))
}

// RenderCoverage renders the supervision report: one row per shard with
// its state, restart count and faults, plus a coverage summary row.
func RenderCoverage(c Coverage) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Shard supervision — %d of %d domains covered (%.1f%%)",
			c.CoveredDomains, c.TotalDomains, 100*c.Fraction()),
		"Shard", "Range", "State", "Restarts", "Faults")
	for _, st := range c.Shards {
		faults := strings.Join(st.Faults, "; ")
		if faults == "" {
			faults = "-"
		}
		t.AddRow(strconv.Itoa(st.Shard),
			fmt.Sprintf("[%d,%d)", st.Range.Start, st.Range.End),
			st.State.String(), strconv.Itoa(st.Restarts), faults)
	}
	return t
}

// fold adds one merged week's supervision records to the campaign-long
// ones: a shard's state is its worst over the weeks, its restarts add up and
// every fault it absorbed is kept, prefixed by its week.
func (vs *vantageRun) fold(week int, statuses []ShardStatus) {
	for si, st := range statuses {
		agg := &vs.statuses[si]
		agg.State = max(agg.State, st.State)
		agg.Restarts += st.Restarts
		for _, f := range st.Faults {
			agg.Faults = append(agg.Faults, fmt.Sprintf("week %d: %s", week, f))
		}
		if st.Err != nil {
			agg.Err = st.Err
		}
	}
}

// buildCoverage derives the vantage's coverage accounting from the
// supervision records: lost shards' ranges become the missing set.
func buildCoverage(total int, statuses []ShardStatus) Coverage {
	cov := Coverage{TotalDomains: total, CoveredDomains: total, Shards: statuses}
	for _, st := range statuses {
		if st.State != ShardLost || st.Range.End <= st.Range.Start {
			continue
		}
		cov.CoveredDomains -= st.Range.End - st.Range.Start
		if n := len(cov.Missing); n > 0 && cov.Missing[n-1].End == st.Range.Start {
			cov.Missing[n-1].End = st.Range.End
			continue
		}
		cov.Missing = append(cov.Missing, st.Range)
	}
	return cov
}
