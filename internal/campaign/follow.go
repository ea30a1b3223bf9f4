// Package campaign runs multi-week measurement campaigns: the week
// scheduler behind `spinscan` scans week after week in virtual time through
// the streaming scanner, feeding rolling checkpoint journals and the live
// dashboard. A one-shot `-weeks N` run and the continuous `-follow` service
// are the same loop; -follow only lifts the week bound.
package campaign

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// Config drives one Follow run.
type Config struct {
	// World is the population under measurement.
	World *websim.World
	// Base is the per-week scanner configuration template; Follow sets
	// Week, Seed and Resume per attempt. Base.Interrupt stops the
	// scheduler between domains; Base.Checkpoint (optional) is the rolling
	// journal every week shares.
	Base scanner.Config
	// SeedBase derives each week's scan seed as SeedBase + week.
	SeedBase int64
	// StartWeek is the first week scanned; zero means 1.
	StartWeek int
	// MaxWeeks bounds the campaign; zero means run until interrupted.
	MaxWeeks int
	// Interval is the virtual pause between consecutive weeks (a service
	// nicety for real deployments; smoke tests leave it 0). The wait is
	// interruptible.
	Interval time.Duration
	// Sink, when non-nil, builds each week attempt's RunStream sink around
	// the attempt's accumulator — the place to tee deliveries into the live
	// dashboard (analysis.Live.Sink) or a qlog export (scanner.QlogSink).
	// The returned sink must fold every delivery into acc. Nil means
	// acc.Sink().
	Sink func(acc *analysis.Accumulator) func(i int, d *scanner.DomainResult) error
	// WeekRestarts is the per-week retry budget: a week whose scan fails
	// (not an interrupt) is retried from the journal this many times — with
	// a fresh week-isolated accumulator, so a crashed attempt can never
	// pollute the campaign — before Follow gives up. Zero means a failed
	// week fails the campaign.
	WeekRestarts int
	// RetainWeeks, with a checkpoint journal, prunes records older than
	// the last N weeks during the between-weeks compaction; zero keeps
	// everything. Pruning trades rescan time on resume for bounded disk —
	// results are unaffected either way (scans are deterministic).
	RetainWeeks int
	// Compact runs a journal compaction after every completed week,
	// bounding journal growth to ~one record per live key. Implied by
	// RetainWeeks > 0.
	Compact bool
	// Reconfigure, when non-nil, runs before each week's scan and may
	// adjust the week's scanner config in place (the SIGHUP-reloaded
	// breaker settings hook). Changes apply at week granularity: a scan in
	// flight is never reconfigured.
	Reconfigure func(cfg *scanner.Config)
	// OnWeek, when non-nil, runs after each week merges into the campaign
	// (progress logging, table snapshots).
	OnWeek func(week int, camp *analysis.CampaignAccumulator)
	// Logf logs scheduler decisions; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Result is a finished (or interrupted) follow campaign.
type Result struct {
	// Campaign holds every completed week, byte-identical to the one-shot
	// equivalent.
	Campaign *analysis.CampaignAccumulator
	// WeeksDone counts completed weeks; LastWeek is the last one merged.
	WeeksDone, LastWeek int
	// Restarts counts failed week attempts that were retried from the
	// journal.
	Restarts int
	// Interrupted reports the campaign stopped on Base.Interrupt; the
	// in-flight week (if any) was abandoned to the journal for resume.
	Interrupted bool
	// Compactions aggregates the between-weeks journal compactions.
	Compactions resilience.CompactStats
}

// Follow runs the campaign: week after week through scanner.RunStream
// until MaxWeeks weeks completed or Base.Interrupt fires.
//
// Each week scans into a fresh week-isolated CampaignAccumulator that is
// merged into the campaign only on success, so a failed attempt — worker
// panic storm, poisoned engine, storage chaos — leaves no partial state
// behind; the retry resumes from the checkpoint journal and rebuilds the
// week deterministically. Between weeks the journal is compacted and
// pruned to the retention horizon. The merged result is byte-identical in
// every rendered table to folding the same weeks straight into one
// CampaignAccumulator (TestFollowMatchesOneShot pins this against a
// test-local reference loop, with and without storage faults).
func Follow(cfg Config) (*Result, error) {
	if cfg.World == nil {
		return nil, errors.New("campaign: Follow requires a World")
	}
	if cfg.Base.Shard != (scanner.ShardRange{}) {
		return nil, errors.New("campaign: Follow drives the unsharded streaming path (shard ranges are a coordinator concern)")
	}
	first := cfg.StartWeek
	if first <= 0 {
		first = 1
	}
	res := &Result{Campaign: analysis.NewCampaignAccumulator()}
	for wk := first; cfg.MaxWeeks <= 0 || wk < first+cfg.MaxWeeks; wk++ {
		if wk > first && !sleepInterruptible(cfg.Interval, cfg.Base.Interrupt) {
			res.Interrupted = true
			return res, nil
		}
		wcfg := cfg.Base
		wcfg.Week = wk
		wcfg.Seed = cfg.SeedBase + int64(wk)
		if cfg.Reconfigure != nil {
			cfg.Reconfigure(&wcfg)
		}
		interrupted, err := runWeek(&cfg, wcfg, res)
		if err != nil {
			return res, err
		}
		if interrupted {
			res.Interrupted = true
			return res, nil
		}
		res.WeeksDone++
		res.LastWeek = wk
		if cfg.OnWeek != nil {
			cfg.OnWeek(wk, res.Campaign)
		}
		if err := compactBetweenWeeks(&cfg, wk, res); err != nil {
			// Compaction failure is a storage problem, not a campaign
			// problem: the journal is still replay-consistent (Compact is
			// crash-safe), so log and scan on.
			cfg.logf("campaign: week %d journal compaction: %v (journal unchanged; continuing)", wk, err)
		}
	}
	return res, nil
}

// runWeek scans one week, retrying from the journal within the restart
// budget. Only a successful attempt merges into the campaign.
func runWeek(cfg *Config, wcfg scanner.Config, res *Result) (interrupted bool, err error) {
	for attempt := 0; ; attempt++ {
		// A week-isolated accumulator: merged on success, dropped on
		// failure. StartWeek wires the week into the attempt's own
		// longitudinal fold; CampaignAccumulator.Merge rewires it into the
		// campaign's.
		attemptCamp := analysis.NewCampaignAccumulator()
		acc := attemptCamp.StartWeek(wcfg.Week, wcfg.IPv6, cfg.World.ASDB())
		sink := acc.Sink()
		if cfg.Sink != nil {
			sink = cfg.Sink(acc)
		}
		err := scanner.RunStream(cfg.World, wcfg, sink)
		switch {
		case err == nil:
			if merr := res.Campaign.Merge(attemptCamp); merr != nil {
				return false, fmt.Errorf("campaign: merge week %d: %w", wcfg.Week, merr)
			}
			return false, nil
		case errors.Is(err, scanner.ErrInterrupted):
			// Graceful shutdown: completed domains are in the journal (when
			// configured); the week is abandoned for a later -resume.
			return true, nil
		case attempt < cfg.WeekRestarts:
			res.Restarts++
			cfg.logf("campaign: week %d attempt %d failed: %v (restarting from journal, %d restart(s) left)",
				wcfg.Week, attempt+1, err, cfg.WeekRestarts-attempt)
			if wcfg.Checkpoint != "" {
				// Resume skips everything the failed attempt journaled; with
				// no journal the retry simply rescans, deterministically.
				wcfg.Resume = true
			}
		default:
			return false, fmt.Errorf("campaign: week %d failed after %d attempts: %w", wcfg.Week, attempt+1, err)
		}
	}
}

// compactBetweenWeeks rewrites the journal down to its live records after
// a completed week, pruning weeks outside the retention horizon. RunStream
// has closed the week's journal handle by the time this runs, so Compact's
// no-concurrent-writers requirement holds.
func compactBetweenWeeks(cfg *Config, wk int, res *Result) error {
	if cfg.Base.Checkpoint == "" || (!cfg.Compact && cfg.RetainWeeks <= 0) {
		return nil
	}
	var retain func(string) bool
	if cfg.RetainWeeks > 0 {
		oldest := wk - cfg.RetainWeeks + 1
		retain = func(key string) bool { return keyWeek(key) >= oldest }
	}
	cs, err := resilience.Compact(cfg.Base.Journal.FS, cfg.Base.Checkpoint, retain)
	if err != nil {
		return err
	}
	res.Compactions.Segments += cs.Segments
	res.Compactions.Records += cs.Records
	res.Compactions.Kept += cs.Kept
	res.Compactions.Dropped += cs.Dropped
	res.Compactions.Torn += cs.Torn
	res.Compactions.Bytes += cs.Bytes
	cfg.logf("campaign: week %d compaction: %d segment(s), %d record(s) -> %d kept, %d pruned",
		wk, cs.Segments, cs.Records, cs.Kept, cs.Dropped)
	return nil
}

// keyWeek parses the week out of a checkpoint key ("w12/v4/domain"); keys
// that do not carry one report -1 (and are always pruned by a retention
// filter, since they cannot belong to any live week).
func keyWeek(key string) int {
	if len(key) < 2 || key[0] != 'w' {
		return -1
	}
	rest := key[1:]
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 {
		return -1
	}
	wk, err := strconv.Atoi(rest[:slash])
	if err != nil {
		return -1
	}
	return wk
}

// sleepInterruptible waits d (no-op when non-positive) and reports false
// when interrupt fired instead.
func sleepInterruptible(d time.Duration, interrupt <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-interrupt:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-interrupt:
		return false
	case <-t.C:
		return true
	}
}
