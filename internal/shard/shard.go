// Package shard is the campaign runner: Run scans the population week after
// week, from one vantage point or several, with every week planned into
// one or more contiguous population ranges ("shards") that are scanned
// concurrently through scanner.RunStream — each with its own checkpoint
// journal, breakers and telemetry labels — under a supervisor that restarts
// failed scans, and merged back into one campaign whose Tables
// 1–5 and Figs. 2–4 are byte-identical to a plain unsharded week loop
// (determinism_test.go pins this, like worker-count invariance before it).
// A one-shot `spinscan -week N`, a `-weeks N` campaign, the `-follow`
// service and a `-shards N` scan-out are all this one loop. (The package
// keeps the name of the subsystem the runner grew out of; DESIGN.md §3 says
// why.)
//
// The ranges run as goroutines in this process; the accumulators they
// produce flow back to the merge two ways (Config.Transport): a round-trip
// through the versioned wire format (internal/analysis codec), or real UDP
// sockets via internal/udprun — the exchange a multi-process deployment
// would use. Either way the merge reads only encoded bytes, proving the
// merged tables are process-agnostic.
//
// Multi-vantage campaigns scan every week from each vantage point through
// its own extra path delay/jitter (scanner.Vantage), and RenderAgreement
// compares the per-vantage spin verdict distributions.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// Range is one contiguous slice of the canonical population order,
// [Start, End).
type Range struct {
	Start int
	End   int
}

// Plan splits a population of n domains into the given number of
// contiguous shards, as evenly as possible (the first n%shards shards get
// one extra domain). Shards beyond the population come out empty; the
// shard count never bends to the population, so a fixed -shards flag means
// a fixed journal layout.
func Plan(n, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	out := make([]Range, shards)
	base, extra := n/shards, n%shards
	start := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Start: start, End: start + size}
		start += size
	}
	return out
}

// Transport selects how shard accumulators travel back to the coordinator.
type Transport int

const (
	// TransportSerialized (the default) round-trips every shard accumulator
	// through the versioned wire format before merging — what any
	// cross-process deployment carries, without the sockets.
	TransportSerialized Transport = iota
	// TransportUDP ships serialized accumulators over real loopback UDP
	// sockets (QUIC-lite streams driven by internal/udprun) to a collector
	// endpoint, then merges the received bytes.
	TransportUDP
)

func (t Transport) String() string {
	switch t {
	case TransportSerialized:
		return "serialized"
	case TransportUDP:
		return "udp"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// ParseTransport parses the spinscan -shard-transport flag value.
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "serialized":
		return TransportSerialized, nil
	case "udp":
		return TransportUDP, nil
	default:
		return 0, fmt.Errorf("shard: unknown transport %q (want serialized or udp)", s)
	}
}

// Config parameterises one campaign.
type Config struct {
	// Shards is the number of population ranges scanned concurrently. Zero
	// means unsharded: one range covering the whole population, scanned and
	// journaled exactly like Shards: 1.
	Shards int
	// Weeks are the campaign weeks, scanned in order. Never empty: a
	// forgotten field must not mean "forever" (see UntilInterrupted).
	Weeks []int
	// UntilInterrupted keeps the campaign going past the last entry of
	// Weeks, one consecutive week after another, until Interrupt fires —
	// the follow service. It requires Interrupt.
	UntilInterrupted bool
	// Interval is the real-time pause between consecutive weeks (a service
	// nicety; zero scans back to back). The wait is interruptible.
	Interval time.Duration
	// Vantages are the scanning locations; each scans every week through
	// its own path delay into its own campaign. Empty means one baseline
	// vantage.
	Vantages []scanner.Vantage
	// ForWeek returns the scan configuration for one week (seed, engine,
	// workers, retry/breaker policy, address family, journal tuning…). It
	// is called once per week, before the week's first scan, so it is also
	// where per-week reconfiguration happens: a scan in flight is never
	// reconfigured. Run overrides Week, Shard, Vantage, Interrupt,
	// Checkpoint and Resume.
	ForWeek func(week int) scanner.Config
	// Interrupt, when non-nil, stops the campaign gracefully as soon as it
	// is closed (or receives): Run stamps it into every scan.
	Interrupt <-chan struct{}
	// Tee, when non-nil, is called once per scan attempt and returns a sink
	// that sees every delivery of that attempt before it is folded — the
	// qlog export (scanner.QlogSink). vantage is the vantage's directory
	// name, the one its journals sit under; sc is the attempt's scan
	// configuration. An error from the sink, or a panic in it, fails the
	// attempt like a crash.
	Tee func(vantage string, sc scanner.Config) func(i int, d *scanner.DomainResult) error
	// Checkpoint, when non-empty, is the campaign's journal root. Every
	// scan journals in a directory of its own,
	// Checkpoint/w<week>-<v4|v6>/<vantage>/shard-<NNN>, so a killed campaign
	// resumes range by range and a resumed or restarted scan replays only
	// its own week.
	Checkpoint string
	// Resume replays the existing journals before scanning.
	Resume bool
	// RetainWeeks removes the week directories older than the last N weeks
	// after each completed week; zero keeps everything. Pruning trades
	// rescan time on resume for bounded disk — results are unaffected
	// either way (scans are deterministic).
	RetainWeeks int
	// Transport selects the accumulator merge path (see the constants).
	Transport Transport
	// Telemetry receives the shard/vantage gauges and per-shard progress
	// counters in addition to the scanner's own campaign metrics.
	Telemetry *telemetry.Registry
	// Live, when non-nil, receives every range's deliveries for the
	// /debug/campaign dashboard (shard-merged tables, rolling windows).
	Live *analysis.Live
	// MaxRestarts is the restart budget of one range in one week: how many
	// times the supervisor relaunches a failed scan — one that returned an
	// error or panicked — resuming from its checkpoint journal, before
	// declaring the range lost for that week. Zero means scans are never restarted.
	MaxRestarts int
	// RestartBackoff paces restarts (real time). The zero value takes the
	// resilience defaults: 250ms base, doubling, capped at 5s.
	RestartBackoff resilience.RetryPolicy
	// StrictShards restores fail-fast semantics: any range lost after its
	// restart budget aborts the campaign. When false (the default), the
	// surviving ranges merge and VantageResult.Coverage reports exactly
	// what is missing.
	StrictShards bool
	// Faults, when non-nil, injects the plan's shard rules (scripted worker
	// crashes and panics; target: the shard index, index: the shard's
	// deliveries across its restarts and weeks) and udp rules (both ends of
	// the UDP collector exchange) — the chaos harness the
	// determinism suite runs under. The configs ForWeek returns carry the
	// other sites' plan.
	Faults *fault.Plan
	// Logf, when non-nil, receives the runner's progress lines (weeks,
	// restarts, losses, submit retries, pruned journals).
	Logf func(format string, args ...any)
}

// ranges is the number of population ranges a week is planned into.
func (c Config) ranges() int { return max(c.Shards, 1) }

// Validate reports descriptive errors for campaign misconfiguration.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("shard: Shards must be >= 0 (0 means unsharded), got %d", c.Shards)
	}
	if len(c.Weeks) == 0 {
		return fmt.Errorf("shard: at least one campaign week is required")
	}
	if c.UntilInterrupted && c.Interrupt == nil {
		return fmt.Errorf("shard: UntilInterrupted requires an Interrupt channel")
	}
	if c.ForWeek == nil {
		return fmt.Errorf("shard: ForWeek must be set")
	}
	if c.Transport < TransportSerialized || c.Transport > TransportUDP {
		return fmt.Errorf("shard: unknown Transport %d", int(c.Transport))
	}
	if c.Resume && c.Checkpoint == "" {
		return fmt.Errorf("shard: Resume requires a Checkpoint directory")
	}
	if c.RetainWeeks < 0 {
		return fmt.Errorf("shard: RetainWeeks must be >= 0, got %d", c.RetainWeeks)
	}
	if c.MaxRestarts < 0 {
		return fmt.Errorf("shard: MaxRestarts must be >= 0, got %d", c.MaxRestarts)
	}
	if err := checkVantageNames(c.Vantages); err != nil {
		return err
	}
	for _, r := range c.Faults.Rules() {
		if r.Site != fault.Shard {
			continue
		}
		if si, err := strconv.Atoi(r.Target); err != nil || si < 0 || si >= c.ranges() {
			return fmt.Errorf("shard: fault targets shard %q, campaign has shards 0-%d", r.Target, c.ranges()-1)
		}
	}
	return nil
}

// VantageResult is one vantage point's merged campaign.
type VantageResult struct {
	Vantage scanner.Vantage
	// Campaign holds every completed week.
	Campaign *analysis.CampaignAccumulator
	// Coverage records each shard's supervision outcome over the campaign
	// and — for degraded merges — exactly which population ranges some week
	// of the campaign is missing.
	Coverage Coverage
}

// Result is the outcome of one campaign.
type Result struct {
	// Shards echoes Config.Shards.
	Shards int
	// Vantages holds one campaign per vantage point, in Config order.
	Vantages []VantageResult
}

// run is the state of one Run call.
type run struct {
	w      *websim.World
	cfg    Config
	ranges []Range
	// stop is the campaign's one interrupt: closed when Config.Interrupt
	// fires or when any range's scan reports scanner.ErrInterrupted (an
	// injected scan.interrupt), and stamped into every scan — an interrupt
	// anywhere stops everything, and stays stopped.
	stop     chan struct{}
	stopOnce sync.Once

	restarts      *telemetry.Counter
	lost          *telemetry.Counter
	submitRetries *telemetry.Counter
}

func (r *run) interrupt() { r.stopOnce.Do(func() { close(r.stop) }) }

func (r *run) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// vantageRun is what one vantage carries from week to week.
type vantageRun struct {
	v  scanner.Vantage
	vi int
	// dir is the vantage's subdirectory of every week's journal directory
	// (and the name Tee receives); label names it in telemetry, logs and
	// reports. Validate keeps both unique across vantages.
	dir, label string
	camp       *analysis.CampaignAccumulator
	// statuses is the campaign-long supervision record per shard.
	statuses []ShardStatus
	// delivered counts each shard's deliveries across its attempts and
	// weeks: the index of the plan's shard faults ("after 40, twice" kills
	// the attempt delivering the 41st domain and the next attempt's first
	// delivery).
	delivered []atomic.Int64
}

// Run is the campaign runner — the one week loop of the repository. For
// each week, for each vantage, the population is planned into
// max(Shards, 1) ranges; every range is scanned under the supervisor
// (attempt → restart from its journal → lost) into a week-isolated
// accumulator; the ranges merge over the configured transport; and the week
// folds into the vantage's campaign only on success, so a failed attempt —
// worker panic storm, poisoned engine, storage chaos — leaves no partial
// state behind. Between weeks the week directories past the retention
// horizon are removed. An unsharded run is the same path with one range, and
// a one-shot run the same loop as the follow service with a bounded Weeks.
// The result is byte-identical in every rendered table to folding the same
// weeks straight into one CampaignAccumulator, for any Shards, Transport,
// worker count, resume point and injected transient fault (the determinism
// tests pin this against a test-local reference loop).
//
// Four rules hold for every configuration:
//
//   - Interrupt: an in-flight week is never merged. When Interrupt fires, or
//     any range's scan reports scanner.ErrInterrupted, every range is told
//     to stop and Run returns the completed weeks with
//     scanner.ErrInterrupted; what the abandoned week finished is in the
//     journals for a later Resume.
//   - Restart budget: MaxRestarts is per range per week. A range lost in
//     week k is planned again in week k+1 — a transient fault never costs
//     a follow service a shard for good.
//   - Coverage over weeks: a vantage's Coverage.Missing is the union of the
//     per-week missing ranges; a shard's ShardStatus is its worst state,
//     with its restarts summed and each Faults entry prefixed by its week.
//   - Fault index: a shard fault's index counts the shard's deliveries over
//     the whole campaign (per vantage), not per week: "shard.crash:1@40" is
//     shard 1's 41st delivery wherever week boundaries fall.
//
// Any error other than an interrupt fails the campaign; the Result then
// still holds the weeks completed before it.
func Run(w *websim.World, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Telemetry.Describe(map[string]string{
		"shard_restarts_total": "Supervised shard-worker restarts (crash, panic or sink-error recoveries).",
		"shard_lost_total":     "Shards abandoned after exhausting their restart budget.",
		"submit_retries_total": "Accumulator submission retries (NAKs and ack timeouts).",
	})
	r := &run{
		w: w, cfg: cfg,
		ranges:        Plan(w.NumDomains(), cfg.ranges()),
		stop:          make(chan struct{}),
		restarts:      cfg.Telemetry.Counter("shard_restarts_total"),
		lost:          cfg.Telemetry.Counter("shard_lost_total"),
		submitRetries: cfg.Telemetry.Counter("submit_retries_total"),
	}
	if cfg.Interrupt != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-cfg.Interrupt:
				r.interrupt()
			case <-done:
			}
		}()
	}
	vantages := cfg.Vantages
	if len(vantages) == 0 {
		vantages = []scanner.Vantage{{}}
	}
	cfg.Telemetry.Gauge("shard_count").Set(int64(len(r.ranges)))
	cfg.Telemetry.Gauge("vantage_count").Set(int64(len(vantages)))
	runs := make([]*vantageRun, len(vantages))
	for vi, v := range vantages {
		vs := &vantageRun{
			v: v, vi: vi, dir: vantageDir(v, vi), label: vantageLabel(v, vi),
			camp:      analysis.NewCampaignAccumulator(),
			statuses:  make([]ShardStatus, len(r.ranges)),
			delivered: make([]atomic.Int64, len(r.ranges)),
		}
		for si, rg := range r.ranges {
			vs.statuses[si] = ShardStatus{Shard: si, Range: rg}
		}
		runs[vi] = vs
	}
	err := r.weeks(runs)
	res := &Result{Shards: cfg.Shards}
	for _, vs := range runs {
		res.Vantages = append(res.Vantages, VantageResult{
			Vantage: vs.v, Campaign: vs.camp, Coverage: buildCoverage(w.NumDomains(), vs.statuses),
		})
	}
	return res, err
}

// weeks is the week loop: Config.Weeks in order, then — UntilInterrupted —
// the weeks after the last one.
func (r *run) weeks(runs []*vantageRun) error {
	week := 0
	for n := 0; n < len(r.cfg.Weeks) || r.cfg.UntilInterrupted; n++ {
		if n < len(r.cfg.Weeks) {
			week = r.cfg.Weeks[n]
		} else {
			week++
		}
		if n > 0 && !sleepInterruptible(r.cfg.Interval, r.stop) {
			return scanner.ErrInterrupted
		}
		sc := r.cfg.ForWeek(week)
		sc.Week = week
		for _, vs := range runs {
			if err := r.scanWeek(vs, sc); err != nil {
				return err
			}
		}
		r.logf("campaign: week %d complete", week)
		r.pruneJournals(sc)
	}
	return nil
}

// collectTimeout bounds the wait for UDP-submitted accumulators. Every
// successful submit completes before the range's goroutine exits, so by
// merge time the blobs are already in — the timeout only catches collector
// socket failures.
const collectTimeout = 30 * time.Second

// scanWeek scans one week of the whole population from one vantage point:
// every range under the supervisor's restart-from-journal recovery, then the merge
// into the vantage's campaign. Ranges that exhaust their restart budget are
// lost: in strict mode that fails the campaign; otherwise the surviving
// ranges merge and the coverage record names what is missing.
func (r *run) scanWeek(vs *vantageRun, sc scanner.Config) error {
	r.cfg.Live.SetVantage(vs.label)
	var col *Collector
	if r.cfg.Transport == TransportUDP {
		var err error
		if col, err = NewCollector(len(r.ranges), r.cfg.Faults); err != nil {
			return err
		}
		defer col.Close()
	}
	sup := &supervisor{run: r, vs: vs, sc: sc, col: col}
	camps := make([]*analysis.CampaignAccumulator, len(r.ranges))
	statuses := make([]ShardStatus, len(r.ranges))
	var wg sync.WaitGroup
	for si, rg := range r.ranges {
		wg.Add(1)
		go func(si int, rg Range) {
			defer wg.Done()
			camp, st := sup.superviseShard(si, rg)
			if col != nil && camp != nil {
				// A range whose submission fails even after retries is as
				// lost as a crashed one — its data never reached the merge.
				if serr := sup.submit(si, camp); serr != nil {
					st.State = ShardLost
					st.Err = serr
					st.Faults = append(st.Faults, fmt.Sprintf("submit: %v", serr))
					sup.noteLost(si, st.Restarts, serr)
					camp = nil
				}
			}
			camps[si], statuses[si] = camp, st
		}(si, rg)
	}
	wg.Wait()
	var firstLost *ShardStatus
	lost := 0
	for i := range statuses {
		switch st := &statuses[i]; {
		case errors.Is(st.Err, scanner.ErrInterrupted):
			return scanner.ErrInterrupted
		case st.State == ShardLost:
			if lost++; firstLost == nil {
				firstLost = st
			}
		}
	}
	switch {
	case lost == len(statuses):
		return fmt.Errorf("shard: week %d: every shard was lost; nothing to merge (shard %d, after %d restart(s): %w)",
			sc.Week, firstLost.Shard, firstLost.Restarts, firstLost.Err)
	case lost > 0 && r.cfg.StrictShards:
		return fmt.Errorf("shard: week %d: %d of %d shards lost (strict mode; first loss: shard %d: %w)",
			sc.Week, lost, len(statuses), firstLost.Shard, firstLost.Err)
	}
	if err := r.mergeWeek(vs, camps, col); err != nil {
		return fmt.Errorf("shard: week %d: %w", sc.Week, err)
	}
	vs.fold(sc.Week, statuses)
	return nil
}

// mergeWeek folds the surviving ranges' one-week campaigns into the
// vantage's campaign, in shard order over the configured transport; lost
// ranges (nil camps, unsubmitted blobs) are skipped. Everything that can
// fail for a reason outside the program — the collector wait, the decode —
// happens before the campaign is touched. Merging is associative and
// commutative (the analysis merge laws), so the order is a convention, not
// a correctness requirement.
func (r *run) mergeWeek(vs *vantageRun, camps []*analysis.CampaignAccumulator, col *Collector) error {
	if col != nil {
		blobs, err := col.Wait(collectTimeout)
		if err != nil {
			return err
		}
		camps = make([]*analysis.CampaignAccumulator, len(camps))
		for si, blob := range blobs {
			if camps[si], err = analysis.UnmarshalCampaign(blob, r.w.ASDB()); err != nil {
				return fmt.Errorf("decoding shard %d accumulator: %w", si, err)
			}
		}
	} else {
		for si, camp := range camps {
			if camp == nil {
				continue
			}
			rt, err := analysis.UnmarshalCampaign(camp.Marshal(), r.w.ASDB())
			if err != nil {
				return fmt.Errorf("round-tripping shard %d accumulator: %w", si, err)
			}
			camps[si] = rt
		}
	}
	for _, camp := range camps {
		if err := vs.camp.Merge(camp); err != nil {
			return err
		}
	}
	return nil
}

// pruneJournals removes every week directory older than the last
// RetainWeeks weeks once sc's week has completed, through the week's journal
// filesystem. Every scan of the week has closed its journal handle by now. A
// failure is a storage problem, not a campaign problem — a directory left
// behind costs only disk — so it is logged and the campaign scans on.
func (r *run) pruneJournals(sc scanner.Config) {
	if r.cfg.Checkpoint == "" || r.cfg.RetainWeeks <= 0 {
		return
	}
	week, fs := sc.Week, sc.Journal.FS
	if fs == nil {
		fs = resilience.OSFS
	}
	names, err := fs.ReadDir(r.cfg.Checkpoint)
	if err != nil {
		r.logf("campaign: week %d journal retention: %v (continuing)", week, err)
		return
	}
	pruned := 0
	for _, name := range names {
		if wk, ok := dirWeek(name); !ok || wk > week-r.cfg.RetainWeeks {
			continue
		}
		if err := fs.RemoveAll(filepath.Join(r.cfg.Checkpoint, name)); err != nil {
			r.logf("campaign: week %d journal retention: %v (continuing)", week, err)
			continue
		}
		pruned++
	}
	r.logf("campaign: week %d journal retention: %d expired week(s) removed", week, pruned)
}

// weekDir names the directory one week's scans journal under, relative to
// Checkpoint: "w12-v4".
func weekDir(week int, ipv6 bool) string {
	if ipv6 {
		return fmt.Sprintf("w%d-v6", week)
	}
	return fmt.Sprintf("w%d-v4", week)
}

// dirWeek parses the week out of a weekDir name; anything else under
// Checkpoint reports false and is never removed.
func dirWeek(name string) (int, bool) {
	var wk int
	var fam string
	if _, err := fmt.Sscanf(name, "w%d-%s", &wk, &fam); err != nil || weekDir(wk, fam == "v6") != name {
		return 0, false
	}
	return wk, true
}

// journalDir is where one (vantage, shard) pair journals one week's scan:
// Checkpoint/w<week>-<fam>/<vantage>/shard-<NNN>. It is the only code that
// builds a journal path.
func (r *run) journalDir(vs *vantageRun, si int, sc scanner.Config) string {
	if r.cfg.Checkpoint == "" {
		return ""
	}
	return filepath.Join(r.cfg.Checkpoint, weekDir(sc.Week, sc.IPv6), vs.dir, fmt.Sprintf("shard-%03d", si))
}

// sleepInterruptible waits d (no-op when non-positive) and reports false
// when interrupt fired instead.
func sleepInterruptible(d time.Duration, interrupt <-chan struct{}) bool {
	if d <= 0 {
		return !chClosed(interrupt)
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

// vantageLabel names a vantage for telemetry and reports.
func vantageLabel(v scanner.Vantage, vi int) string {
	if v.Name != "" {
		return v.Name
	}
	if vi == 0 && v.ExtraDelay == 0 && v.ExtraJitter == 0 {
		return "baseline"
	}
	return fmt.Sprintf("vantage-%d", vi)
}

// checkVantageNames rejects vantages that would share a label or a
// directory: two vantages with one directory journal the same keys into the
// same segments and write their qlog traces over each other.
func checkVantageNames(vantages []scanner.Vantage) error {
	labels := map[string]int{}
	dirs := map[string]int{}
	for vi, v := range vantages {
		label, dir := vantageLabel(v, vi), vantageDir(v, vi)
		if prev, ok := labels[label]; ok {
			return fmt.Errorf("shard: vantages %d and %d are both named %q", prev, vi, label)
		}
		if prev, ok := dirs[dir]; ok {
			return fmt.Errorf("shard: vantages %d (%q) and %d (%q) share the directory %q", prev, vantageLabel(vantages[prev], prev), vi, label, dir)
		}
		labels[label], dirs[dir] = vi, vi
	}
	return nil
}

// vantageDir is the vantage's checkpoint subdirectory: the label when it
// is filesystem-safe, the index otherwise.
func vantageDir(v scanner.Vantage, vi int) string {
	label := vantageLabel(v, vi)
	safe := strings.IndexFunc(label, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_')
	}) < 0
	if !safe {
		label = fmt.Sprintf("vantage-%d", vi)
	}
	return label
}
