// Package shard implements the distributed scan-out coordinator: it splits
// the domain population into contiguous shards, runs every shard through an
// independent scanner.RunStream — its own checkpoint journal, breakers and
// telemetry labels — and merges the shard accumulators back into one
// campaign whose Tables 1–5 and Figs. 3–4 are byte-identical to an
// unsharded run (determinism_test.go pins this, like worker-count
// invariance before it).
//
// Shard workers run as goroutines in this process; the accumulators they
// produce can flow back to the coordinator three ways (Config.Transport):
// direct in-memory merge, a round-trip through the versioned wire format
// (internal/analysis codec), or real UDP sockets via internal/udprun —
// the exchange a multi-process deployment would use, proving the merged
// bytes are process-agnostic.
//
// The coordinator also runs multi-vantage campaigns: each vantage point
// scans the whole population through its own extra path delay/jitter
// (scanner.Vantage), and RenderAgreement compares the per-vantage spin
// verdict distributions.
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
	"quicspin/internal/trace"
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
	// TransportInProc merges the shard goroutines' accumulators directly.
	TransportInProc Transport = iota
	// TransportSerialized round-trips every shard accumulator through the
	// versioned wire format before merging — what any cross-process
	// deployment carries, without the sockets.
	TransportSerialized
	// TransportUDP ships serialized accumulators over real loopback UDP
	// sockets (QUIC-lite streams driven by internal/udprun) to a collector
	// endpoint, then merges the received bytes.
	TransportUDP
)

func (t Transport) String() string {
	switch t {
	case TransportInProc:
		return "inproc"
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
	case "inproc":
		return TransportInProc, nil
	case "serialized":
		return TransportSerialized, nil
	case "udp":
		return TransportUDP, nil
	default:
		return 0, fmt.Errorf("shard: unknown transport %q (want inproc, serialized or udp)", s)
	}
}

// Config parameterises one distributed campaign.
type Config struct {
	// Shards is the number of population slices scanned concurrently.
	Shards int
	// Weeks are the campaign weeks every shard scans, in order.
	Weeks []int
	// Vantages are the scanning locations; each runs a full sharded
	// campaign of its own. Empty means one baseline vantage.
	Vantages []scanner.Vantage
	// ForWeek returns the scan configuration for one week (seed, engine,
	// workers, retry/breaker policy, address family, interrupt channel…).
	// The coordinator overrides Week, Shard, Vantage and — when Checkpoint
	// is set — the per-shard checkpoint directory.
	ForWeek func(week int) scanner.Config
	// Checkpoint, when non-empty, is the campaign's journal root; every
	// (vantage, shard) pair journals under its own subdirectory, so a
	// killed campaign resumes shard by shard.
	Checkpoint string
	// Resume replays existing per-shard journals before scanning.
	Resume bool
	// Transport selects the accumulator merge path (see the constants).
	Transport Transport
	// Telemetry receives the shard/vantage gauges and per-shard progress
	// counters in addition to the scanner's own campaign metrics.
	Telemetry *telemetry.Registry
	// Live, when non-nil, receives every shard's deliveries for the
	// /debug/campaign dashboard (shard-merged tables, rolling windows).
	Live *analysis.Live
	// Trace, when non-nil, receives supervisor events (shard restarts and
	// losses) as synthetic traces alongside the scanner's per-domain ones.
	Trace *trace.Tracer
	// MaxRestarts is each shard's restart budget: how many times the
	// supervisor will relaunch a crashed, panicked or stalled worker
	// (resuming from its checkpoint journal) before declaring the shard
	// lost. Zero means workers are never restarted.
	MaxRestarts int
	// RestartBackoff paces restarts (real time). The zero value takes the
	// resilience defaults: 250ms base, doubling, capped at 5s.
	RestartBackoff resilience.RetryPolicy
	// StallTimeout arms the supervisor's stall watchdog: a worker that
	// delivers nothing for this long is killed and restarted like a crash.
	// Zero disables stall detection.
	StallTimeout time.Duration
	// StrictShards restores fail-fast semantics: any shard lost after its
	// restart budget aborts the campaign. When false (the default), the
	// coordinator merges the surviving shards and reports exactly what is
	// missing through VantageResult.Coverage.
	StrictShards bool
	// Faults, when non-nil, injects the plan's shard rules (scripted worker
	// crashes, panics and stalls; target: the shard index, index: the
	// worker's deliveries across its restarts) and udp rules (both ends of
	// the UDP collector exchange) — the chaos harness the determinism suite
	// runs under. The configs ForWeek returns carry the other sites' plan.
	Faults *fault.Plan
	// Logf, when non-nil, receives supervisor progress lines (restarts,
	// losses, submit retries).
	Logf func(format string, args ...any)
}

// interruptCh is the campaign's operator-interrupt channel, as configured
// through ForWeek. The supervisor keeps it separate from its own stall
// watchdog so it can tell an interrupt from a dead worker.
func (c Config) interruptCh() <-chan struct{} {
	if c.ForWeek == nil || len(c.Weeks) == 0 {
		return nil
	}
	return c.ForWeek(c.Weeks[0]).Interrupt
}

// Validate reports descriptive errors for coordinator misconfiguration.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: Shards must be >= 1, got %d", c.Shards)
	}
	if len(c.Weeks) == 0 {
		return fmt.Errorf("shard: at least one campaign week is required")
	}
	if c.ForWeek == nil {
		return fmt.Errorf("shard: ForWeek must be set")
	}
	if c.Transport < TransportInProc || c.Transport > TransportUDP {
		return fmt.Errorf("shard: unknown Transport %d", int(c.Transport))
	}
	if c.Resume && c.Checkpoint == "" {
		return fmt.Errorf("shard: Resume requires a Checkpoint directory")
	}
	if c.MaxRestarts < 0 {
		return fmt.Errorf("shard: MaxRestarts must be >= 0, got %d", c.MaxRestarts)
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("shard: StallTimeout must be >= 0, got %v", c.StallTimeout)
	}
	for _, r := range c.Faults.Rules() {
		if r.Site != fault.Shard {
			continue
		}
		if si, err := strconv.Atoi(r.Target); err != nil || si < 0 || si >= c.Shards {
			return fmt.Errorf("shard: fault targets shard %q, campaign has shards 0-%d", r.Target, c.Shards-1)
		}
	}
	return nil
}

// VantageResult is one vantage point's merged campaign.
type VantageResult struct {
	Vantage  scanner.Vantage
	Campaign *analysis.CampaignAccumulator
	// Coverage records each shard's supervision outcome and — for degraded
	// merges — exactly which population ranges the campaign is missing.
	Coverage Coverage
}

// Result is the outcome of one distributed campaign.
type Result struct {
	// Shards echoes the shard count the population was split into.
	Shards int
	// Vantages holds one merged campaign per vantage point, in Config
	// order.
	Vantages []VantageResult
}

// Run executes the distributed campaign: for every vantage point, all
// shards scan their population slice concurrently (each week through its
// own RunStream), and the shard accumulators merge — over the configured
// transport — into one campaign per vantage.
//
// On interruption (the scanner's Interrupt channel or an injected
// scan.interrupt fault), Run
// merges what the shards completed and returns the partial Result with
// scanner.ErrInterrupted, mirroring RunStream's contract. Any other shard
// error fails the campaign.
func Run(w *websim.World, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	vantages := cfg.Vantages
	if len(vantages) == 0 {
		vantages = []scanner.Vantage{{}}
	}
	cfg.Telemetry.Gauge("shard_count").Set(int64(cfg.Shards))
	cfg.Telemetry.Gauge("vantage_count").Set(int64(len(vantages)))
	res := &Result{Shards: cfg.Shards}
	for vi, v := range vantages {
		cfg.Live.SetVantage(vantageLabel(v, vi))
		camp, cov, err := runVantage(w, cfg, v, vi)
		if err != nil && !errors.Is(err, scanner.ErrInterrupted) {
			return nil, err
		}
		res.Vantages = append(res.Vantages, VantageResult{Vantage: v, Campaign: camp, Coverage: cov})
		if err != nil {
			return res, scanner.ErrInterrupted
		}
	}
	return res, nil
}

// collectTimeout bounds the coordinator's wait for UDP-submitted
// accumulators. Every successful submit completes before the shard
// goroutine exits, so by merge time the blobs are already in — the timeout
// only catches collector socket failures.
const collectTimeout = 30 * time.Second

// runVantage scans the whole population from one vantage point across all
// shards — each under the supervisor's crash/stall recovery — and merges
// their campaigns. Shards that exhaust their restart budget are lost: in
// strict mode that fails the campaign; otherwise the surviving shards
// merge into a degraded campaign whose Coverage names the missing ranges.
func runVantage(w *websim.World, cfg Config, v scanner.Vantage, vi int) (*analysis.CampaignAccumulator, Coverage, error) {
	ranges := Plan(w.NumDomains(), cfg.Shards)
	var col *Collector
	if cfg.Transport == TransportUDP {
		var err error
		if col, err = NewCollector(len(ranges), cfg.Faults); err != nil {
			return nil, Coverage{}, err
		}
		defer col.Close()
	}
	sup := newSupervisor(w, cfg, v, vi, col)
	camps := make([]*analysis.CampaignAccumulator, len(ranges))
	statuses := make([]ShardStatus, len(ranges))
	var wg sync.WaitGroup
	for si, r := range ranges {
		wg.Add(1)
		go func(si int, r Range) {
			defer wg.Done()
			camp, st := sup.superviseShard(si, r)
			if col != nil && st.State != ShardLost && camp != nil {
				// Completed and interrupted shards both ship their campaign:
				// the merged tables then cover exactly the completed prefix
				// of every shard, like RunStream's partial sink. A shard
				// whose submission fails even after retries is as lost as a
				// crashed one — its data never reached the coordinator.
				if serr := sup.submit(si, camp); serr != nil {
					st.State = ShardLost
					st.Err = serr
					st.Faults = append(st.Faults, fmt.Sprintf("submit: %v", serr))
					sup.noteLost(si, st.Restarts, serr)
					camp = nil
				}
			}
			camps[si], statuses[si] = camp, st
		}(si, r)
	}
	wg.Wait()
	cov := buildCoverage(w.NumDomains(), statuses)
	interrupted := false
	for _, st := range statuses {
		if errors.Is(st.Err, scanner.ErrInterrupted) {
			interrupted = true
		}
	}
	if !cov.Complete() && cfg.StrictShards {
		first := firstLost(statuses)
		return nil, cov, fmt.Errorf("shard: %d of %d shards lost (strict mode; first loss: shard %d: %w)",
			len(statuses)-countSurvivors(statuses), len(statuses), first.Shard, first.Err)
	}
	merged, err := mergeShards(cfg, w, camps, col)
	if err != nil {
		return nil, cov, err
	}
	if interrupted {
		return merged, cov, scanner.ErrInterrupted
	}
	return merged, cov, nil
}

func firstLost(statuses []ShardStatus) ShardStatus {
	for _, st := range statuses {
		if st.State == ShardLost {
			return st
		}
	}
	return ShardStatus{Shard: -1}
}

func countSurvivors(statuses []ShardStatus) int {
	n := 0
	for _, st := range statuses {
		if st.State != ShardLost {
			n++
		}
	}
	return n
}

// runShard scans one population slice through every campaign week — one
// supervised attempt. forceResume replays the shard's checkpoint journal
// even on campaigns that did not ask to resume (a restart must pick up the
// crashed attempt's progress); interrupt, when non-nil, overrides the scan
// configuration's interrupt channel (the supervisor passes its merged
// operator∪watchdog channel); hook, when non-nil, observes every delivery
// with the attempt's running count (the fault plan's crash injection
// point); progress feeds the stall watchdog.
func runShard(w *websim.World, cfg Config, v scanner.Vantage, vi, si int, r Range,
	forceResume bool, interrupt <-chan struct{}, hook func(int64) error, progress *atomic.Int64) (*analysis.CampaignAccumulator, error) {
	camp := analysis.NewCampaignAccumulator()
	counter := cfg.Telemetry.Counter(telemetry.Name("shard_domains_total", "shard", strconv.Itoa(si)))
	for _, week := range cfg.Weeks {
		sc := cfg.ForWeek(week)
		sc.Week = week
		sc.Shard = scanner.ShardRange{Start: r.Start, End: r.End}
		sc.Vantage = v
		if sc.Telemetry == nil {
			sc.Telemetry = cfg.Telemetry
		}
		if interrupt != nil {
			sc.Interrupt = interrupt
		}
		if cfg.Checkpoint != "" {
			sc.Checkpoint = filepath.Join(cfg.Checkpoint, vantageDir(v, vi), fmt.Sprintf("shard-%03d", si))
			sc.Resume = cfg.Resume || forceResume
		}
		acc := camp.StartWeek(week, sc.IPv6, w.ASDB())
		sink := cfg.Live.ShardSink(si, acc)
		deliver := func(i int, d *scanner.DomainResult) error {
			counter.Inc()
			n := progress.Add(1)
			if hook != nil {
				if err := hook(n); err != nil {
					return err
				}
			}
			return sink(i, d)
		}
		if err := scanner.RunStream(w, sc, deliver); err != nil {
			return camp, err
		}
	}
	return camp, nil
}

// mergeShards combines the surviving per-shard campaigns in shard order
// over the configured transport; lost shards (nil camps, unsubmitted
// blobs) are skipped. Merging is associative and commutative (the
// analysis merge laws), so the order is a convention, not a correctness
// requirement.
func mergeShards(cfg Config, w *websim.World, camps []*analysis.CampaignAccumulator, col *Collector) (*analysis.CampaignAccumulator, error) {
	if col != nil {
		blobs, err := col.Wait(collectTimeout)
		if err != nil {
			return nil, err
		}
		camps = make([]*analysis.CampaignAccumulator, len(camps))
		for si, blob := range blobs {
			if camps[si], err = analysis.UnmarshalCampaign(blob, w.ASDB()); err != nil {
				return nil, fmt.Errorf("shard: decoding shard %d accumulator: %w", si, err)
			}
		}
	} else if cfg.Transport == TransportSerialized {
		for si, camp := range camps {
			if camp == nil {
				continue
			}
			rt, err := analysis.UnmarshalCampaign(camp.Marshal(), w.ASDB())
			if err != nil {
				return nil, fmt.Errorf("shard: round-tripping shard %d accumulator: %w", si, err)
			}
			camps[si] = rt
		}
	}
	var merged *analysis.CampaignAccumulator
	for _, camp := range camps {
		if camp == nil {
			continue
		}
		if merged == nil {
			merged = camp
			continue
		}
		if err := merged.Merge(camp); err != nil {
			return nil, err
		}
	}
	if merged == nil {
		return nil, fmt.Errorf("shard: every shard was lost; nothing to merge")
	}
	return merged, nil
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
