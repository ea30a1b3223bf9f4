// Package scanner is the measurement campaign engine — the zgrab2
// equivalent of the paper (§3.2): it resolves every target domain, issues
// an HTTP/3-lite request to the www-form landing page over QUIC-lite,
// follows up to three redirects, and records per-connection spin-bit
// observation series alongside the QUIC stack's own RTT estimates, exactly
// the data the paper extracts from its extended qlog traces.
//
// Two engines share the same result schema:
//
//   - EngineEmulated drives full packet-level QUIC-lite connections over
//     the virtual-time network emulator wherever packets decide a reported
//     number — every spin series and RTT sample of a flipping connection
//     is measured, not modelled. A connection that nothing answers, or
//     whose server rolled a fixed spin value, and that ends its domain's
//     chain, is reported through the fast engine's closed form instead.
//     Use it for accuracy experiments (Figs. 3 and 4) and moderate
//     populations.
//   - EngineFast synthesises every connection outcome from the same ground
//     truth and calibrated closed-form timing. It exists for
//     campaign-scale runs (weekly longitudinal scans, Fig. 2) and is
//     validated against the emulated engine by tests.
//
// Each worker holds one scan state (scanState) that both engines build on:
// it reads the campaign's one Config through a pointer, and its runChain
// writes each domain's result straight into the domain's batch slot and
// each connection into the slot it appends to the batch's connection slab,
// so no result is copied on its way to the sink.
package scanner

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/dns"
	"quicspin/internal/fault"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
	"quicspin/internal/websim"
)

// ErrInterrupted reports that Run stopped early because Config.Interrupt
// fired (or the fault plan injected an interrupt). The partial Result is
// still returned; completed domains are in the checkpoint journal when one
// is configured.
var ErrInterrupted = errors.New("scanner: campaign interrupted")

// Engine selects how connections are executed.
type Engine int

const (
	// EngineEmulated runs full QUIC-lite packet exchanges.
	EngineEmulated Engine = iota
	// EngineFast synthesises outcomes without packet emulation.
	EngineFast
)

// Config parameterises one measurement run (one "week" of the campaign).
type Config struct {
	// Week is the 1-based campaign week; it selects per-server deployment
	// windows.
	Week int
	// IPv6 scans AAAA targets instead of A targets (Table 4).
	IPv6 bool
	// Engine selects emulated or fast execution.
	Engine Engine
	// Seed drives all scan randomness (per-connection spin dice, delays).
	Seed int64
	// Workers shards domains across parallel event loops; zero means
	// GOMAXPROCS. Per-domain randomness is derived from (Seed, Week,
	// domain), so results are deterministic for a fixed Seed regardless
	// of the Workers value.
	Workers int
	// Telemetry receives campaign metrics (counters, error classes,
	// per-stage virtual-time histograms). Nil disables instrumentation at
	// near-zero cost on the hot path.
	Telemetry *telemetry.Registry
	// Trace receives per-domain stage traces (dns → connect → handshake →
	// h3 → observe → classify) into per-worker flight-recorder rings, for
	// the /debug/traces endpoint and postmortem dumps on panics, stalls
	// and budget kills. Timestamps come from the engine's virtual clock,
	// and tracing draws no randomness, so results — and therefore Tables
	// 1–5 — are byte-identical with tracing on or off. Nil disables
	// tracing at zero allocation cost on the hot path.
	Trace *trace.Tracer

	// Retry bounds deterministic transient-failure retries (DNS timeouts,
	// handshake timeouts). Backoff runs in virtual time and draws jitter
	// from the domain's retry stream, so retried results stay
	// worker-invariant.
	// The zero value disables retries (legacy behaviour).
	Retry resilience.RetryPolicy
	// Breaker enables the per-prefix/AS circuit breaker (§A backoff
	// etiquette): after Breaker.Threshold consecutive transient failures
	// within one AS, further domains there are skipped with a "breaker:"
	// error class until a virtual cooldown elapses. The zero value
	// disables it.
	Breaker resilience.BreakerConfig
	// Checkpoint, when non-empty, journals every completed DomainResult to
	// sharded JSONL files under this directory so an interrupted campaign
	// can resume.
	Checkpoint string
	// Journal tunes the checkpoint journal's storage behaviour (fsync
	// cadence, segment rotation, degraded-mode thresholds, injected
	// filesystem). The zero value is the legacy profile; ignored without
	// Checkpoint.
	Journal resilience.JournalConfig
	// Resume replays an existing Checkpoint journal before scanning and
	// skips the domains it already covers; the merged Result is
	// byte-identical to an uninterrupted run.
	Resume bool
	// Interrupt, when non-nil, stops the campaign gracefully as soon as it
	// is closed (or receives); Run then returns the partial Result with
	// ErrInterrupted.
	Interrupt <-chan struct{}
	// Faults, when non-nil, injects the plan's dns (lookup timeouts), net
	// (connection attempts that lose every packet) and scan (an interrupt
	// after n completed domains, a panicking domain scan) rules, keyed by
	// (name or address, retry attempt): the same failures in both engines
	// and for every Workers value.
	Faults *fault.Plan
	// Shard restricts the run to the contiguous population index range
	// [Shard.Start, Shard.End). The zero value scans the whole population.
	// Sink indices stay population-global, and per-domain randomness is
	// derived from (Seed, Week, domain), so concatenating shard runs is
	// byte-identical to one unsharded run — internal/shard builds its
	// coordinator on exactly this. Only RunStream supports sharding; Run
	// rejects it (its materialised Result stands for the full population).
	Shard ShardRange
	// Vantage shifts every network path by a vantage point's extra one-way
	// delay and jitter, emulating scans from distinct locations (the
	// multi-vantage methodology of "A First Look at QUIC in the Wild").
	// Both engines apply it identically: the emulated engine stacks it onto
	// the netem path, the fast engine widens its closed-form RTT model. The
	// zero value scans from the baseline vantage.
	Vantage Vantage

	// watchdogSteps overrides the deterministic per-connection step budget
	// of the emulated watchdog; in-package tests only. Zero means 4M.
	watchdogSteps int
	// emulateAll sends every connection of the emulated engine through the
	// packet path, the ones the closed form settles too; in-package tests
	// only (the reference of the closed form's equivalence test).
	emulateAll bool
	// zone, when non-nil, answers the engines' DNS instead of the world's
	// backend; in-package tests only.
	zone dns.Backend
}

// dnsBackend is the zone the engines resolve against.
func (c *Config) dnsBackend(w *websim.World) dns.Backend {
	if c.zone != nil {
		return c.zone
	}
	return w.DNSBackend()
}

// Validate reports descriptive errors for config values that zero-default
// helpers would otherwise silently misread (negative Workers, Week, …). Run rejects invalid configs; cmd entry points call it to
// fail fast on bad flags.
func (c Config) Validate() error {
	if c.Week < 0 {
		return fmt.Errorf("scanner: Week must be >= 0 (1-based campaign week), got %d", c.Week)
	}
	if c.Workers < 0 {
		return fmt.Errorf("scanner: Workers must be >= 0 (0 means GOMAXPROCS), got %d", c.Workers)
	}
	if c.Engine != EngineEmulated && c.Engine != EngineFast {
		return fmt.Errorf("scanner: unknown Engine %d (want EngineEmulated or EngineFast)", c.Engine)
	}
	if c.Retry.MaxRetries < 0 {
		return fmt.Errorf("scanner: Retry.MaxRetries must be >= 0 (0 disables retries), got %d", c.Retry.MaxRetries)
	}
	if c.Breaker.Threshold < 0 {
		return fmt.Errorf("scanner: Breaker.Threshold must be >= 0 (0 disables the breaker), got %d", c.Breaker.Threshold)
	}
	if c.Resume && c.Checkpoint == "" {
		return fmt.Errorf("scanner: Resume requires a Checkpoint directory")
	}
	if c.Shard.Start < 0 || c.Shard.End < 0 {
		return fmt.Errorf("scanner: Shard bounds must be >= 0, got [%d, %d)", c.Shard.Start, c.Shard.End)
	}
	if c.Shard.enabled() && c.Shard.End < c.Shard.Start {
		return fmt.Errorf("scanner: Shard range is inverted: [%d, %d)", c.Shard.Start, c.Shard.End)
	}
	if c.Vantage.ExtraDelay < 0 || c.Vantage.ExtraJitter < 0 {
		return fmt.Errorf("scanner: Vantage delay and jitter must be >= 0, got %v/%v", c.Vantage.ExtraDelay, c.Vantage.ExtraJitter)
	}
	return nil
}

// ShardRange selects a contiguous slice [Start, End) of the canonical
// population order for Config.Shard. The zero value means everything.
type ShardRange struct {
	Start int
	End   int
}

func (r ShardRange) enabled() bool { return r != ShardRange{} }

// Vantage describes one scanning location for Config.Vantage: extra
// one-way path delay plus extra uniform one-way jitter relative to the
// baseline (the world's built-in path shaping), applied symmetrically to
// both directions of every connection.
type Vantage struct {
	// Name labels the vantage in telemetry and reports.
	Name string
	// ExtraDelay is added to each direction's propagation delay.
	ExtraDelay time.Duration
	// ExtraJitter widens each direction's uniform jitter window.
	ExtraJitter time.Duration
}

// The scan methodology's fixed parameters: a connection is given up after
// connTimeout of virtual time, mirroring a scanning timeout, and at most
// maxRedirects redirects are followed (§3.2.1).
const (
	connTimeout  = 6 * time.Second
	maxRedirects = 3
)

func (c *Config) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// ConnResult is the per-connection record the analysis pipeline consumes
// (the distilled qlog content of §3.3).
type ConnResult struct {
	// Target is the authority this connection was opened for (www-form).
	Target string
	// IP is the server address.
	IP netip.Addr
	// Hop is 0 for the landing request, 1.. for redirect follow-ups.
	Hop int
	// Err is non-empty when no QUIC connection was established. setErr
	// writes it, together with the two fields after QUIC.
	Err string
	// QUIC reports a completed handshake.
	QUIC bool
	// ErrClass is Err's resilience class and Hostile the profile of a
	// hostile failure (hostile.None otherwise). setErr sets both when it
	// records Err, so every reader switches on them and none parses the
	// text. Neither is encoded: decoding Err sets them again. They fill the
	// padding after QUIC, so a ConnResult stays 176 bytes.
	ErrClass resilience.Class `json:"-"`
	Hostile  hostile.Profile  `json:"-"`
	// Status and Server come from the HTTP/3-lite response.
	Status int
	Server string
	// Redirect is the Location target, when the response was a redirect.
	Redirect string

	// ZeroPkts and OnePkts count received 1-RTT packets by spin value.
	ZeroPkts, OnePkts int
	// Observations is the received spin series; retained only for
	// connections with spin flips.
	Observations []core.Observation
	// StackRTTs are the QUIC stack estimator's accepted samples (the
	// paper's baseline), in arrival order.
	StackRTTs []time.Duration
}

// reset clears c for an attempt at ip for target on redirect hop hop. It
// sets the fields one by one: a composite literal would be built aside and
// copied in.
func (c *ConnResult) reset(target string, ip netip.Addr, hop int) {
	*c = ConnResult{}
	c.Target, c.IP, c.Hop = target, ip, hop
}

// setErr records text as c's failure: Err, its class and, for a hostile
// failure, its profile. It is the one place a connection's failure is
// classified; a reader reads ErrClass and Hostile.
func (c *ConnResult) setErr(text string) {
	c.Err = text
	c.ErrClass = resilience.Classify(text)
	c.Hostile = hostile.None
	if c.ErrClass == resilience.ClassHostile {
		c.Hostile = hostile.ProfileOf(text)
	}
}

// HasFlips reports whether both spin values were received.
func (c *ConnResult) HasFlips() bool { return c.ZeroPkts > 0 && c.OnePkts > 0 }

// Kind classifies the connection like Table 3 (grease separation happens
// in the analysis package).
func (c *ConnResult) Kind() core.SeriesKind {
	switch {
	case c.ZeroPkts == 0 && c.OnePkts == 0:
		return core.KindEmpty
	case c.HasFlips():
		return core.KindFlipping
	case c.OnePkts > 0:
		return core.KindAllOne
	default:
		return core.KindAllZero
	}
}

// StackMin returns the minimum stack RTT sample, or 0 if none.
func (c *ConnResult) StackMin() time.Duration {
	var m time.Duration
	for _, s := range c.StackRTTs {
		if m == 0 || s < m {
			m = s
		}
	}
	return m
}

// DomainResult aggregates one domain's scan.
type DomainResult struct {
	Domain  string
	TLD     string
	Toplist bool
	// Resolved reports DNS success for the scanned address family.
	Resolved bool
	DNSErr   string
	Conns    []ConnResult
}

// clone returns a copy of d that shares no slice with it (strings are
// immutable and shared). A nil slice stays nil and an empty one empty, so the
// copy encodes as d does.
func (d *DomainResult) clone() DomainResult {
	c := *d
	c.Conns = slices.Clone(d.Conns)
	for i := range c.Conns {
		c.Conns[i].Observations = slices.Clone(c.Conns[i].Observations)
		c.Conns[i].StackRTTs = slices.Clone(c.Conns[i].StackRTTs)
	}
	return c
}

// QUIC reports whether any connection completed a QUIC handshake.
func (d *DomainResult) QUIC() bool {
	for i := range d.Conns {
		if d.Conns[i].QUIC {
			return true
		}
	}
	return false
}

// SpinActivity reports whether any connection saw spin flips (the paper's
// "Spin" candidate criterion).
func (d *DomainResult) SpinActivity() bool {
	for i := range d.Conns {
		if d.Conns[i].HasFlips() {
			return true
		}
	}
	return false
}

// Result is one complete measurement run.
type Result struct {
	Week    int
	IPv6    bool
	Domains []DomainResult
}

// Run executes a measurement of every domain in the world's population and
// materialises the full Result: it is RunStream with a collecting sink, so
// the two produce identical per-domain results for a fixed Config.Seed,
// independent of Config.Workers. Use RunStream to consume results
// incrementally without retaining them.
//
// It returns an error for invalid configs (see Config.Validate), for an
// unreadable or unwritable checkpoint directory, and — alongside the
// partial Result — ErrInterrupted when the campaign was stopped early. An
// interrupted Result holds the longest completed prefix of the population
// (what RunStream delivered); domains completed beyond the first gap are in
// the checkpoint journal, when one is configured, and nowhere else.
func Run(w *websim.World, cfg Config) (*Result, error) {
	if cfg.Shard.enabled() {
		return nil, fmt.Errorf("scanner: Config.Shard requires RunStream (Run materialises the full population)")
	}
	out := &Result{Week: cfg.Week, IPv6: cfg.IPv6, Domains: make([]DomainResult, 0, w.NumDomains())}
	err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
		out.Domains = append(out.Domains, d.clone())
		return nil
	})
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return nil, err
	}
	return out, err
}

// scanState is one worker's per-domain scan state, the one both engines
// share: the world, the campaign's configuration, telemetry, the trace
// recorder and the engine's virtual clock, the resolver, the domain dice,
// the slabs of the domain being scanned and the closed form. An engine is a
// scanState plus the way it dials one connection attempt.
type scanState struct {
	world *websim.World
	cfg   *Config
	// tally is the worker's per-domain telemetry, which outlives engine
	// rebuilds; tm is the campaign's, for the rare events (retries, stalls,
	// budget trips) counted where they happen.
	tally *domainTally
	tm    *scanTelemetry
	// rec is the worker's trace recorder, nil when tracing is disabled.
	rec *trace.Recorder
	// clock feeds trace timestamps; bound once so no scan allocates one.
	clock    func() time.Time
	resolver *dns.Resolver
	dice     domainDice
	// slabs keeps the results of the domain being scanned (runChain).
	slabs *slabs
	// sleep advances the virtual clock by a retry backoff; nil when there is
	// no clock to advance (the fast engine only draws the jitter).
	sleep func(time.Duration)
	// dial performs one connection attempt, filling out in place (attempt is
	// its 0-based index within the hop's retries, and retriesLeft the
	// domain's unspent retry budget, see endsChain).
	dial func(out *ConnResult, target string, ip netip.Addr, hop, attempt int, path string, retriesLeft int)
	// cf settles connections in closed form: every one of the fast engine,
	// the emulated engine's whose reported numbers packets cannot change.
	cf closedForm
}

// init sets up st in place, with clock as its virtual clock; the engine
// sets dial, and sleep if it has a clock to advance.
func (st *scanState) init(w *websim.World, cfg *Config, tally *domainTally, rec *trace.Recorder, clock func() time.Time) {
	st.world, st.cfg, st.tally, st.tm, st.rec, st.clock = w, cfg, tally, tally.tm, rec, clock
	st.dice = newDomainDice()
	st.resolver = dns.NewResolver(cfg.dnsBackend(w), st.dice.dns.Rand)
	st.resolver.EnableCache()
	st.resolver.SetFaults(cfg.Faults)
	st.cf = newClosedForm(st)
}

// clockNow implements engine: the engine's virtual clock.
func (st *scanState) clockNow() time.Time { return st.clock() }

// buildEngine constructs a worker's engine on the campaign's configuration;
// also used to rebuild one whose state cannot be trusted after a panic or
// watchdog stall. rec is the worker's trace recorder (nil when tracing is
// disabled) and tally its per-domain telemetry; both outlive engine rebuilds,
// so flight rings survive panics and stalls, and the tally counts the new
// engine's lookups and packets from here on (publish it first). Construction
// draws nothing: every stream is keyed per domain or per connection, so an
// engine's output cannot depend on which worker it serves.
func buildEngine(w *websim.World, cfg *Config, tally *domainTally, rec *trace.Recorder) engine {
	if cfg.Engine == EngineFast {
		e := newFastEngine(w, cfg, tally, rec)
		tally.watch(e.resolver, nil)
		return e
	}
	e := newEmulatedEngine(w, cfg, tally, rec)
	tally.watch(e.resolver, e.net)
	return e
}

// scanSafely isolates one domain scan into res: a panic anywhere in the
// engine is converted into an error-classed DomainResult instead of killing
// the campaign.
func scanSafely(eng engine, d *websim.Domain, s *slabs, res *DomainResult) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			*res = DomainResult{
				Domain: d.Name, TLD: d.TLD, Toplist: d.Toplist,
				Conns: []ConnResult{{Target: d.Host()}},
			}
			res.Conns[0].setErr(fmt.Sprintf("panic: scanning %s: %v", d.Name, r))
		}
	}()
	eng.scanDomain(d, s, res)
	return false
}

// maybePanic fires the plan's scan.panic fault. runChain calls it once
// per scan, after the stage spans exist but before the trace commits, so
// the recovered panic's flight dump carries the victim's full stage trace.
func maybePanic(f *fault.Plan, d *websim.Domain) {
	if f.Hit(fault.Scan, fault.Panic, d.Name, 0) {
		panic("injected scanner fault")
	}
}

// engine executes one domain scan into res, keeping the result's
// connections, stack RTT samples and observations in s. healthy reports
// whether the engine can scan further domains; a stalled emulated loop
// returns false and the worker rebuilds the engine. clockNow exposes the
// engine's virtual clock so campaign-layer trace events (breaker skips,
// checkpoint replays) timestamp consistently with in-scan spans.
type engine interface {
	scanDomain(d *websim.Domain, s *slabs, res *DomainResult)
	healthy() bool
	clockNow() time.Time
}

// retrier tracks one domain's retry budget, shared across DNS lookups and
// connection attempts of the whole redirect chain. Backoff advances the
// engine's virtual clock via sleep and draws jitter from the domain's retry
// stream, so a retried scan remains a pure function of (Seed, Week, domain).
type retrier struct {
	policy resilience.RetryPolicy
	rng    *rand.Rand
	sleep  func(time.Duration)
	tm     *scanTelemetry
	used   int
}

// retry reports whether a failure of class cls should be retried, burning
// one unit of budget, counting the retry in its stage's retries_total
// counter and sleeping the backoff when it is.
func (r *retrier) retry(stage *telemetry.Counter, cls resilience.Class) bool {
	if !r.policy.Enabled() || !retriable(cls) {
		return false
	}
	if r.used >= r.policy.MaxRetries {
		r.tm.retriesExhausted.Inc()
		return false
	}
	d := r.policy.Backoff(r.rng, r.used)
	r.used++
	stage.Inc()
	if r.sleep != nil {
		r.sleep(d)
	}
	return true
}

// left is the retry budget the domain has not spent: 0 when retries are
// disabled.
func (r *retrier) left() int {
	if !r.policy.Enabled() {
		return 0
	}
	return r.policy.MaxRetries - r.used
}

// retriable reports whether a failure of class cls is one that retries
// follow at all, budget aside.
func retriable(cls resilience.Class) bool {
	// Stalls are transient for campaign-level accounting (the breaker),
	// but never retried in-domain: the engine that produced one must be
	// rebuilt before it can scan again.
	return cls != resilience.ClassStall && cls.Transient()
}

// endsChain reports whether c is the last connection of its domain's scan,
// with retriesLeft of the domain's retry budget unspent: it neither
// redirects nor fails in a way that connectRetry would follow with another
// attempt (a retry, possibly at the next address). It decides as
// connectRetry and runChain will.
func endsChain(c *ConnResult, retriesLeft int) bool {
	return c.Redirect == "" && (c.ErrClass == resilience.ClassNone || retriesLeft <= 0 || !retriable(c.ErrClass))
}

// resolveRetry resolves the host in the given address family, retrying
// transient DNS failures within the domain's budget. It returns every
// resolved address, appended to dst[:0], so connection-level retries can
// rotate through them (multi-address fallback); a failure is the lookup's
// bare kind (see dns.Resolver.AppendLookup). A DNS failure carries no class,
// so its text is classified here, and only with retries on; the kind's own
// text classifies as the spelled-out one would: the host name adds nothing
// Classify reads.
func resolveRetry(dst []netip.Addr, rt *retrier, res *dns.Resolver, host string, t dns.RType) ([]netip.Addr, error) {
	for attempt := 0; ; attempt++ {
		addrs, err := res.AppendLookup(dst[:0], host, t, attempt)
		if err == nil {
			return addrs, nil
		}
		if !rt.policy.Enabled() || !rt.retry(rt.tm.retriesDNS, resilience.Classify(err.Error())) {
			return nil, err
		}
	}
}

// connectRetry dials into out until success or budget exhaustion, rotating
// through the resolved addresses across attempts (zgrab2-style fallback: the
// first address may be down while a later one answers). Each attempt
// overwrites out: the last one is the connection's result.
func (st *scanState) connectRetry(rt *retrier, out *ConnResult, addrs []netip.Addr, target string, hop int, path string) {
	for attempt := 0; ; attempt++ {
		st.dial(out, target, addrs[attempt%len(addrs)], hop, attempt, path, rt.left())
		if out.ErrClass == resilience.ClassNone || !rt.retry(rt.tm.retriesConn, out.ErrClass) {
			return
		}
	}
}

// runChain scans domain d into res, its batch slot, which it resets first:
// the landing request plus the redirect chain, with retry and multi-address
// fallback. Both engines run it. Every connection is appended to s and
// filled there by dial, which keeps the connection's samples and
// observations in s too; res.Conns is the domain's run of them. With tracing
// disabled (nil rec) every trace block is skipped and the scan allocates
// nothing extra. Tracing reads the clock but draws no randomness, so the
// DomainResult is identical with tracing on or off.
func (st *scanState) runChain(d *websim.Domain, s *slabs, res *DomainResult) {
	// Key the per-domain streams to (Seed, Week, domain) so the outcome is
	// independent of scan order and sharding; dial keys the rest.
	st.dice.reseed(st.cfg, d.Name)
	st.slabs = s
	rt := retrier{policy: st.cfg.Retry, rng: st.dice.retry.Rand, sleep: st.sleep, tm: st.tm}
	// The engine's DNS memo serves one domain's chain: a redirect revisiting
	// a host is a hit, but nothing carries over to the next domain, so the
	// memo stays the size of one chain however long the campaign runs.
	st.resolver.ResetCache()
	*res = DomainResult{} // then field by field, as ConnResult.reset does
	res.Domain, res.TLD, res.Toplist = d.Name, d.TLD, d.Toplist
	target, path := d.Host(), "/"
	rec := st.rec
	if rec != nil {
		at := st.clock()
		rec.Begin(d.Name, at)
		rec.StageStart("dns", at)
	}
	t := dns.TypeA
	if st.cfg.IPv6 {
		t = dns.TypeAAAA
	}
	// Every hop resolves into this array: a record holds one or two
	// addresses, so the chain's lookups stay off the heap.
	var buf [4]netip.Addr
	addrs, err := resolveRetry(buf[:0], &rt, st.resolver, target, t)
	if err != nil {
		res.DNSErr = dns.ErrText(err, target, t)
		if rec != nil {
			rec.StageEnd(st.clock())
		}
	} else {
		res.Resolved = true
		if rec != nil {
			rec.StageEnd(st.clock())
			rec.SpanAttrInt("addrs", int64(len(addrs)))
		}
		first := len(s.conns)
		for hop := 0; hop <= maxRedirects; hop++ {
			// Nothing else appends to s.conns while the hop dials, so out
			// stays put.
			out := &keep(s, &s.conns, ConnResult{})[0]
			st.connectRetry(&rt, out, addrs, target, hop, path)
			next := redirectTarget(out.Redirect)
			if next == "" {
				break
			}
			target, path = next, redirectPath(out.Redirect)
			naddrs, err := resolveRetry(addrs, &rt, st.resolver, target, t)
			if err != nil {
				break
			}
			addrs = naddrs
		}
		res.Conns = tail(s.conns, first)
	}
	maybePanic(st.cfg.Faults, d)
	st.traceFinish(&rt, res)
}

// traceOutcome labels a finished domain for the trace ring and exemplar
// sampler: "ok", or the resilience class of the landing failure.
func traceOutcome(res *DomainResult) string {
	if cls := classifyDomain(res); cls != resilience.ClassNone {
		return cls.String()
	}
	return "ok"
}

// traceFinish closes the domain trace: a classify span, domain-level
// attrs (retry budget spent, chain depth), the first error in chain
// order, and the outcome label.
func (st *scanState) traceFinish(rt *retrier, res *DomainResult) {
	rec := st.rec
	if rec == nil {
		return
	}
	at := st.clock()
	outcome := traceOutcome(res)
	rec.StageStart("classify", at)
	rec.SpanAttr("class", outcome)
	rec.StageEnd(at)
	rec.AttrInt("retries", int64(rt.used))
	rec.AttrInt("hops", int64(len(res.Conns)))
	rec.Error(res.DNSErr)
	for i := range res.Conns {
		if res.Conns[i].Err != "" {
			rec.Error(res.Conns[i].Err)
			break
		}
	}
	rec.End(at, outcome)
}

// spinEdges counts spin-value transitions in a received series (the
// trace's spin-activity attr; table analysis has its own edge logic).
func spinEdges(obs []core.Observation) int {
	n := 0
	for i := 1; i < len(obs); i++ {
		if obs[i].Spin != obs[i-1].Spin {
			n++
		}
	}
	return n
}

// splitRedirect parses a Location value of the form https://host[:port]/path.
// The scheme is matched case-insensitively and an explicit port is stripped
// (HTTPS://Host.:443/x redirects to host "host", path "/x"); the host is
// canonicalised like any queried DNS name (dns.Normalize), because the
// resolver takes it as it is. ok is false for non-https or empty hosts.
func splitRedirect(loc string) (host, path string, ok bool) {
	const pfx = "https://"
	if len(loc) <= len(pfx) || !strings.EqualFold(loc[:len(pfx)], pfx) {
		return "", "/", false
	}
	rest := loc[len(pfx):]
	path = "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, path = rest[:i], rest[i:]
	} else {
		host = rest
	}
	if i := strings.LastIndexByte(host, ':'); i >= 0 && isDigits(host[i+1:]) {
		host = host[:i]
	}
	if host = dns.Normalize(host); host == "" {
		return "", "/", false
	}
	return host, path, true
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// redirectTarget extracts the authority from a Location header ("" when
// the value is not an https URL).
func redirectTarget(loc string) string {
	host, _, ok := splitRedirect(loc)
	if !ok {
		return ""
	}
	return host
}

// redirectPath extracts the path component of a Location header,
// defaulting to "/" when absent. Both engines carry it to the next hop so
// that redirect chains terminate identically: only requests for "/" are
// answered with a redirect.
func redirectPath(loc string) string {
	_, path, _ := splitRedirect(loc)
	return path
}

// scannerHeaders carry the research contact hint the paper's ethics
// section describes (§A: "embedding our projectname as hint in every HTTP
// request"). Read-only: every worker's requests share the one map.
var scannerHeaders = map[string]string{
	"user-agent": "quicspin-scanner/1.0",
	"x-research": "spin-bit measurement study; opt out: https://quicspin.invalid/optout",
}
