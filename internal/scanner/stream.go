package scanner

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/fault"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/trace"
	"quicspin/internal/websim"
)

// streamBatchSize is the generator→worker hand-off granularity: small
// enough to keep workers load-balanced and the FIFO head's wait short,
// large enough to amortise channel operations over fast-engine scans.
const streamBatchSize = 64

// pipelineBatches is the size of a pipeline's batch set with nw workers:
// one at the generator, nw in the work channel and nw at the workers, and
// as many again for finished batches waiting behind the FIFO head (see
// runPipeline).
func pipelineBatches(nw int) int { return 2 * (3*nw + 1) }

// batch is one contiguous run of population indices and, once scanned, its
// results. It makes a round trip: the generator hands out its index range
// in canonical order (with the breaker slots pre-assigned in that order,
// which is what makes breaker decisions worker-invariant), a worker
// synthesises and scans its domains into results, the sink takes it from
// the head of the order FIFO once it is done, and the batch goes back to
// the generator over a bounded free list. Every slice it holds is reused on
// the next trip, so a steady campaign allocates no batch storage at all.
type batch struct {
	start, n int
	// keys/pos are the breaker group and in-group position per domain;
	// nil when the breaker is disabled.
	keys []string
	pos  []int
	// results may be shorter than n when the campaign was interrupted
	// mid-batch; the missing tail was never scanned.
	results []DomainResult
	// slabs is where the results' connections, stack RTT samples and
	// observation series live.
	slabs slabs
	// done takes one token when a worker has finished the batch.
	done chan struct{}
}

// slabs is a batch's result storage. Each scanned domain appends its
// connections, and they their stack RTT samples and retained observations,
// to the three slices (keep), and the DomainResult and ConnResults hold
// capped subslices of them. A domain with nothing to keep appends nothing
// and holds nil, so a result reads as it did when each was allocated on its
// own. The storage is recycled with its batch: a sink must not keep a
// result's slices past its call (see RunStream).
type slabs struct {
	conns []ConnResult
	rtts  []time.Duration
	obs   []core.Observation
	// outgrown holds, under poisonBatches, the arrays the slices grew out of
	// during this trip: results kept before the growth still point into
	// them, so the poison must reach them too.
	outgrown []any
}

// keep appends v to slab, one of s's slices, and returns the appended run
// (see tail).
func keep[T any](s *slabs, slab *[]T, v ...T) []T {
	first := len(*slab)
	if poisonBatches && first+len(v) > cap(*slab) && cap(*slab) > 0 {
		s.outgrown = append(s.outgrown, *slab)
	}
	*slab = append(*slab, v...)
	return tail(*slab, first)
}

// tail returns slab[first:], capped so an append to it cannot reach past
// its end, or nil when that is empty.
func tail[T any](slab []T, first int) []T {
	if first == len(slab) {
		return nil
	}
	return slab[first:len(slab):len(slab)]
}

// reuse empties b for a trip starting at population index start with n
// domains, keeping every slice's storage. The results slice is grown to n
// up front, so the results of one trip never move.
func (b *batch) reuse(start, n int) {
	b.start, b.n = start, n
	b.keys, b.pos = b.keys[:0], b.pos[:0]
	b.results = slices.Grow(b.results[:0], n)
	b.slabs.reset()
}

// reset empties s, keeping its storage.
func (s *slabs) reset() {
	s.conns, s.rtts, s.obs = s.conns[:0], s.rtts[:0], s.obs[:0]
}

// poisonBatches makes a recycled batch overwrite everything its results
// reached (see poison). It is on in race builds, like the transport arena's
// poison; in-package tests turn it on explicitly.
var poisonBatches = raceEnabled

// poisoned is what a recycled result reads as under poisonBatches.
const poisoned = "poisoned: result storage recycled after its sink call returned"

// The values poison writes: no scan produces any of them.
var (
	poisonResult = DomainResult{Domain: poisoned, DNSErr: poisoned}
	poisonConn   = ConnResult{Target: poisoned, Err: poisoned, ErrClass: ^resilience.Class(0), Hostile: ^hostile.Profile(0), Status: -1, ZeroPkts: -1, OnePkts: -1}
	poisonObs    = core.Observation{PN: ^uint64(0), VEC: 0xff}
)

// poison overwrites all the storage b's results reached — the results, the
// whole capacity of each slab and every array a slab outgrew — so a sink
// that kept a result, or a slice of one, past its call reads values no scan
// produces (a golden diff or a test failure) rather than plausible stale
// data from a later batch.
func (b *batch) poison() {
	fill(b.results, poisonResult)
	fill(b.slabs.conns, poisonConn)
	fill(b.slabs.rtts, -1)
	fill(b.slabs.obs, poisonObs)
	for _, old := range b.slabs.outgrown {
		switch old := old.(type) {
		case []ConnResult:
			fill(old, poisonConn)
		case []time.Duration:
			fill(old, -1)
		case []core.Observation:
			fill(old, poisonObs)
		}
	}
	clear(b.slabs.outgrown)
	b.slabs.outgrown = b.slabs.outgrown[:0]
}

// fill overwrites the whole capacity of s with v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// campaign is the shared state of one measurement run: configuration,
// telemetry, the checkpoint journal, the circuit breaker, and interrupt
// bookkeeping. Every domain executes through campaign.scanStep.
type campaign struct {
	w        *websim.World
	cfg      Config
	tm       *scanTelemetry
	journal  *resilience.Journal
	replayed map[string]json.RawMessage
	br       *resilience.Breaker // nil when disabled
	// keyPrefix + domain name is a domain's journal key; journalBytes and
	// journalFailures are how much of the journal's byte and write-failure
	// counts journal_bytes and checkpoint_errors_total already hold.
	keyPrefix       string
	journalBytes    int64
	journalFailures int64

	interrupted atomic.Bool
	// stopRequested records that the stop came from outside the pipeline
	// (Config.Interrupt or an injected scan.interrupt), not from a failing
	// sink: RunStream must report it even when the sink failed as well.
	stopRequested atomic.Bool
	completed     atomic.Int64
	started       time.Time
	allocs        *allocMeter // nil without telemetry

	stopWatch chan struct{}
}

func newCampaign(w *websim.World, cfg Config) (*campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &campaign{w: w, cfg: cfg}
	c.tm = newScanTelemetry(&c.cfg)
	if cfg.Shard.enabled() && cfg.Shard.End > w.NumDomains() {
		return nil, fmt.Errorf("scanner: Shard range [%d, %d) exceeds the population of %d", cfg.Shard.Start, cfg.Shard.End, w.NumDomains())
	}
	c.tm.week.Set(int64(cfg.Week))
	// The domain counter is cumulative across runs sharing a registry (a
	// multi-week campaign, or several shards of one), so the population
	// denominator accumulates the slice actually queued: the progress
	// ratio stays ≤ 1 for the campaign as a whole.
	start, end := c.bounds()
	c.tm.population.Add(int64(end - start))

	journal, replayed, err := openCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	c.journal, c.replayed, c.keyPrefix = journal, replayed, checkpointPrefix(cfg)
	if cfg.Breaker.Enabled() {
		c.br = resilience.NewBreaker(cfg.Breaker)
	}
	if cfg.Interrupt != nil {
		c.stopWatch = make(chan struct{})
		go func() {
			select {
			case <-cfg.Interrupt:
				c.requestStop()
			case <-c.stopWatch:
			}
		}()
	}
	c.started = time.Now()
	if cfg.Telemetry != nil {
		c.allocs = newAllocMeter()
	}
	return c, nil
}

// allocMeter feeds scan_alloc_bytes and scan_allocs: the heap bytes and
// objects the process has allocated since the campaign started. It reads
// runtime/metrics — which, unlike runtime.ReadMemStats, does not stop the
// world — into samples allocated once.
type allocMeter struct {
	now, base [2]metrics.Sample
}

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.now[0].Name, m.now[1].Name = "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"
	metrics.Read(m.now[:])
	m.base = m.now
	return m
}

// publish sets the gauges; a nil meter (no telemetry) does nothing.
func (m *allocMeter) publish(tm *scanTelemetry) {
	if m == nil {
		return
	}
	metrics.Read(m.now[:])
	tm.allocBytes.Set(int64(m.now[0].Value.Uint64() - m.base[0].Value.Uint64()))
	tm.allocObjects.Set(int64(m.now[1].Value.Uint64() - m.base[1].Value.Uint64()))
}

// bounds returns the population index range this run covers: the shard
// slice when Config.Shard is set, the whole population otherwise.
func (c *campaign) bounds() (start, end int) {
	if c.cfg.Shard.enabled() {
		return c.cfg.Shard.Start, c.cfg.Shard.End
	}
	return 0, c.w.NumDomains()
}

// interrupt stops the campaign: workers finish their current domain, the
// generator stops producing, and blocked breaker waiters are released.
func (c *campaign) interrupt() {
	if c.interrupted.CompareAndSwap(false, true) && c.br != nil {
		c.br.Abort()
	}
}

// requestStop is interrupt for a stop asked for from outside the pipeline.
func (c *campaign) requestStop() {
	c.stopRequested.Store(true)
	c.interrupt()
}

// finish records end-of-run telemetry (throughput and allocation deltas).
func (c *campaign) finish() {
	if el := time.Since(c.started); el > 0 {
		c.tm.domainsPerSec.Set(int64(float64(c.completed.Load()) / el.Seconds()))
	}
	c.allocs.publish(c.tm)
}

func (c *campaign) close() {
	if c.stopWatch != nil {
		close(c.stopWatch)
	}
	if c.journal != nil {
		if err := c.journal.Close(); err != nil {
			// A failed close means the journal tail may not be durable:
			// count it and raise the degraded gauge like any other
			// checkpoint storage failure.
			c.tm.checkpointErrors.Inc()
		}
		st := c.journal.Stats()
		c.tm.checkpointDegraded.Set(boolGauge(st.Degraded))
		c.tm.journalRotations.Set(st.Rotations)
		c.tm.journalSkipped.Set(st.Skipped)
		c.publishJournal()
	}
}

// publishJournal moves journal_bytes up by what the journal has written,
// and checkpoint_errors_total by the records it has lost to a failed write,
// open or fsync, since the last call. Both add up over every handle that
// shares the registry (each week and each shard opens its own), so
// journal_bytes / spinscan_domains_total is a campaign's bytes per domain.
// Called from the sink goroutine and, after it has finished, from close.
func (c *campaign) publishJournal() {
	if c.journal == nil {
		return
	}
	st := c.journal.Stats()
	c.tm.journalBytes.Add(st.Bytes - c.journalBytes)
	c.tm.checkpointErrors.Add(st.WriteFailures - c.journalFailures)
	c.journalBytes, c.journalFailures = st.Bytes, st.WriteFailures
}

// boolGauge maps a boolean state onto a 0/1 gauge value.
func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// scanStep executes one domain end to end into res, its batch slot: breaker
// acquisition, checkpoint replay, the scan itself (with engine rebuild after
// panics or stalls), breaker recording, journaling and telemetry, which
// counts in the worker's tally. A scanned result's slices live in s (see
// slabs), and the journal encodes the result from its slot into the
// worker's pending batch. It returns false, leaving res unspecified, when
// the campaign was aborted while waiting on the breaker; the caller's
// worker should stop scanning.
func (c *campaign) scanStep(eng *engine, tally *domainTally, shard int, rec *trace.Recorder, d *websim.Domain, key string, pos int, s *slabs, res *DomainResult) bool {
	// The breaker serialises decisions in canonical domain order per
	// group; batches are dispatched and processed in ascending index
	// order, so waits are only ever on strictly-earlier indices and
	// cannot deadlock.
	var dec resilience.Decision
	if key != "" {
		dec = c.br.Acquire(key, pos)
		if dec.Aborted {
			return false
		}
		if dec.Probe {
			c.tm.breakerProbes.Inc()
		}
		if rec != nil && (dec.State != resilience.StateClosed || dec.Probe) {
			// Queued for the next Begin: the engine opens the trace, but the
			// breaker verdict is campaign-layer context worth keeping on it.
			rec.Pending("breaker", dec.State.String())
		}
	}
	var ckey string
	if c.journal != nil {
		ckey = c.keyPrefix + d.Name
	}
	fromCheckpoint := replayResult(c.replayed, ckey, d, res)
	if fromCheckpoint {
		c.tm.resumed.Inc()
		if rec != nil {
			rec.Event(d.Name, (*eng).clockNow(), traceOutcome(res), "source", "checkpoint")
		}
	} else if dec.Skip {
		*res = breakerSkipResult(d)
		c.tm.breakerSkipped.Inc()
		if rec != nil {
			rec.Event(d.Name, (*eng).clockNow(), traceOutcome(res), "source", "breaker-skip")
		}
	} else {
		panicked := scanSafely(*eng, d, s, res)
		if panicked {
			c.tm.panics.Inc()
			// Commit the partial trace the panic unwound through and dump
			// the flight recorder so the postmortem keeps the victim's
			// stage spans. No-ops when the panic hit before Begin.
			rec.Error(res.Conns[0].Err)
			rec.Abort("panic")
		}
		if panicked || !(*eng).healthy() {
			// The engine's loop or internal state cannot be trusted after
			// a panic or stall: rebuild it, publishing first so the old
			// resolver's and network's counts are not lost. Keyed streams
			// keep every other domain's result unchanged.
			tally.publish()
			*eng = buildEngine(c.w, &c.cfg, tally, rec)
		}
	}
	if key != "" {
		// Replayed results report the same outcome their live scan did,
		// so the breaker replays to the same state.
		switch ev := c.br.Record(key, pos, domainOutcome(res)); {
		case ev.Opened:
			c.tm.breakerOpen.Inc()
			c.tm.breakerGroups.Add(1)
		case ev.Closed:
			c.tm.breakerGroups.Add(-1)
		}
	}
	tally.recordDomain(res)
	if c.journal != nil && !fromCheckpoint {
		// Checkpointing is an optimisation: a record the journal refuses
		// (degraded, or not encodable) is not journaled, and a resume
		// rescans its domain. Storage failures surface at Commit.
		_ = c.journal.Add(shard, ckey, res)
	}
	if f := c.cfg.Faults; f != nil && f.Hit(fault.Scan, fault.Interrupt, "", f.Next(fault.Scan)) {
		c.requestStop()
	}
	return true
}

// worker synthesises and scans batches until the work channel closes.
// After an interrupt it keeps draining the channel (finishing truncated
// batches without scanning) so the generator can never block on a send
// forever. Its per-domain telemetry counts in a tally of its own, published
// once per batch.
func (c *campaign) worker(shard int, work <-chan *batch) {
	c.tm.workersActive.Add(1)
	defer c.tm.workersActive.Add(-1)
	// A recorder has one owner. Ranges of one campaign scanned concurrently
	// share the tracer, so the recorder id is offset by the range start: a
	// range never has more workers than domains, which keeps the ids of
	// disjoint ranges disjoint (and an unsharded run's ids what they were).
	lo, _ := c.bounds()
	rec := c.cfg.Trace.Recorder(lo + shard)
	tally := newDomainTally(c.tm)
	eng := buildEngine(c.w, &c.cfg, tally, rec)
	for b := range work {
		for j := 0; j < b.n && !c.interrupted.Load(); j++ {
			key, pos := "", 0
			if b.keys != nil {
				key, pos = b.keys[j], b.pos[j]
			}
			// reuse grew results to the batch: the slot never moves.
			b.results = b.results[:j+1]
			if !c.scanStep(&eng, tally, shard, rec, c.w.DomainAt(b.start+j), key, pos, &b.slabs, &b.results[j]) {
				b.results = b.results[:j]
				break
			}
		}
		if c.journal != nil {
			// One write for the batch, before it is handed over, so a sink
			// never sees a result whose journal write is still pending; an
			// interrupted batch commits what it scanned. The records a
			// commit loses count in the journal's WriteFailures, which
			// publishJournal mirrors; keep scanning.
			_, _ = c.journal.Commit(shard)
			c.tm.checkpointDegraded.Set(boolGauge(c.journal.Degraded()))
		}
		// Publish before the hand-over: by the time the sink sees a domain,
		// every count of it is visible, and the last batch leaves the
		// end-of-run values exact.
		tally.publish()
		c.completed.Add(int64(len(b.results)))
		b.done <- struct{}{}
	}
}

// runPipeline executes the streaming campaign as one FIFO: a generator
// hands out index ranges in canonical order, queueing each batch on the
// order channel as well as on work; a worker pool synthesises and scans
// them (lazy worlds never materialise their population); and the caller's
// goroutine takes batches from the head of order, waits for each to be
// done, and hands its results to sink in canonical order. Memory stays
// bounded by the batch set, independent of the population size. It
// returns the first sink error, which also stops the campaign; a panicking
// sink fails with its panic as the error. Either way the pipeline drains
// before it returns: every worker has stopped, and no goroutine of the run
// is left behind.
func (c *campaign) runPipeline(sink func(i int, res *DomainResult) error) (sinkErr error) {
	lo, n := c.bounds()
	nw := c.cfg.workers()
	if nw > n-lo {
		nw = 1
	}
	// The pipeline owns a fixed set of batches, made here and cycled through
	// the free list in FIFO order: the generator waits for a delivered batch
	// rather than making one. The set holds what the work channel, the
	// workers and the generator can hold at once, plus as many again for
	// finished batches behind the FIFO head, so storage stays bounded by the
	// worker count and a run allocates the same batches however its workers
	// are scheduled. No channel holds more than the set, so the sink's sends
	// to free and the generator's to order never block.
	nb := min(pipelineBatches(nw), (n-lo+streamBatchSize-1)/streamBatchSize)
	work := make(chan *batch, nw)
	order := make(chan *batch, nb)
	free := make(chan *batch, nb)
	for range nb {
		free <- &batch{done: make(chan struct{}, 1)}
	}
	go func() {
		defer close(work)
		defer close(order)
		var gateNext map[string]int
		if c.br != nil {
			gateNext = map[string]int{}
		}
		for start := lo; start < n && !c.interrupted.Load(); start += streamBatchSize {
			end := min(start+streamBatchSize, n)
			// Every batch not in the free list is queued in order ahead of
			// the sink, which frees the head once a worker is done with it,
			// so the wait always ends.
			b := <-free
			b.reuse(start, end-start)
			for i := start; gateNext != nil && i < end; i++ {
				key := breakerKey(c.w, c.cfg.IPv6, c.w.DomainAt(i))
				p := 0
				if key != "" {
					p = gateNext[key]
					gateNext[key]++
				}
				b.keys = append(b.keys, key)
				b.pos = append(b.pos, p)
			}
			order <- b
			work <- b
		}
	}()
	var wg sync.WaitGroup
	for shard := 0; shard < nw; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			c.worker(shard, work)
		}(shard)
	}
	stopped := false
	completed := 0
	var lastMem time.Time
	for b := range order {
		<-b.done
		completed += len(b.results)
		for j := 0; j < len(b.results) && !stopped; j++ {
			if err := deliver(sink, b.start+j, &b.results[j]); err != nil {
				sinkErr = err
				stopped = true
				c.interrupt()
			}
		}
		if len(b.results) < b.n {
			stopped = true // interrupted mid-batch: a gap follows
		}
		// The sink has seen every result of b: its storage is free.
		if poisonBatches {
			b.poison()
		}
		free <- b
		if el := time.Since(c.started); el > 0 {
			c.tm.domainsPerSec.Set(int64(float64(completed) / el.Seconds()))
		}
		// Keep the allocation gauges live for mid-scan scrapes; once a
		// second is plenty.
		if c.allocs != nil && time.Since(lastMem) >= time.Second {
			lastMem = time.Now()
			c.allocs.publish(c.tm)
			c.publishJournal()
		}
	}
	wg.Wait()
	return sinkErr
}

// deliver hands one result to sink and returns the sink's error, or its
// panic as one.
func deliver(sink func(i int, res *DomainResult) error, i int, res *DomainResult) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("scanner: sink panicked at population index %d: %v", i, p)
		}
	}()
	return sink(i, res)
}

// RunStream executes a measurement campaign and hands every DomainResult
// to sink in canonical population order, without retaining earlier
// results: peak memory is bounded by the worker pool's batch set regardless
// of population size. Each worker synthesises the domains it scans, so pair
// it with a lazy world (websim.GenerateLazy) and the analysis accumulators
// for end-to-end bounded-memory campaigns.
//
// sink runs on the caller's goroutine. It borrows res for the length of the
// call: res, res.Conns and every connection's StackRTTs and Observations
// live in storage the pipeline recycles for later domains once the call
// returns, so a sink must not keep any of them — it folds what it needs, or
// copies (as Run does). The strings in a result are immutable and may be
// kept. Race builds overwrite recycled storage with poison, so a sink that
// breaks this contract fails its tests there.
//
// A non-nil sink error stops the campaign and is returned; so does a panic
// in sink, as an error naming it. When the campaign is interrupted, sink
// receives the longest completed prefix of the population and RunStream
// returns ErrInterrupted; completed domains beyond the first gap are in
// the checkpoint journal (when configured) but are not delivered. An
// interrupt is never swallowed: when the sink fails in a run that was also
// told to stop, the returned error wraps both.
func RunStream(w *websim.World, cfg Config, sink func(i int, res *DomainResult) error) error {
	c, err := newCampaign(w, cfg)
	if err != nil {
		return err
	}
	defer c.close()
	sinkErr := c.runPipeline(sink)
	c.finish()
	switch {
	case sinkErr != nil && c.stopRequested.Load():
		return fmt.Errorf("%w (and the sink failed: %w)", ErrInterrupted, sinkErr)
	case sinkErr != nil:
		return sinkErr
	case c.interrupted.Load():
		return ErrInterrupted
	}
	return nil
}
