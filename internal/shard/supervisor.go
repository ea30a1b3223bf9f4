package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/fault"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
)

// supervisor owns one vantage's scans of one week: it runs each range's
// scan attempt, watches for crashes, panics and stalls, restarts failed
// attempts from their checkpoint journals within a bounded budget, and
// classifies every shard as ok, recovered or lost. Restarted attempts resume
// from the range's journal (when the campaign checkpoints) or rescan from
// scratch — either way the scan is deterministic, so a recovered range's
// accumulator is byte-identical to an undisturbed one.
type supervisor struct {
	*run
	vs *vantageRun
	// sc is the week's scan configuration, as ForWeek returned it.
	sc  scanner.Config
	col *Collector
}

// recorder is the supervisor's trace recorder for one shard: supervisor
// events (restarts and losses) go to the week's tracer as synthetic traces,
// in the synthetic id range so they never collide with scan workers.
func (s *supervisor) recorder(si int) *trace.Recorder {
	return s.sc.Trace.Recorder(trace.SyntheticWorkerBase - si)
}

// superviseShard runs one range's scan of the week to completion,
// restarting failed attempts until the budget runs out. It returns the
// range's one-week campaign (nil when lost or interrupted) and its
// supervision record; an interrupt is ShardStatus.Err =
// scanner.ErrInterrupted and never burns a restart.
func (s *supervisor) superviseShard(si int, r Range) (*analysis.CampaignAccumulator, ShardStatus) {
	status := ShardStatus{Shard: si, Range: r}
	rng := rand.New(rand.NewSource(0x5d9e ^ int64(si)))
	for attempt := 0; ; attempt++ {
		status.Restarts = attempt
		camp, err := s.attempt(si, r, attempt > 0)
		if err == nil {
			if attempt > 0 {
				status.State = ShardRecovered
			}
			return camp, status
		}
		if errors.Is(err, scanner.ErrInterrupted) {
			status.Err = err
			return nil, status
		}
		status.Faults = append(status.Faults, fmt.Sprintf("attempt %d: %v", attempt+1, err))
		if attempt >= s.cfg.MaxRestarts {
			status.State = ShardLost
			status.Err = err
			s.noteLost(si, attempt, err)
			return nil, status
		}
		s.noteRestart(si, attempt, err)
		if !s.cfg.RestartBackoff.Sleep(rng, attempt, s.stop) {
			status.Err = scanner.ErrInterrupted
			return nil, status
		}
	}
}

// attempt runs one scan attempt with its fault-detection apparatus: a stall
// watchdog (when configured), the injected-crash hook (when there is a
// fault plan) and panic containment.
func (s *supervisor) attempt(si int, r Range, restart bool) (camp *analysis.CampaignAccumulator, err error) {
	defer func() {
		// Safety net for genuine panics escaping the scan path; injected
		// panics are already contained at the delivery hook below.
		if p := recover(); p != nil {
			camp, err = nil, fmt.Errorf("worker panic: %v", p)
		}
	}()
	done := make(chan struct{})
	defer close(done)
	interrupt := (<-chan struct{})(s.stop)
	// unblock is what an injected stall blocks on: nil without a watchdog,
	// and the hook then degrades the stall to a crash instead of hanging.
	var stall chan struct{}
	var unblock <-chan struct{}
	if s.cfg.StallTimeout > 0 {
		stall = make(chan struct{})
		go stallWatch(&s.vs.delivered[si], s.cfg.StallTimeout, stall, done)
		interrupt = mergeInterrupt(s.stop, stall, done)
		unblock = interrupt
	}
	var hook func(int64) error
	if s.cfg.Faults != nil {
		hook = crashHook(s.cfg.Faults, strconv.Itoa(si), unblock)
	}
	camp, err = s.scanRange(si, r, restart, interrupt, hook)
	switch {
	case err == nil:
		return camp, nil
	case chClosed(s.stop):
		// The campaign was interrupted while this attempt died of something
		// else: the interrupt wins, whatever the attempt reported — it must
		// not be classified as a crash and restarted.
		return nil, scanner.ErrInterrupted
	case !errors.Is(err, scanner.ErrInterrupted):
		return nil, err
	case chClosed(stall):
		return nil, fmt.Errorf("stalled: no progress for %v", s.cfg.StallTimeout)
	}
	// The scan itself was told to stop (an injected scan.interrupt): the
	// whole campaign stops with it.
	s.interrupt()
	return nil, scanner.ErrInterrupted
}

// scanRange is one attempt: the week's scan of one population range into a
// fresh week-isolated accumulator. restart replays the range's journal even
// on campaigns that did not ask to resume (a restart must pick up the
// crashed attempt's progress); hook, when non-nil, observes every delivery
// with the shard's running count (the fault plan's crash injection point).
func (s *supervisor) scanRange(si int, r Range, restart bool, interrupt <-chan struct{}, hook func(int64) error) (*analysis.CampaignAccumulator, error) {
	sc := s.sc
	sc.Shard = scanner.ShardRange{Start: r.Start, End: r.End}
	sc.Vantage = s.vs.v
	sc.Interrupt = interrupt
	sc.Checkpoint = s.journalDir(s.vs, si, sc)
	sc.Resume = sc.Checkpoint != "" && (s.cfg.Resume || restart)
	if sc.Telemetry == nil {
		sc.Telemetry = s.cfg.Telemetry
	}
	camp := analysis.NewCampaignAccumulator()
	sink := s.cfg.Live.ShardSink(si, camp.StartWeek(sc.Week, sc.IPv6, s.w.ASDB()))
	var tee func(int, *scanner.DomainResult) error
	if s.cfg.Tee != nil {
		tee = s.cfg.Tee(s.vs.dir, sc)
	}
	counter := s.cfg.Telemetry.Counter(telemetry.Name("shard_domains_total", "shard", strconv.Itoa(si)))
	progress := &s.vs.delivered[si]
	err := scanner.RunStream(s.w, sc, func(i int, d *scanner.DomainResult) error {
		counter.Inc()
		n := progress.Add(1)
		if hook != nil {
			if err := hook(n); err != nil {
				return err
			}
		}
		if tee != nil {
			if err := tee(i, d); err != nil {
				return err
			}
		}
		return sink(i, d)
	})
	return camp, err
}

func (s *supervisor) noteRestart(si, attempt int, cause error) {
	s.restarts.Inc()
	s.cfg.Live.NoteRestart(si)
	s.recorder(si).Event(fmt.Sprintf("shard-%03d", si), time.Now(), "restart",
		"attempt", fmt.Sprintf("%d", attempt+1),
		"cause", cause.Error())
	s.logf("shard %d (vantage %d): week %d attempt %d failed (%v); restarting from journal", si, s.vs.vi, s.sc.Week, attempt+1, cause)
}

func (s *supervisor) noteLost(si, attempt int, cause error) {
	s.lost.Inc()
	s.cfg.Live.NoteLost(si)
	if s.col != nil {
		s.col.Abandon(si)
	}
	s.recorder(si).Event(fmt.Sprintf("shard-%03d", si), time.Now(), "lost",
		"attempts", fmt.Sprintf("%d", attempt+1),
		"cause", cause.Error())
	s.logf("shard %d (vantage %d): week %d lost after %d attempt(s): %v", si, s.vs.vi, s.sc.Week, attempt+1, cause)
}

// submit ships one completed range's campaign to the collector with
// retried, fault-injected, idempotent submission.
func (s *supervisor) submit(si int, camp *analysis.CampaignAccumulator) error {
	return SubmitWithPolicy(s.col.Addr().String(), si, camp.Marshal(), SubmitPolicy{
		Faults: s.cfg.Faults,
		OnRetry: func(attempt int, err error) {
			s.submitRetries.Inc()
			s.logf("shard %d (vantage %d): submit attempt %d failed (%v); retrying", si, s.vs.vi, attempt, err)
		},
	})
}

// crashHook injects the plan's faults for one shard. It runs inside the
// delivery path (called with the shard's 1-based delivery count), so a
// panic is recovered right here at the hook boundary — letting it unwind
// through RunStream would strand the scan pipeline's workers — and
// converted into the error RunStream aborts with.
func crashHook(plan *fault.Plan, shard string, interrupt <-chan struct{}) func(int64) error {
	return func(n int64) (err error) {
		before := int(n) - 1 // deliveries before this one
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("injected fault: worker panic: %v", p)
			}
		}()
		switch {
		case plan.Hit(fault.Shard, fault.Panic, shard, before):
			panic(fmt.Sprintf("injected panic after %d domains", before))
		case plan.Hit(fault.Shard, fault.Stall, shard, before):
			if interrupt == nil {
				// No watchdog: blocking here would hang the campaign until an
				// operator stopped it, so degrade to a crash.
				return fmt.Errorf("injected fault: stall after %d domains with no stall watchdog", before)
			}
			<-interrupt
			return fmt.Errorf("injected fault: stall after %d domains", before)
		case plan.Hit(fault.Shard, fault.Crash, shard, before):
			return fmt.Errorf("injected fault: crash after %d domains", before)
		}
		return nil
	}
}

// stallWatch closes stallCh when progress stops advancing for the full
// timeout. It polls at timeout/4 granularity — coarse, cheap and immune
// to delivery burstiness.
func stallWatch(progress *atomic.Int64, timeout time.Duration, stallCh chan struct{}, done <-chan struct{}) {
	tick := timeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if cur := progress.Load(); cur != last {
				last, lastChange = cur, time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				close(stallCh)
				return
			}
		}
	}
}

// mergeInterrupt fans two interrupt channels into one; done bounds the
// helper goroutine's life to the attempt.
func mergeInterrupt(a, b <-chan struct{}, done <-chan struct{}) <-chan struct{} {
	out := make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		case <-done:
			return
		}
		close(out)
	}()
	return out
}

// chClosed reports whether ch is closed; nil channels read as open.
func chClosed(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
