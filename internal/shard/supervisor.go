package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/fault"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
)

// supervisor owns one vantage's scans of one week: it runs each range's
// scan attempt, classifies a failed attempt from the error the scan returns
// (an injected crash, a panic, a failing sink), restarts it from its
// checkpoint journal within a bounded budget, and classifies every shard as
// ok, recovered or lost. Restarted attempts resume from the range's journal
// (when the campaign checkpoints) or rescan from scratch — either way the
// scan is deterministic, so a recovered range's accumulator is
// byte-identical to an undisturbed one.
type supervisor struct {
	*run
	vs *vantageRun
	// sc is the week's scan configuration, as ForWeek returned it.
	sc scanner.Config
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

// attempt runs one scan attempt, with the injected-fault hook when there is
// a fault plan, and classifies its failure from the error the scan returns.
func (s *supervisor) attempt(si int, r Range, restart bool) (camp *analysis.CampaignAccumulator, err error) {
	defer func() {
		// Safety net for panics outside RunStream's pipeline — the attempt's
		// sink setup, or RunStream before its pipeline starts. RunStream
		// itself returns a panicking sink (the fault hook, the Tee, the fold)
		// as its error, once its workers have stopped.
		if p := recover(); p != nil {
			camp, err = nil, fmt.Errorf("worker panic: %v", p)
		}
	}()
	var hook func(int64) error
	if s.cfg.Faults != nil {
		hook = crashHook(s.cfg.Faults, strconv.Itoa(si))
	}
	camp, err = s.scanRange(si, r, restart, hook)
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
func (s *supervisor) scanRange(si int, r Range, restart bool, hook func(int64) error) (*analysis.CampaignAccumulator, error) {
	sc := s.sc
	sc.Shard = scanner.ShardRange{Start: r.Start, End: r.End}
	sc.Vantage = s.vs.v
	sc.Interrupt = s.stop
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
	s.recorder(si).Event(fmt.Sprintf("shard-%03d", si), time.Now(), "lost",
		"attempts", fmt.Sprintf("%d", attempt+1),
		"cause", cause.Error())
	s.logf("shard %d (vantage %d): week %d lost after %d attempt(s): %v", si, s.vs.vi, s.sc.Week, attempt+1, cause)
}

// crashHook injects the plan's shard faults for one shard. It runs inside
// the delivery path, called with the shard's 1-based delivery count: a crash
// is the error RunStream aborts with, and a panic unwinds into RunStream,
// which returns it as the sink's error.
func crashHook(plan *fault.Plan, shard string) func(int64) error {
	return func(n int64) error {
		before := int(n) - 1 // deliveries before this one
		switch {
		case plan.Hit(fault.Shard, fault.Panic, shard, before):
			panic(fmt.Sprintf("injected panic after %d domains", before))
		case plan.Hit(fault.Shard, fault.Crash, shard, before):
			return fmt.Errorf("injected fault: crash after %d domains", before)
		}
		return nil
	}
}

// chClosed reports whether ch is closed.
func chClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
