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
	"quicspin/internal/websim"
)

// supervisor owns one vantage's shard workers: it runs each shard's scan
// attempt, watches for crashes, panics and stalls, restarts failed
// workers from their checkpoint journals within a bounded budget, and
// classifies every shard as ok, recovered or lost. Restarted attempts
// resume from the per-shard journal (when the campaign checkpoints) or
// rescan from scratch — either way the scan is deterministic, so a
// recovered shard's accumulator is byte-identical to an undisturbed one.
type supervisor struct {
	w   *websim.World
	cfg Config
	v   scanner.Vantage
	vi  int
	col *Collector

	// user is the campaign's own interrupt channel (from ForWeek), kept
	// separate from the stall watchdog's so the supervisor can tell an
	// operator interrupt from a dead worker.
	user <-chan struct{}

	restarts      *telemetry.Counter
	lost          *telemetry.Counter
	submitRetries *telemetry.Counter
}

func newSupervisor(w *websim.World, cfg Config, v scanner.Vantage, vi int, col *Collector) *supervisor {
	cfg.Telemetry.Describe(map[string]string{
		"shard_restarts_total": "Supervised shard-worker restarts (crash, panic or stall recoveries).",
		"shard_lost_total":     "Shards abandoned after exhausting their restart budget.",
		"submit_retries_total": "Accumulator submission retries (NAKs and ack timeouts).",
	})
	return &supervisor{
		w: w, cfg: cfg, v: v, vi: vi, col: col,
		user:          cfg.interruptCh(),
		restarts:      cfg.Telemetry.Counter("shard_restarts_total"),
		lost:          cfg.Telemetry.Counter("shard_lost_total"),
		submitRetries: cfg.Telemetry.Counter("submit_retries_total"),
	}
}

func (s *supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// recorder is the supervisor's trace recorder for one shard, in the
// synthetic id range so it never collides with scan workers.
func (s *supervisor) recorder(si int) *trace.Recorder {
	return s.cfg.Trace.Recorder(trace.SyntheticWorkerBase - si)
}

// superviseShard runs one shard to completion, restarting failed attempts
// until the budget runs out. It returns the shard's campaign (nil when
// lost) and its supervision record. Interrupts pass through: the partial
// campaign ships with ShardStatus.Err = scanner.ErrInterrupted, exactly
// like the unsupervised coordinator behaved.
func (s *supervisor) superviseShard(si int, r Range) (*analysis.CampaignAccumulator, ShardStatus) {
	status := ShardStatus{Shard: si, Range: r}
	// delivered counts the shard's deliveries across its attempts: the
	// stall watchdog's progress signal and the index of the plan's shard
	// faults ("after 40, twice" kills the attempt delivering the 41st
	// domain and the next attempt's first delivery).
	var delivered atomic.Int64
	rng := rand.New(rand.NewSource(0x5d9e ^ int64(si)))
	for attempt := 0; ; attempt++ {
		status.Restarts = attempt
		camp, err := s.attempt(si, r, attempt > 0, &delivered)
		if err == nil {
			if attempt > 0 {
				status.State = ShardRecovered
			}
			return camp, status
		}
		if errors.Is(err, scanner.ErrInterrupted) {
			if attempt > 0 {
				status.State = ShardRecovered
			}
			status.Err = err
			return camp, status
		}
		status.Faults = append(status.Faults, fmt.Sprintf("attempt %d: %v", attempt+1, err))
		if attempt >= s.cfg.MaxRestarts {
			status.State = ShardLost
			status.Err = err
			s.noteLost(si, attempt, err)
			return nil, status
		}
		s.noteRestart(si, attempt, err)
		if !s.cfg.RestartBackoff.Sleep(rng, attempt, s.user) {
			// Operator interrupt during backoff: surface the failed
			// attempt's partial campaign like any interrupted shard.
			status.Err = scanner.ErrInterrupted
			return camp, status
		}
	}
}

// attempt runs one shard scan attempt with its fault-detection apparatus:
// a stall watchdog (when configured), the injected-crash hook (when there
// is a fault plan) and panic containment.
func (s *supervisor) attempt(si int, r Range, restart bool, delivered *atomic.Int64) (camp *analysis.CampaignAccumulator, err error) {
	defer func() {
		// Safety net for genuine panics escaping the scan path; injected
		// panics are already contained at the delivery hook below.
		if p := recover(); p != nil {
			err = fmt.Errorf("worker panic: %v", p)
		}
	}()
	done := make(chan struct{})
	defer close(done)
	interrupt := s.user
	var stallCh chan struct{}
	if s.cfg.StallTimeout > 0 {
		stallCh = make(chan struct{})
		go stallWatch(delivered, s.cfg.StallTimeout, stallCh, done)
		interrupt = mergeInterrupt(s.user, stallCh, done)
	}
	var hook func(int64) error
	if s.cfg.Faults != nil {
		hook = crashHook(s.cfg.Faults, strconv.Itoa(si), interrupt)
	}
	camp, err = runShard(s.w, s.cfg, s.v, s.vi, si, r, restart, interrupt, hook, delivered)
	if err != nil && errors.Is(err, scanner.ErrInterrupted) {
		if chClosed(s.user) {
			return camp, scanner.ErrInterrupted // operator interrupt wins
		}
		if chClosed(stallCh) {
			return camp, fmt.Errorf("stalled: no progress for %v", s.cfg.StallTimeout)
		}
	}
	return camp, err
}

func (s *supervisor) noteRestart(si, attempt int, cause error) {
	s.restarts.Inc()
	s.cfg.Live.NoteRestart(si)
	s.recorder(si).Event(fmt.Sprintf("shard-%03d", si), time.Now(), "restart",
		"attempt", fmt.Sprintf("%d", attempt+1),
		"cause", cause.Error())
	s.logf("shard %d (vantage %d): attempt %d failed (%v); restarting from journal", si, s.vi, attempt+1, cause)
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
	s.logf("shard %d (vantage %d): lost after %d attempt(s): %v", si, s.vi, attempt+1, cause)
}

// submit ships one completed shard's campaign to the collector with
// retried, fault-injected, idempotent submission.
func (s *supervisor) submit(si int, camp *analysis.CampaignAccumulator) error {
	return SubmitWithPolicy(s.col.Addr().String(), si, camp.Marshal(), SubmitPolicy{
		Faults: s.cfg.Faults,
		OnRetry: func(attempt int, err error) {
			s.submitRetries.Inc()
			s.logf("shard %d (vantage %d): submit attempt %d failed (%v); retrying", si, s.vi, attempt, err)
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
				// No watchdog and no interrupt channel: blocking here would
				// hang the campaign forever, so degrade to a crash.
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
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
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
