package shard

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
)

// fastBackoff keeps supervised restarts from slowing the tests down.
var fastBackoff = resilience.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Jitter: -1}

// TestSupervisorRecoversCrash is the core supervision contract: a shard
// worker that dies mid-scan is restarted from its checkpoint journal and
// the campaign's rendered output is byte-identical to an undisturbed run.
func TestSupervisorRecoversCrash(t *testing.T) {
	w := fixture(t)
	weeks := []int{1, 2}
	golden, err := Run(w, Config{Shards: 2, Weeks: weeks, ForWeek: baseConfig(scanner.EngineFast, 2)})
	if err != nil {
		t.Fatal(err)
	}
	tm := telemetry.New()
	tracer := trace.New(trace.Config{})
	live := analysis.NewLive()
	// The supervisor traces into the week's scan tracer: concurrently
	// scanned ranges must not share a per-worker recorder.
	traced := func(week int) scanner.Config {
		sc := baseConfig(scanner.EngineFast, 2)(week)
		sc.Trace = tracer
		return sc
	}
	res, err := Run(w, Config{
		Shards: 2, Weeks: weeks, ForWeek: traced,
		Checkpoint: t.TempDir(), Telemetry: tm, Live: live,
		MaxRestarts: 2, RestartBackoff: fastBackoff,
		Faults: mustFaults(t, "shard.crash:1@40"),
	})
	if err != nil {
		t.Fatalf("supervised campaign failed: %v", err)
	}
	cov := res.Vantages[0].Coverage
	if !cov.Complete() {
		t.Fatalf("coverage incomplete after recovery: %+v", cov)
	}
	if st := cov.Shards[1]; st.State != ShardRecovered || st.Restarts != 1 || len(st.Faults) != 1 {
		t.Errorf("shard 1 status = %+v, want one recovered restart", st)
	}
	if st := cov.Shards[0]; st.State != ShardOK || st.Restarts != 0 {
		t.Errorf("shard 0 status = %+v, want untouched", st)
	}
	if got, want := renderCampaign(res.Vantages[0].Campaign), renderCampaign(golden.Vantages[0].Campaign); got != want {
		t.Error("recovered campaign differs from the undisturbed reference")
	}
	if c := tm.Counter("shard_restarts_total").Value(); c != 1 {
		t.Errorf("shard_restarts_total = %d, want 1", c)
	}
	if c := tm.Counter("shard_lost_total").Value(); c != 0 {
		t.Errorf("shard_lost_total = %d, want 0", c)
	}
	if snap := live.Snapshot(); snap.Restarts != 1 || len(snap.LostShards) != 0 {
		t.Errorf("dashboard restarts=%d lost=%v, want 1 and none", snap.Restarts, snap.LostShards)
	}
	restartTrace := false
	for _, tr := range tracer.Recent(0) {
		if tr.Domain == "shard-001" && tr.Outcome == "restart" {
			restartTrace = true
		}
	}
	if !restartTrace {
		t.Error("no restart trace recorded for shard 1")
	}
}

// TestSupervisorRecoversPanicAndStall covers the other failure mode: an
// injected worker panic, which RunStream returns as its sink's error, twice
// in a row, recovered to byte-identical output. Its stall case went with
// the stall watchdog; the panic case keeps its subtest name.
func TestSupervisorRecoversPanicAndStall(t *testing.T) {
	w := fixture(t)
	golden, err := Run(w, Config{Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("panic", func(t *testing.T) {
		tm := telemetry.New()
		res, err := Run(w, Config{
			Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 2),
			Checkpoint: t.TempDir(), Telemetry: tm,
			MaxRestarts: 3, RestartBackoff: fastBackoff,
			Faults: mustFaults(t, "shard.panic:0@30x2"),
		})
		if err != nil {
			t.Fatalf("panic campaign failed: %v", err)
		}
		cov := res.Vantages[0].Coverage
		if st := cov.Shards[0]; st.State != ShardRecovered || st.Restarts != 2 {
			t.Errorf("shard 0 status = %+v, want recovery after 2 restarts", st)
		}
		if got, want := renderCampaign(res.Vantages[0].Campaign), renderCampaign(golden.Vantages[0].Campaign); got != want {
			t.Error("panic-recovered campaign differs from the undisturbed reference")
		}
		if c := tm.Counter("shard_restarts_total").Value(); c != 2 {
			t.Errorf("shard_restarts_total = %d, want 2", c)
		}
	})
}

// goroutinesBackTo polls until the goroutine count is at most base, for up
// to two seconds (goroutines that have finished their work may still be on
// their way out), and returns the last count.
func goroutinesBackTo(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSupervisorContainsPanickingTee: a Tee sink that panics once fails its
// attempt like a crash. The range recovers after one restart to tables
// byte-identical to an undisturbed run, and the failed attempt leaves no
// goroutine of its scan pipeline behind.
func TestSupervisorContainsPanickingTee(t *testing.T) {
	w := fixture(t)
	golden, err := Run(w, Config{Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 2)})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	var panicked atomic.Bool
	res, err := Run(w, Config{
		Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 2),
		Checkpoint: t.TempDir(), MaxRestarts: 2, RestartBackoff: fastBackoff,
		Tee: func(_ string, sc scanner.Config) func(int, *scanner.DomainResult) error {
			n := 0
			return func(int, *scanner.DomainResult) error {
				// Shard 1's range is the one that does not start at 0.
				if n++; n == 50 && sc.Shard.Start > 0 && panicked.CompareAndSwap(false, true) {
					panic("tee write failed")
				}
				return nil
			}
		},
	})
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	cov := res.Vantages[0].Coverage
	if st := cov.Shards[1]; st.State != ShardRecovered || st.Restarts != 1 || len(st.Faults) != 1 || !strings.Contains(st.Faults[0], "tee write failed") {
		t.Errorf("shard 1 status = %+v, want one restart after the tee's panic", st)
	}
	if st := cov.Shards[0]; st.State != ShardOK {
		t.Errorf("shard 0 status = %+v, want untouched", st)
	}
	if got, want := renderCampaign(res.Vantages[0].Campaign), renderCampaign(golden.Vantages[0].Campaign); got != want {
		t.Error("recovered campaign differs from the undisturbed reference")
	}
	if n := goroutinesBackTo(base); n > base {
		t.Errorf("%d goroutines after the campaign, %d before: the panicked attempt stranded its pipeline", n, base)
	}
}

// TestShardLostDegradedMerge exhausts one shard's restart budget and
// checks the degraded merge: the campaign completes with the surviving
// shards, and the coverage accounting names the missing range exactly —
// the merged tables equal a direct scan of the surviving ranges.
func TestShardLostDegradedMerge(t *testing.T) {
	w := fixture(t)
	ranges := Plan(w.NumDomains(), 2)
	t.Run("serialized", func(t *testing.T) {
		tm := telemetry.New()
		live := analysis.NewLive()
		res, err := Run(w, Config{
			Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 2),
			Telemetry: tm, Live: live,
			MaxRestarts: 1, RestartBackoff: fastBackoff,
			Faults: mustFaults(t, "shard.crash:1@20x99"),
		})
		if err != nil {
			t.Fatalf("degraded campaign failed outright: %v", err)
		}
		cov := res.Vantages[0].Coverage
		if cov.Complete() {
			t.Fatal("coverage claims completeness with a lost shard")
		}
		if st := cov.Shards[1]; st.State != ShardLost || st.Restarts != 1 || st.Err == nil {
			t.Errorf("shard 1 status = %+v, want lost after 1 restart", st)
		}
		wantMissing := ranges[1].End - ranges[1].Start
		if cov.TotalDomains != w.NumDomains() || cov.CoveredDomains != w.NumDomains()-wantMissing {
			t.Errorf("coverage %d/%d, want %d/%d", cov.CoveredDomains, cov.TotalDomains, w.NumDomains()-wantMissing, w.NumDomains())
		}
		if len(cov.Missing) != 1 || cov.Missing[0] != ranges[1] {
			t.Errorf("missing = %v, want [%v]", cov.Missing, ranges[1])
		}
		if ann := cov.Confidence("Table 1"); !strings.Contains(ann, "Table 1") {
			t.Errorf("confidence annotation = %q", ann)
		}
		// The degraded tables must equal a direct scan of the surviving
		// range — no partial data from the lost shard's attempts.
		ref := analysis.NewCampaignAccumulator()
		sc := baseConfig(scanner.EngineFast, 2)(1)
		sc.Week, sc.Shard = 1, scanner.ShardRange{Start: ranges[0].Start, End: ranges[0].End}
		if err := scanner.RunStream(w, sc, ref.StartWeek(1, false, w.ASDB()).Sink()); err != nil {
			t.Fatal(err)
		}
		if got, want := renderCampaign(res.Vantages[0].Campaign), renderCampaign(ref); got != want {
			t.Error("degraded merge differs from a direct scan of the surviving shard")
		}
		if c := tm.Counter("shard_lost_total").Value(); c != 1 {
			t.Errorf("shard_lost_total = %d, want 1", c)
		}
		if snap := live.Snapshot(); len(snap.LostShards) != 1 || snap.LostShards[0] != 1 {
			t.Errorf("dashboard lost shards = %v, want [1]", snap.LostShards)
		}
	})
}

// TestStrictShardsFailsFast pins the -strict-shards escape hatch: the same
// lost-shard campaign aborts instead of merging.
func TestStrictShardsFailsFast(t *testing.T) {
	w := fixture(t)
	_, err := Run(w, Config{
		Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 2),
		StrictShards: true, MaxRestarts: 1, RestartBackoff: fastBackoff,
		Faults: mustFaults(t, "shard.crash:1@20x99"),
	})
	if err == nil || !strings.Contains(err.Error(), "strict mode") || !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("strict campaign = %v, want a strict-mode loss error naming shard 1", err)
	}
}

// TestAllShardsLost checks the floor of degraded merging: when nothing
// survives there is no campaign to report, strict or not.
func TestAllShardsLost(t *testing.T) {
	w := fixture(t)
	_, err := Run(w, Config{
		Shards: 2, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 2),
		MaxRestarts: 0, RestartBackoff: fastBackoff,
		Faults: mustFaults(t, "shard.crash:0@5x99,shard.crash:1@5x99"),
	})
	if err == nil || !strings.Contains(err.Error(), "every shard was lost") {
		t.Errorf("all-lost campaign = %v, want a nothing-to-merge error", err)
	}
}

// TestSupervisorPassesInterruptThrough pins that supervision does not
// swallow operator interrupts: an injected scan.interrupt still surfaces
// ErrInterrupted with a partial result, and the interrupt is not burned
// as a restart attempt.
func TestSupervisorPassesInterruptThrough(t *testing.T) {
	w := fixture(t)
	tm := telemetry.New()
	plan := mustFaults(t, "scan.interrupt:40")
	interrupted := func(week int) scanner.Config {
		sc := baseConfig(scanner.EngineFast, 2)(week)
		sc.Faults = plan
		return sc
	}
	res, err := Run(w, Config{
		Shards: 2, Weeks: []int{1}, ForWeek: interrupted,
		Checkpoint: t.TempDir(), Telemetry: tm,
		MaxRestarts: 3, RestartBackoff: fastBackoff,
	})
	if !errors.Is(err, scanner.ErrInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrInterrupted", err)
	}
	if res == nil || res.Vantages[0].Campaign == nil {
		t.Fatal("interrupted campaign returned no partial result")
	}
	if c := tm.Counter("shard_restarts_total").Value(); c != 0 {
		t.Errorf("interrupt consumed %d restart attempts", c)
	}
}
