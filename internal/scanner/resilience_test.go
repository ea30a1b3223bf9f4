package scanner

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quicspin/internal/dns"
	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// firstCleanTarget walks a baseline run in canonical order and returns the
// first domain whose landing connection succeeded with a single-hop 200 —
// a victim for an injected outage against its IP.
func firstCleanTarget(t *testing.T, w *websim.World, base *Result) (victim *websim.Domain, ip netip.Addr) {
	t.Helper()
	for i := range base.Domains {
		d := &base.Domains[i]
		if len(d.Conns) == 1 && d.Conns[0].Err == "" && d.Conns[0].Status == 200 {
			return w.Domains[i], d.Conns[0].IP
		}
	}
	t.Fatal("no clean single-hop target in baseline")
	return nil, netip.Addr{}
}

func TestPanicIsolation(t *testing.T) {
	w := testWorld(30_000)
	base := Config{Week: 1, Engine: EngineEmulated, Seed: 3, Workers: 3}
	clean := mustRun(t, w, base)

	idx := len(w.Domains) / 2
	victim := w.Domains[idx].Name
	reg := telemetry.New()
	cfg := base
	cfg.Telemetry = reg
	cfg.Faults = fault.New(1, fault.Rule{Site: fault.Scan, Kind: fault.Panic, Target: victim, P: 1})
	r := mustRun(t, w, cfg)

	vr := &r.Domains[idx]
	if len(vr.Conns) != 1 || !strings.HasPrefix(vr.Conns[0].Err, "panic:") {
		t.Fatalf("victim result = %+v, want one panic-classed conn", vr)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["scan_panics_total"]; got != 1 {
		t.Errorf("scan_panics_total = %d, want 1", got)
	}
	if got := snap.Counters[`spinscan_conn_errors_total{class="panic"}`]; got != 1 {
		t.Errorf("panic error class counter = %d, want 1", got)
	}
	// Every other domain is untouched: the worker rebuilt its engine and
	// per-domain rng derivation kept all results identical.
	r.Domains[idx] = clean.Domains[idx]
	sameScanResults(t, clean, r)
}

func TestWatchdogStallIsolation(t *testing.T) {
	w := testWorld(20_000)
	reg := telemetry.New()
	cfg := Config{Week: 1, Engine: EngineEmulated, Seed: 3, Workers: 2, Telemetry: reg}
	cfg.watchdogSteps = 50 // absurdly small: every live exchange "stalls"
	r := mustRun(t, w, cfg)

	stalls := 0
	for i := range r.Domains {
		if r.Domains[i].Domain == "" {
			t.Fatal("campaign left a domain unscanned after stalls")
		}
		for j := range r.Domains[i].Conns {
			if strings.HasPrefix(r.Domains[i].Conns[j].Err, "stall:") {
				stalls++
			}
		}
	}
	if stalls == 0 {
		t.Fatal("no stalls despite a 50-step watchdog budget")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["scan_stalls_total"]; got != int64(stalls) {
		t.Errorf("scan_stalls_total = %d, want %d", got, stalls)
	}
	if got := snap.Counters[`spinscan_conn_errors_total{class="stall"}`]; got == 0 {
		t.Error("stall error class counter not incremented")
	}
}

func TestDNSRetryTransient(t *testing.T) {
	w := testWorld(30_000)
	for _, eng := range []Engine{EngineEmulated, EngineFast} {
		base := Config{Week: 1, Engine: eng, Seed: 11, Workers: 2}
		clean := mustRun(t, w, base)
		idx := -1
		for i := range clean.Domains {
			if clean.Domains[i].Resolved {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatal("no resolved domain in baseline")
		}
		host := dns.Normalize(w.Domains[idx].Host())

		// Without retries the injected timeouts are terminal.
		noRetry := base
		noRetry.Faults = fault.New(1, fault.Rule{Site: fault.DNS, Kind: fault.Timeout, Target: host, P: 1, Times: 2})
		r := mustRun(t, w, noRetry)
		if r.Domains[idx].Resolved || r.Domains[idx].DNSErr.Kind != dns.Timeout {
			t.Fatalf("engine %v: without retries, want DNS timeout, got %+v", eng, r.Domains[idx])
		}

		// With a budget of 3 the third attempt succeeds.
		reg := telemetry.New()
		withRetry := noRetry
		withRetry.Retry = resilience.RetryPolicy{MaxRetries: 3}
		withRetry.Telemetry = reg
		r = mustRun(t, w, withRetry)
		if !r.Domains[idx].Resolved {
			t.Fatalf("engine %v: retries did not recover injected DNS timeouts: %+v", eng, r.Domains[idx])
		}
		if got := reg.Snapshot().Counters[`retries_total{stage="dns"}`]; got < 2 {
			t.Errorf("engine %v: dns retries = %d, want >= 2", eng, got)
		}
	}
}

func TestConnRetryFailFirst(t *testing.T) {
	w := testWorld(30_000)
	for _, eng := range []Engine{EngineEmulated, EngineFast} {
		base := Config{Week: 1, Engine: eng, Seed: 11, Workers: 1}
		clean := mustRun(t, w, base)
		victim, ip := firstCleanTarget(t, w, clean)
		idx := -1
		for i, d := range w.Domains {
			if d == victim {
				idx = i
				break
			}
		}

		// Without retries the injected outage is terminal for the landing.
		noRetry := base
		noRetry.Faults = fault.New(1, fault.Rule{Site: fault.Net, Kind: fault.Blackout, Target: ip.String(), P: 1, Times: 1})
		r := mustRun(t, w, noRetry)
		vr := &r.Domains[idx]
		if len(vr.Conns) != 1 || vr.Conns[0].Err != "timeout: no QUIC handshake" {
			t.Fatalf("engine %v: without retries, want handshake timeout, got %+v", eng, vr)
		}

		// With retries the second attempt (host recovered) succeeds.
		reg := telemetry.New()
		withRetry := noRetry
		withRetry.Retry = resilience.RetryPolicy{MaxRetries: 2}
		withRetry.Telemetry = reg
		r = mustRun(t, w, withRetry)
		vr = &r.Domains[idx]
		if len(vr.Conns) != 1 || vr.Conns[0].Err != "" || vr.Conns[0].Status != 200 || !vr.Conns[0].QUIC {
			t.Fatalf("engine %v: retry did not recover the outage: %+v", eng, vr)
		}
		if got := reg.Snapshot().Counters[`retries_total{stage="conn"}`]; got < 1 {
			t.Errorf("engine %v: conn retries = %d, want >= 1", eng, got)
		}
	}
}

func TestMultiAddressFallback(t *testing.T) {
	dead := netip.MustParseAddr("203.0.113.77") // TEST-NET-3: no server here
	for _, eng := range []Engine{EngineEmulated, EngineFast} {
		w := testWorld(30_000)
		base := Config{Week: 1, Engine: eng, Seed: 11, Workers: 1}
		clean := mustRun(t, w, base)
		victim, good := firstCleanTarget(t, w, clean)
		idx := -1
		for i, d := range w.Domains {
			if d == victim {
				idx = i
				break
			}
		}
		// Prepend a dead address to the victim's A records: resolveRetry
		// returns all addresses and connection retries rotate through them
		// (zgrab2-style fallback), so the scan must recover via addrs[1].
		base.zone = deadFirstZone{w.DNSBackend(), dns.Normalize(victim.Host()), dead}

		noRetry := base
		r := mustRun(t, w, noRetry)
		vr := &r.Domains[idx]
		if vr.Conns[0].IP != dead || vr.Conns[0].Err == "" {
			t.Fatalf("engine %v: without retries, want dead-address timeout, got %+v", eng, vr.Conns[0])
		}

		withRetry := base
		withRetry.Retry = resilience.RetryPolicy{MaxRetries: 2}
		r = mustRun(t, w, withRetry)
		vr = &r.Domains[idx]
		last := &vr.Conns[len(vr.Conns)-1]
		if last.IP != good || last.Err != "" || !last.QUIC {
			t.Fatalf("engine %v: fallback did not rotate to the live address: %+v", eng, last)
		}
	}
}

// deadFirstZone answers like its inner zone, with dead before the A records
// of host.
type deadFirstZone struct {
	inner dns.Backend
	host  string
	dead  netip.Addr
}

func (z deadFirstZone) Zone(name string) (dns.Record, bool) {
	rec, ok := z.inner.Zone(name)
	if ok && name == z.host {
		rec.A = append([]netip.Addr{z.dead}, rec.A...)
	}
	return rec, ok
}

// TestRetryWorkerInvariance: with injected DNS and connection failures and
// retries enabled, results must stay byte-identical across worker counts —
// fault decisions are keyed by (name or address, attempt) and backoff
// jitter comes from the per-domain rng, never from shared state.
func TestRetryWorkerInvariance(t *testing.T) {
	w := testWorld(60_000)
	for _, eng := range []Engine{EngineEmulated, EngineFast} {
		cfg := Config{Week: 1, Engine: eng, Seed: 5, Workers: 1,
			Retry: resilience.RetryPolicy{MaxRetries: 2},
			Faults: fault.New(5,
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.33, Times: 1},
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.33, Times: 2},
				fault.Rule{Site: fault.Net, Kind: fault.Blackout, P: 0.2, Times: 1})}
		a := mustRun(t, w, cfg)
		cfg.Workers = 5
		b := mustRun(t, w, cfg)
		sameScanResults(t, a, b)
	}
}

func TestInterruptAndResume(t *testing.T) {
	w := testWorld(60_000)
	base := Config{Week: 1, Engine: EngineFast, Seed: 5, Workers: 4}
	full := mustRun(t, w, base)

	dir := t.TempDir()
	interrupted := base
	interrupted.Checkpoint = dir
	interrupted.Faults = fault.New(1, fault.Rule{Site: fault.Scan, Kind: fault.Interrupt, P: 1, After: len(w.Domains) / 2, Times: 1})
	_, err := Run(w, interrupted)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run error = %v, want ErrInterrupted", err)
	}

	// Resume with a different worker count: the journal replays and only
	// the remainder is scanned; the merged result is byte-identical.
	reg := telemetry.New()
	resumed := base
	resumed.Checkpoint = dir
	resumed.Resume = true
	resumed.Workers = 2
	resumed.Telemetry = reg
	before := dirSize(t, dir)
	r := mustRun(t, w, resumed)
	sameScanResults(t, full, r)
	if got, want := reg.Gauge("journal_bytes").Value(), dirSize(t, dir)-before; got != want || want == 0 {
		t.Errorf("journal_bytes = %d, the resumed run grew the checkpoint directory by %d", got, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["domains_resumed_total"]; got == 0 {
		t.Error("resume replayed no domains")
	} else if got >= int64(len(w.Domains)) {
		t.Errorf("resume replayed %d of %d domains; interrupt did not interrupt", got, len(w.Domains))
	}
}

// TestPanickingSinkDrainsPipeline: a sink that panics fails RunStream like
// a sink that returns an error. With or without a checkpoint journal,
// RunStream returns an error naming the panic, the sink has seen exactly the
// results before it, and no goroutine of the pipeline is left behind.
func TestPanickingSinkDrainsPipeline(t *testing.T) {
	w := testWorld(100_000)
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", journaled), func(t *testing.T) {
			cfg := Config{Week: 1, Engine: EngineFast, Seed: 3, Workers: 2}
			if journaled {
				cfg.Checkpoint = t.TempDir()
			}
			base := runtime.NumGoroutine()
			var seen []int
			calls := 0
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("the sink's panic escaped RunStream: %v", p)
					}
				}()
				return RunStream(w, cfg, func(i int, _ *DomainResult) error {
					if calls++; calls == 101 {
						panic("sink failed at delivery 100")
					}
					seen = append(seen, i)
					return nil
				})
			}()
			if err == nil || !strings.Contains(err.Error(), "sink failed at delivery 100") {
				t.Errorf("RunStream = %v, want an error naming the sink's panic", err)
			}
			if calls != 101 || len(seen) != 100 || seen[0] != 0 || seen[99] != 99 {
				t.Errorf("sink called %d times with %d results, want 101 calls and indices 0-99", calls, len(seen))
			}
			deadline := time.Now().Add(2 * time.Second)
			n := runtime.NumGoroutine()
			for ; n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Errorf("%d goroutines after RunStream returned, %d before: the pipeline was stranded", n, base)
			}
			if journaled {
				// The journal closed after the workers' last commits: every
				// delivered domain is in it, and no record is torn.
				got, torn, err := resilience.Replay(cfg.Checkpoint)
				if err != nil || torn != 0 || len(got) < 100 {
					t.Errorf("replay: %d records, %d torn, err %v; want at least 100, 0, nil", len(got), torn, err)
				}
			}
		})
	}
}

// writeCountFS counts the writes issued through it, from any goroutine.
type writeCountFS struct {
	resilience.FS
	writes atomic.Int64
}

func (c *writeCountFS) OpenAppend(path string) (resilience.File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return writeCountFile{File: f, writes: &c.writes}, nil
}

type writeCountFile struct {
	resilience.File
	writes *atomic.Int64
}

func (f writeCountFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(p)
}

// TestJournalWritesPerBatch: a journaled week issues one write per pipeline
// batch, not one per domain — at most ⌈N/64⌉ + W writes for N domains and W
// workers — and every domain's record lands.
func TestJournalWritesPerBatch(t *testing.T) {
	w := testWorld(50_000)
	fs := &writeCountFS{FS: resilience.OSFS}
	dir := t.TempDir()
	cfg := Config{Week: 3, Engine: EngineFast, Seed: 2, Workers: 4, Checkpoint: dir,
		Journal: resilience.JournalConfig{FS: fs}}
	if err := RunStream(w, cfg, func(int, *DomainResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n := w.NumDomains()
	bound := (n+streamBatchSize-1)/streamBatchSize + cfg.Workers
	t.Logf("%d domains, %d workers: %d writes (bound %d)", n, cfg.Workers, fs.writes.Load(), bound)
	if got := fs.writes.Load(); got > int64(bound) {
		t.Errorf("a journaled week of %d domains issued %d writes, want at most %d", n, got, bound)
	}
	got, torn, err := resilience.Replay(dir)
	if err != nil || torn != 0 || len(got) != n {
		t.Fatalf("replay: %d records, %d torn, err %v; want %d, 0, nil", len(got), torn, err, n)
	}
}

// TestCheckpointErrorsCountRecords: checkpoint_errors_total counts the
// records a journaled week loses to storage failures — the journal's own
// WriteFailures — not the commits they fall in: one commit of a 64-record
// batch can lose many of them.
func TestCheckpointErrorsCountRecords(t *testing.T) {
	w := testWorld(50_000)
	plan, err := fault.Parse("seed:5,fs.write-err:0.3")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg := Config{Week: 3, Engine: EngineFast, Seed: 2, Workers: 4, Checkpoint: t.TempDir(), Telemetry: reg,
		Journal: resilience.JournalConfig{FS: resilience.NewFaultFS(nil, plan)}}
	c, err := newCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.runPipeline(func(int, *DomainResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c.close()
	st := c.journal.Stats()
	got := reg.Counter("checkpoint_errors_total").Value()
	// Each batch is committed once, so no more commits can have failed.
	commits := (w.NumDomains() + streamBatchSize - 1) / streamBatchSize
	injected := plan.Injected(fault.FS, fault.WriteErr)
	t.Logf("%d commits, %d failed writes injected: checkpoint_errors_total %d, WriteFailures %d, %d skipped",
		commits, injected, got, st.WriteFailures, st.Skipped)
	// A write-err plan fails no segment close, and each failed write costs
	// the one record it hits.
	if got != st.WriteFailures || got != int64(injected) {
		t.Errorf("checkpoint_errors_total = %d, want the journal's WriteFailures (%d) and the injected write failures (%d)",
			got, st.WriteFailures, injected)
	}
	if got <= int64(commits) {
		t.Errorf("checkpoint_errors_total = %d, not above the %d commits: it counts commits, not records", got, commits)
	}
}

// dirSize sums the sizes of dir's files.
func dirSize(t *testing.T, dir string) (n int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

func TestValidateResilienceConfig(t *testing.T) {
	if err := (Config{Resume: true}).Validate(); err == nil {
		t.Error("Resume without Checkpoint must be rejected")
	}
	if err := (Config{Retry: resilience.RetryPolicy{MaxRetries: -1}}).Validate(); err == nil {
		t.Error("negative MaxRetries must be rejected")
	}
}
