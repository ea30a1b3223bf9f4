package scanner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/websim"
)

// A sink borrows each result: the batch storage behind it is recycled once
// the call returns. These tests pin that contract from both sides — a sink
// that keeps what it borrowed reads poison, and one that copies (Run)
// keeps exactly what it was shown.

// withPoison runs the test with recycled batches poisoned, as race builds
// always run.
func withPoison(t *testing.T) {
	old := poisonBatches
	poisonBatches = true
	t.Cleanup(func() { poisonBatches = old })
}

// deepCopy is an independent deep copy of a result (not DomainResult.clone,
// which Run uses and these tests check): nil slices stay nil, empty ones
// empty.
func deepCopy(d *DomainResult) DomainResult {
	c := *d
	if d.Conns != nil {
		c.Conns = make([]ConnResult, len(d.Conns))
		copy(c.Conns, d.Conns)
	}
	for i := range c.Conns {
		if o := d.Conns[i].Observations; o != nil {
			c.Conns[i].Observations = append(make([]core.Observation, 0, len(o)), o...)
		}
		if r := d.Conns[i].StackRTTs; r != nil {
			c.Conns[i].StackRTTs = append(make([]time.Duration, 0, len(r)), r...)
		}
	}
	return c
}

// offsetCopy is deepCopy with every observation time made an offset from
// its connection's first observation: the emulated engine's observation
// times follow each worker's virtual clock, which depends on what else the
// worker scanned.
func offsetCopy(d *DomainResult) DomainResult {
	c := deepCopy(d)
	for _, conn := range c.Conns {
		for j := len(conn.Observations) - 1; j >= 0; j-- {
			o := &conn.Observations[j]
			o.T = time.Time{}.Add(o.T.Sub(conn.Observations[0].T))
		}
	}
	return c
}

// TestRetainingSinkSeesPoison: a sink that keeps the result pointer, the
// connection slice, the stack RTT samples and the observation series it was
// handed finds every one of them overwritten with poison once the campaign
// is over — on both engines and with several workers, so batches travel
// the free list.
func TestRetainingSinkSeesPoison(t *testing.T) {
	withPoison(t)
	w := testWorld(50_000)
	for _, eng := range []Engine{EngineFast, EngineEmulated} {
		var (
			kept  []*DomainResult
			conns [][]ConnResult
			rtts  [][]time.Duration
			obs   [][]core.Observation
		)
		cfg := Config{Week: 12, Engine: eng, Seed: 3, Workers: 3}
		err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
			kept = append(kept, d) // breaks the contract on purpose
			if d.Conns != nil {
				conns = append(conns, d.Conns)
			}
			for _, c := range d.Conns {
				if c.StackRTTs != nil {
					rtts = append(rtts, c.StackRTTs)
				}
				if c.Observations != nil {
					obs = append(obs, c.Observations)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) != w.NumDomains() || len(conns) == 0 || len(rtts) == 0 || len(obs) == 0 {
			t.Fatalf("engine %v: vacuous: kept %d results (of %d), %d connection lists, %d sample series, %d observation series",
				eng, len(kept), w.NumDomains(), len(conns), len(rtts), len(obs))
		}
		for _, d := range kept {
			if d.Domain != poisoned {
				t.Fatalf("engine %v: a kept result reads %q after the campaign, want poison", eng, d.Domain)
			}
		}
		for _, cs := range conns {
			for _, c := range cs {
				if c.Target != poisoned || c.Err != poisoned {
					t.Fatalf("engine %v: a kept connection reads %q/%q, want poison", eng, c.Target, c.Err)
				}
			}
		}
		for _, rs := range rtts {
			for _, r := range rs {
				if r != -1 {
					t.Fatalf("engine %v: a kept stack RTT reads %v, want poison", eng, r)
				}
			}
		}
		for _, os := range obs {
			for _, o := range os {
				if o.PN != ^uint64(0) {
					t.Fatalf("engine %v: a kept observation reads PN %d, want poison", eng, o.PN)
				}
			}
		}
	}
}

// TestRunResultsAreSinkClones: with recycled batches poisoned, Run's
// materialised results equal deep copies taken inside a RunStream sink of
// the same campaign, nil and empty slices alike, on both engines. The
// emulated engine's observation times follow each worker's virtual clock,
// so its two runs agree only on one worker.
func TestRunResultsAreSinkClones(t *testing.T) {
	withPoison(t)
	w := testWorld(50_000)
	for eng, workers := range map[Engine]int{EngineFast: 3, EngineEmulated: 1} {
		cfg := Config{Week: 12, Engine: eng, Seed: 4, Workers: workers}
		var want []DomainResult
		if err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
			want = append(want, deepCopy(d))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got := mustRun(t, w, cfg)
		if len(got.Domains) != len(want) {
			t.Fatalf("engine %v: Run returned %d results, the sink saw %d", eng, len(got.Domains), len(want))
		}
		flips := 0
		for i := range want {
			if !reflect.DeepEqual(got.Domains[i], want[i]) {
				t.Fatalf("engine %v: Run's result %d differs from the sink's copy:\n got %+v\nwant %+v", eng, i, got.Domains[i], want[i])
			}
			for _, c := range want[i].Conns {
				if c.Observations != nil {
					flips++
				}
			}
		}
		if flips == 0 {
			t.Fatalf("engine %v: vacuous: no connection kept an observation series", eng)
		}
	}
}

// TestRecycledResultsJournalAsCopies: in a journaled fast week and a
// journaled emulated week — hostile servers, injected DNS timeouts, retries —
// every result the sink borrows encodes, through the journal's AppendJSON,
// to exactly json.Marshal of its deep copy; no slice in it is empty but
// non-nil (which would turn a journal's null into []); and the journal on
// disk holds those very bytes for every domain.
func TestRecycledResultsJournalAsCopies(t *testing.T) {
	withPoison(t)
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 40_000, 0.3
	w := websim.Generate(p)
	for _, eng := range []Engine{EngineFast, EngineEmulated} {
		dir := t.TempDir()
		cfg := Config{Week: 5, Engine: eng, Seed: 8, Workers: 3, Checkpoint: dir,
			Retry: resilience.RetryPolicy{MaxRetries: 1},
			Faults: fault.New(2,
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.3, Times: 1},
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.1, Times: 2})}
		want := map[string][]byte{}
		dnsErrs := 0
		err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
			enc, err := d.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			cp := deepCopy(d)
			ref, err := json.Marshal(&cp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, ref) {
				t.Fatalf("engine %v: %s encodes as\n%s\nits copy as\n%s", eng, d.Domain, enc, ref)
			}
			if d.Conns != nil && len(d.Conns) == 0 {
				t.Fatalf("engine %v: %s holds an empty, non-nil connection list", eng, d.Domain)
			}
			for _, c := range d.Conns {
				if c.StackRTTs != nil && len(c.StackRTTs) == 0 || c.Observations != nil && len(c.Observations) == 0 {
					t.Fatalf("engine %v: %s holds an empty, non-nil series", eng, d.Domain)
				}
			}
			if d.DNSErr != "" {
				dnsErrs++
			}
			want[checkpointPrefix(cfg)+d.Domain] = enc
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if dnsErrs == 0 {
			t.Fatalf("engine %v: vacuous: no DNS failure in the week", eng)
		}
		got, _, err := resilience.ReplayFS(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("engine %v: the journal holds %d records, the sink saw %d domains", eng, len(got), len(want))
		}
		for key, enc := range want {
			if !bytes.Equal(got[key], enc) {
				t.Fatalf("engine %v: journal record %s is\n%s\nthe sink saw\n%s", eng, key, got[key], enc)
			}
		}
	}
}

// TestPipelineAllocatesSteadily: a campaign allocates the same heap bytes
// however its workers are scheduled. The pipeline makes its batch set up
// front instead of a batch whenever the free list runs dry, so neither the
// processor count nor a sink that yields, both of which move how far the
// generator and the workers run ahead of the sink at the FIFO head, changes
// what a week allocates.
func TestPipelineAllocatesSteadily(t *testing.T) {
	w := testWorld(50_000)
	cfg := Config{Week: 12, Engine: EngineFast, Seed: 5, Workers: 4}
	if nb := (w.NumDomains() + streamBatchSize - 1) / streamBatchSize; nb < 2*pipelineBatches(cfg.Workers) {
		t.Fatalf("vacuous: %d batches of population, want at least two trips of the batch set", nb)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	scan := func(procs, yieldEvery int) uint64 {
		runtime.GOMAXPROCS(procs)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := RunStream(w, cfg, func(i int, _ *DomainResult) error {
			if yieldEvery > 0 && i%yieldEvery == 0 {
				runtime.Gosched()
			}
			return nil
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	scan(4, 0) // warm-up: the runtime's own first-use allocations
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, run := range []struct{ procs, yieldEvery int }{{4, 0}, {1, 0}, {2, 3}, {4, 7}, {1, 5}, {4, 0}} {
		got := scan(run.procs, run.yieldEvery)
		t.Logf("GOMAXPROCS %d, sink yielding every %d results: %d bytes", run.procs, run.yieldEvery, got)
		lo, hi = min(lo, got), max(hi, got)
	}
	if hi-lo > steadyAllocSlack {
		t.Errorf("the same week allocated between %d and %d bytes, a spread of %d beyond the %d forgiven", lo, hi, hi-lo, steadyAllocSlack)
	}
}

// steadyAllocSlack is the spread TestPipelineAllocatesSteadily forgives: each
// worker's engine grows its synthesis scratch to the longest connection that
// worker happened to scan, which moves a few tens of KiB. A batch's storage
// is about as much again, and the old grow-on-demand pipeline moved several
// hundred KiB on this world.
const steadyAllocSlack = 64 << 10

// TestPoisonedStorageNeverLeaks: every result is written in place into
// recycled storage — the batch slot, the slabs behind its connections — so
// nothing of an earlier trip may survive into it. With recycled batches
// poisoned, a fast and an emulated week with hostile servers, injected DNS
// timeouts and blackouts, and retries on three workers deliver, domain by
// domain, results deep-equal to an unpoisoned run on one worker. The
// emulated engine's observation times follow each worker's virtual clock, so
// they are compared as offsets from their connection's first observation.
func TestPoisonedStorageNeverLeaks(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 40_000, 0.3
	w := websim.Generate(p)
	collect := func(eng Engine, workers int) []DomainResult {
		cfg := Config{Week: 7, Engine: eng, Seed: 9, Workers: workers,
			Retry: resilience.RetryPolicy{MaxRetries: 1},
			Faults: fault.New(3,
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.3, Times: 1},
				fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.1, Times: 2},
				fault.Rule{Site: fault.Net, Kind: fault.Blackout, P: 0.3, Times: 1})}
		var out []DomainResult
		if err := RunStream(w, cfg, func(_ int, d *DomainResult) error {
			out = append(out, offsetCopy(d))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	engines := []Engine{EngineFast, EngineEmulated}
	old := poisonBatches
	poisonBatches = false
	t.Cleanup(func() { poisonBatches = old })
	want := make([][]DomainResult, len(engines))
	for i, eng := range engines {
		want[i] = collect(eng, 1)
	}
	withPoison(t)
	for i, eng := range engines {
		got := collect(eng, 3)
		if len(got) != len(want[i]) {
			t.Fatalf("engine %v: %d results poisoned on 3 workers, %d on 1", eng, len(got), len(want[i]))
		}
		dnsOrChain, hostiles := 0, 0
		for j := range got {
			if !reflect.DeepEqual(got[j], want[i][j]) {
				t.Fatalf("engine %v: result %d differs poisoned on 3 workers:\n got %+v\nwant %+v", eng, j, got[j], want[i][j])
			}
			for _, c := range got[j].Conns {
				if resilience.Classify(c.Err) == resilience.ClassHostile {
					hostiles++
				}
			}
			if got[j].DNSErr != "" || len(got[j].Conns) > 1 {
				dnsOrChain++
			}
		}
		if dnsOrChain == 0 || hostiles == 0 {
			t.Fatalf("engine %v: vacuous: %d DNS failures or chains, %d hostile connections", eng, dnsOrChain, hostiles)
		}
	}
}

// TestWorkerSideSynthesis: each worker synthesises the domains of the index
// range it takes, and the sink takes batches from the head of one FIFO. So
// the eager and the on-demand world of one profile, scanned on one worker
// and on three, with the breaker off and at threshold 5, deliver results
// deep-equal index by index on both engines, also to a sink that yields on
// the first result of every batch, which keeps the FIFO head waiting while
// the workers run ahead. Emulated observation times are compared as
// offsets (see offsetCopy).
func TestWorkerSideSynthesis(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 40_000, 0.3
	worlds := []struct {
		name string
		w    *websim.World
	}{{"eager", websim.Generate(p)}, {"lazy", websim.GenerateLazy(p)}}
	if nb := (worlds[0].w.NumDomains() + streamBatchSize - 1) / streamBatchSize; nb < 2*pipelineBatches(3) {
		t.Fatalf("vacuous: %d batches of population, want at least two trips of the batch set", nb)
	}
	collect := func(w *websim.World, cfg Config, yield bool) (out []DomainResult) {
		err := RunStream(w, cfg, func(i int, d *DomainResult) error {
			if i != len(out) {
				return fmt.Errorf("sink called with index %d after %d results", i, len(out))
			}
			if yield && i%streamBatchSize == 0 {
				runtime.Gosched()
			}
			out = append(out, offsetCopy(d))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, eng := range []Engine{EngineFast, EngineEmulated} {
		for _, threshold := range []int{0, 5} {
			base := Config{Week: 4, Engine: eng, Seed: 13, Workers: 1,
				Retry:   resilience.RetryPolicy{MaxRetries: 1},
				Breaker: resilience.BreakerConfig{Threshold: threshold},
				Faults:  fault.New(6, fault.Rule{Site: fault.Net, Kind: fault.Blackout, P: 0.3, Times: 1})}
			want := collect(worlds[0].w, base, false)
			if len(want) != worlds[0].w.NumDomains() {
				t.Fatalf("engine %v: %d results of %d domains", eng, len(want), worlds[0].w.NumDomains())
			}
			skipped, skipErr := 0, breakerSkipResult(worlds[0].w.DomainAt(0)).Conns[0].Err
			for i := range want {
				if len(want[i].Conns) == 1 && want[i].Conns[0].Err == skipErr {
					skipped++
				}
			}
			if (threshold > 0) != (skipped > 0) {
				t.Fatalf("engine %v, breaker threshold %d: %d domains skipped by the breaker", eng, threshold, skipped)
			}
			for _, world := range worlds {
				for _, workers := range []int{1, 3} {
					for _, yield := range []bool{false, true} {
						cfg := base
						cfg.Workers = workers
						got := collect(world.w, cfg, yield)
						if len(got) != len(want) {
							t.Fatalf("engine %v, %s world, W = %d, threshold %d, yield %v: %d results, want %d",
								eng, world.name, workers, threshold, yield, len(got), len(want))
						}
						for i := range want {
							if !reflect.DeepEqual(got[i], want[i]) {
								t.Fatalf("engine %v, %s world, W = %d, threshold %d, yield %v: result %d differs:\n got %+v\nwant %+v",
									eng, world.name, workers, threshold, yield, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
