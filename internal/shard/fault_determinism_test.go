package shard

import (
	"errors"
	"testing"

	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// TestShardFaultDeterminism: a campaign run under transient fault
// injection — scripted worker crashes and panics recovered by the
// supervisor — renders Tables 1–5 and Figs. 2–4 byte-identical to a
// fault-free run, for 2 and 8 shards and both scan engines. Fault tolerance must be output-neutral: recovery changes how
// long the campaign takes, never what it measures.
func TestShardFaultDeterminism(t *testing.T) {
	engines := []struct {
		name   string
		engine scanner.Engine
		scale  int
	}{
		// Larger scale = smaller population; the emulated engine scans
		// ~2k domains per campaign, the fast engine ~11k.
		{"fast", scanner.EngineFast, 20_000},
		{"emulated", scanner.EngineEmulated, 100_000},
	}
	plan := mustFaults(t, "seed:3,shard.crash:1@25,shard.panic:0@40x2")
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			p := websim.DefaultProfile()
			p.Scale = eng.scale
			w := websim.Generate(p)
			forWeek := func(week int) scanner.Config {
				return scanner.Config{Engine: eng.engine, Seed: 11, Workers: 4}
			}
			clean, err := Run(w, Config{Shards: 2, Weeks: []int{1, 3}, ForWeek: forWeek})
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			golden := renderCampaign(clean.Vantages[0].Campaign)
			for _, shards := range []int{2, 8} {
				tm := telemetry.New()
				cfg := Config{
					Shards: shards, Weeks: []int{1, 3}, ForWeek: forWeek,
					Telemetry:   tm,
					MaxRestarts: 2, RestartBackoff: fastBackoff,
					Faults: plan,
				}
				// The 2-shard run recovers restarts from checkpoint
				// journals; the 8-shard run rescans from scratch — both
				// recovery paths must land on the same bytes.
				if shards == 2 {
					cfg.Checkpoint = t.TempDir()
				}
				res, err := Run(w, cfg)
				if err != nil {
					t.Fatalf("shards=%d faulted run: %v", shards, err)
				}
				cov := res.Vantages[0].Coverage
				if !cov.Complete() {
					t.Fatalf("shards=%d: transient faults lost shards: %+v", shards, cov)
				}
				// The faults must actually have fired, or this test proves
				// nothing: both scripted crashes recover (3 restarts total).
				if c := tm.Counter("shard_restarts_total").Value(); c != 3 {
					t.Errorf("shards=%d: shard_restarts_total = %d, want 3", shards, c)
				}
				if got := renderCampaign(res.Vantages[0].Campaign); got != golden {
					t.Errorf("shards=%d: faulted campaign differs from the fault-free reference", shards)
				}
			}
		})
	}
}

// TestOneSpecFaultsEveryLayer: one parsed spec turns on storage faults
// under every shard journal, a shard worker crash and a campaign interrupt,
// all at once, on a 2-week, 4-shard journaled campaign. The interrupted run is resumed with the
// same plan, and the tables must be byte-identical to the fault-free run —
// with every site having actually injected something.
func TestOneSpecFaultsEveryLayer(t *testing.T) {
	w := fixture(t)
	weeks := []int{1, 2}
	golden, err := Run(w, Config{Shards: 4, Weeks: weeks, ForWeek: baseConfig(scanner.EngineFast, 2)})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustFaults(t, "seed:3,fs.short-write:0.05,fs.write-err:0.1,fs.sync-err:0.05,shard.crash:1@40,scan.interrupt:300")
	cfg := Config{
		Shards: 4, Weeks: weeks, Checkpoint: t.TempDir(),
		MaxRestarts: 2, RestartBackoff: fastBackoff, Faults: plan, Logf: t.Logf,
		ForWeek: func(week int) scanner.Config {
			sc := baseConfig(scanner.EngineFast, 2)(week)
			sc.Faults = plan
			sc.Journal = resilience.JournalConfig{FS: resilience.NewFaultFS(nil, plan), SegmentBytes: 4096, SyncEvery: 8}
			return sc
		},
	}
	if _, err := Run(w, cfg); !errors.Is(err, scanner.ErrInterrupted) {
		t.Fatalf("faulted run returned %v, want the injected interrupt", err)
	}
	// The plan's scan counter has moved past the interrupt, so the same plan
	// lets the resumed run finish.
	cfg.Resume = true
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if cov := res.Vantages[0].Coverage; !cov.Complete() {
		t.Fatalf("transient faults lost shards: %+v", cov)
	}
	if got, want := renderCampaign(res.Vantages[0].Campaign), renderCampaign(golden.Vantages[0].Campaign); got != want {
		t.Error("faulted and resumed campaign differs from the fault-free reference")
	}
	for _, site := range []fault.Site{fault.FS, fault.Shard, fault.Scan} {
		if plan.Injected(site, fault.AnyKind) == 0 {
			t.Errorf("site %s injected nothing", site)
		}
	}
}
