package shard

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"quicspin/internal/analysis"
	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// shardCounts are the two shapes every week-loop property is held to: the
// unsharded run (one range) and a 4-range scan-out.
var shardCounts = []int{0, 4}

// oneShot is the reference Run is held to: the plainest possible week loop —
// one shared CampaignAccumulator, StartWeek + RunStream per week, no
// ranges, isolation, retries or journal. spinscan itself runs every mode
// through Run, so this loop exists only here.
func oneShot(t *testing.T, w *websim.World, base scanner.Config, seedBase int64, weeks int) *analysis.CampaignAccumulator {
	t.Helper()
	camp := analysis.NewCampaignAccumulator()
	for wk := 1; wk <= weeks; wk++ {
		cfg := base
		cfg.Week = wk
		cfg.Seed = seedBase + int64(wk)
		acc := camp.StartWeek(wk, cfg.IPv6, w.ASDB())
		if err := scanner.RunStream(w, cfg, acc.Sink()); err != nil {
			t.Fatalf("one-shot week %d: %v", wk, err)
		}
	}
	return camp
}

// followConfig is the campaign the one-shot reference describes, as a Run
// configuration: weeks 1..weeks, seed derived as seedBase + week.
func followConfig(base scanner.Config, seedBase int64, weeks, shards int) Config {
	cfg := Config{
		Shards: shards, RestartBackoff: fastBackoff,
		ForWeek: func(week int) scanner.Config {
			sc := base
			sc.Seed = seedBase + int64(week)
			return sc
		},
	}
	for wk := 1; wk <= weeks; wk++ {
		cfg.Weeks = append(cfg.Weeks, wk)
	}
	return cfg
}

// journalDirs lists the journal directories one IPv4 week of a
// single-vantage campaign of the given shape writes under its checkpoint
// root.
func journalDirs(root string, week, shards int) []string {
	var dirs []string
	for si := 0; si < max(shards, 1); si++ {
		dirs = append(dirs, filepath.Join(root, fmt.Sprintf("w%d-v4", week), "baseline", fmt.Sprintf("shard-%03d", si)))
	}
	return dirs
}

// TestFollowMatchesOneShot is the week loop's determinism proof: Run over N
// weeks is byte-identical to the plain reference loop above — both engines,
// 1 and 4 workers, unsharded and 4 shards, with and without storage faults
// on the runner's side (the reference never journals at all).
func TestFollowMatchesOneShot(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	for _, eng := range []struct {
		name string
		e    scanner.Engine
	}{{"emulated", scanner.EngineEmulated}, {"fast", scanner.EngineFast}} {
		for _, workers := range []int{1, 4} {
			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/faults=%v", eng.name, workers, faults)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					base := scanner.Config{Engine: eng.e, Workers: workers}
					want := renderCampaign(oneShot(t, w, base, seedBase, weeks))
					for _, shards := range shardCounts {
						t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
							fb, ckpt := base, ""
							if faults {
								ckpt = t.TempDir()
								fb.Journal = resilience.JournalConfig{
									FS:           resilience.NewFaultFS(nil, mustFaults(t, "seed:11,fs.short-write:0.1,fs.write-err:0.1,fs.sync-err:0.1,fs.open-err:0.05")),
									SegmentBytes: 4096,
									SyncEvery:    8,
								}
							}
							cfg := followConfig(fb, seedBase, weeks, shards)
							cfg.Checkpoint, cfg.MaxRestarts = ckpt, 2
							res, err := Run(w, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got := renderCampaign(res.Vantages[0].Campaign); got != want {
								t.Errorf("campaign tables diverge from one-shot (-want +got):\n%s", diffHead(want, got))
							}
						})
					}
				})
			}
		}
	}
}

// diffHead returns the first diverging lines of two renderings.
func diffHead(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length: want %d lines, got %d", len(wl), len(gl))
}

// TestFollowChaosCampaign is the acceptance chaos run: a full storage
// fault plan (ENOSPC + EIO + fsync failure + torn writes) hot enough to
// trip the degraded state, with telemetry attached and expired weeks
// removed between weeks. The campaign must finish all weeks, raise
// checkpoint_degraded and checkpoint_errors_total, record zero panics, and
// still produce byte-identical tables.
func TestFollowChaosCampaign(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 4}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := telemetry.New()
			plan := mustFaults(t, "seed:3,fs.short-write:0.2,fs.write-err:0.35,fs.sync-err:0.3,fs.open-err:0.2")
			fb := base
			fb.Telemetry = reg
			fb.Journal = resilience.JournalConfig{
				FS: resilience.NewFaultFS(nil, plan), SegmentBytes: 2048, SyncEvery: 4,
			}
			cfg := followConfig(fb, seedBase, weeks, shards)
			cfg.Checkpoint, cfg.RetainWeeks, cfg.MaxRestarts, cfg.Logf = t.TempDir(), 1, 2, t.Logf
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderCampaign(res.Vantages[0].Campaign); got != want {
				t.Errorf("chaos tables diverge from fault-free reference:\n%s", diffHead(want, got))
			}
			if plan.Injected(fault.FS, fault.AnyKind) == 0 {
				t.Fatal("fault plan injected nothing")
			}
			if v := reg.Counter("scan_panics_total").Value(); v != 0 {
				t.Errorf("scan_panics_total = %d, want 0", v)
			}
			if v := reg.Counter("checkpoint_errors_total").Value(); v == 0 {
				t.Error("checkpoint_errors_total = 0 despite storage chaos")
			}
			// With WriteErr at 0.35 the degraded breaker must have tripped; the
			// gauge may have cleared again if a probe landed near the end, so
			// accept either it being raised now or the skip counter proving it was.
			degraded := reg.Gauge("scan_checkpoint_degraded").Value() == 1
			skipped := reg.Gauge("journal_appends_skipped").Value() > 0
			if !degraded && !skipped {
				t.Error("degraded state never raised: scan_checkpoint_degraded = 0 and journal_appends_skipped = 0")
			}
		})
	}
}

// TestFollowInterruptResume: an until-interrupted service is stopped
// mid-week-2 — the in-flight week is not merged — then a resumed run
// completes the campaign byte-identically.
func TestFollowInterruptResume(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 4}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			fb := base
			// The plan counts completed domains across ranges and weeks: die
			// mid-week-2.
			fb.Faults = fault.New(1, fault.Rule{Site: fault.Scan, Kind: fault.Interrupt, P: 1, After: w.NumDomains() * 3 / 2, Times: 1})
			cfg := followConfig(fb, seedBase, 1, shards)
			cfg.UntilInterrupted, cfg.Interrupt, cfg.Checkpoint = true, make(chan struct{}), dir
			res, err := Run(w, cfg)
			if !errors.Is(err, scanner.ErrInterrupted) {
				t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
			}
			if done := len(res.Vantages[0].Campaign.Weeks()); done != 1 {
				t.Fatalf("interrupted run merged %d weeks, want 1 (the in-flight week is never merged)", done)
			}

			cfg = followConfig(base, seedBase, weeks, shards)
			cfg.Checkpoint, cfg.Resume = dir, true
			res, err = Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderCampaign(res.Vantages[0].Campaign); got != want {
				t.Errorf("resumed tables diverge:\n%s", diffHead(want, got))
			}
		})
	}
}

// TestFollowRetention: after each week, the week directories outside the
// retention horizon are removed whole, without touching the results; what
// is left is the last week's journal, complete.
func TestFollowRetention(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 2}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := followConfig(base, seedBase, weeks, shards)
			cfg.Checkpoint, cfg.RetainWeeks = t.TempDir(), 1
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderCampaign(res.Vantages[0].Campaign); got != want {
				t.Errorf("retention-pruned tables diverge:\n%s", diffHead(want, got))
			}
			left, err := resilience.OSFS.ReadDir(cfg.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if wantLeft := []string{fmt.Sprintf("w%d-v4", weeks)}; !reflect.DeepEqual(left, wantLeft) {
				t.Fatalf("checkpoint root holds %v after RetainWeeks=1, want %v", left, wantLeft)
			}
			records := 0
			for _, dir := range journalDirs(cfg.Checkpoint, weeks, shards) {
				replayed, _, err := resilience.Replay(dir)
				if err != nil {
					t.Fatal(err)
				}
				records += len(replayed)
			}
			if records != w.NumDomains() {
				t.Errorf("week %d journals hold %d records, want %d", weeks, records, w.NumDomains())
			}
		})
	}
}

// openLog records every journal segment a scan opens for reading, by week.
type openLog struct {
	mu    sync.Mutex
	opens map[int][]string
}

// weekFS is the filesystem one week's scans read their journals through.
type weekFS struct {
	resilience.FS
	log  *openLog
	week int
}

func (f weekFS) Open(path string) (io.ReadCloser, error) {
	f.log.mu.Lock()
	f.log.opens[f.week] = append(f.log.opens[f.week], path)
	f.log.mu.Unlock()
	return f.FS.Open(path)
}

// TestResumeReadsOneWeek: resuming a finished campaign replays, for each
// week, only that week's segments — a week's scans never read another
// week's journal — and renders the tables a plain run does.
func TestResumeReadsOneWeek(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 2}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			cfg := followConfig(base, seedBase, weeks, shards)
			cfg.Checkpoint = dir
			if _, err := Run(w, cfg); err != nil {
				t.Fatal(err)
			}

			log := &openLog{opens: map[int][]string{}}
			cfg = followConfig(base, seedBase, weeks, shards)
			forWeek := cfg.ForWeek
			cfg.ForWeek = func(week int) scanner.Config {
				sc := forWeek(week)
				sc.Journal.FS = weekFS{FS: resilience.OSFS, log: log, week: week}
				return sc
			}
			cfg.Checkpoint, cfg.Resume = dir, true
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderCampaign(res.Vantages[0].Campaign); got != want {
				t.Errorf("resumed tables diverge:\n%s", diffHead(want, got))
			}
			for wk := 1; wk <= weeks; wk++ {
				own := filepath.Join(dir, fmt.Sprintf("w%d-v4", wk)) + string(filepath.Separator)
				if len(log.opens[wk]) < max(shards, 1) {
					t.Errorf("week %d opened %d segments, want at least one per range", wk, len(log.opens[wk]))
				}
				for _, path := range log.opens[wk] {
					if !strings.HasPrefix(path, own) {
						t.Errorf("week %d's scans opened %s, outside %s", wk, path, own)
						break
					}
				}
			}
		})
	}
}

// flakyReadDirFS fails its first ReadDir calls (journal opens), so the
// restart budget gets exercised.
type flakyReadDirFS struct {
	resilience.FS
	mu    sync.Mutex
	fails int
}

func (f *flakyReadDirFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fails > 0 {
		f.fails--
		return nil, errors.New("readdir: transient storage failure (injected)")
	}
	return f.FS.ReadDir(dir)
}

// TestFollowWeekRestartRecovers: a scan attempt that fails outright is
// retried from the journal and the campaign still matches one-shot.
func TestFollowWeekRestartRecovers(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 2
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 2}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fb := base
			fb.Journal = resilience.JournalConfig{FS: &flakyReadDirFS{FS: resilience.OSFS, fails: 1}}
			cfg := followConfig(fb, seedBase, weeks, shards)
			cfg.Checkpoint, cfg.MaxRestarts, cfg.Logf = t.TempDir(), 1, t.Logf
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			restarts := 0
			for _, st := range res.Vantages[0].Coverage.Shards {
				restarts += st.Restarts
			}
			if restarts != 1 {
				t.Errorf("restarts = %d, want 1", restarts)
			}
			if got := renderCampaign(res.Vantages[0].Campaign); got != want {
				t.Errorf("restarted tables diverge:\n%s", diffHead(want, got))
			}
		})
	}
}

// TestFollowRestartBudgetExhausted: scans that keep failing consume the
// budget, and with nothing left to merge the underlying error surfaces.
func TestFollowRestartBudgetExhausted(t *testing.T) {
	w := fixture(t)
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := telemetry.New()
			fb := scanner.Config{Engine: scanner.EngineFast, Workers: 2}
			fb.Journal = resilience.JournalConfig{FS: &flakyReadDirFS{FS: resilience.OSFS, fails: 1 << 30}}
			cfg := followConfig(fb, 7, 2, shards)
			cfg.Checkpoint, cfg.MaxRestarts, cfg.Telemetry, cfg.Logf = t.TempDir(), 2, reg, t.Logf
			res, err := Run(w, cfg)
			if err == nil {
				t.Fatal("campaign succeeded with permanently dead storage metadata")
			}
			for _, part := range []string{"week 1", "after 2 restart(s)", "readdir"} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("err = %v, want week-1 budget exhaustion naming %q", err, part)
				}
			}
			if done := len(res.Vantages[0].Campaign.Weeks()); done != 0 {
				t.Errorf("%d weeks merged, want 0", done)
			}
			if got, want := reg.Counter("shard_restarts_total").Value(), int64(2*max(shards, 1)); got != want {
				t.Errorf("shard_restarts_total = %d, want %d", got, want)
			}
		})
	}
}

// TestDirWeek covers the retention pass's week directory parser: only the
// names weekDir writes parse, so nothing else under the checkpoint root is
// ever removed.
func TestDirWeek(t *testing.T) {
	cases := []struct {
		name string
		week int
		ok   bool
	}{
		{"w12-v4", 12, true},
		{"w1-v6", 1, true},
		{"w-v4", 0, false},
		{"w3-v5", 0, false},
		{"w03-v4", 0, false},
		{"w+3-v4", 0, false},
		{"w3", 0, false},
		{"baseline", 0, false},
		{"shard-000-000001.jsonl", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		if wk, ok := dirWeek(c.name); wk != c.week || ok != c.ok {
			t.Errorf("dirWeek(%q) = %d, %v; want %d, %v", c.name, wk, ok, c.week, c.ok)
		}
	}
}
