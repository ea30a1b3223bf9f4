package campaign

import (
	"errors"
	"fmt"
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

var (
	fixOnce  sync.Once
	fixState *websim.World
)

func fixture(t *testing.T) *websim.World {
	t.Helper()
	fixOnce.Do(func() {
		p := websim.DefaultProfile()
		p.Scale = 200_000
		fixState = websim.Generate(p)
	})
	return fixState
}

// renderCampaign renders everything follow mode must reproduce
// byte-for-byte against the one-shot loop: Tables 1–5 per week, the Fig. 2
// longitudinal histogram, and the Fig. 3/4 accuracy reports.
func renderCampaign(c *analysis.CampaignAccumulator) string {
	var b strings.Builder
	b.WriteString(analysis.RenderLongitudinal(c.Longitudinal()).String())
	b.WriteString(c.RenderAccuracy(3))
	b.WriteString(c.RenderAccuracy(4))
	for _, a := range c.Weeks() {
		b.WriteString(a.RenderOverview().String())
		b.WriteString(a.RenderOrgTable(8).String())
		b.WriteString(a.RenderSpinConfig().String())
		b.WriteString(a.RenderSoftwareTable().String())
		b.WriteString(a.RenderErrorClasses().String())
	}
	return b.String()
}

// oneShot is the reference Follow is held to: the plainest possible week
// loop — one shared CampaignAccumulator, StartWeek + RunStream per week, no
// isolation, retries or journal. spinscan itself runs every mode through
// Follow, so this loop exists only here.
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

// TestFollowMatchesOneShot is the tentpole determinism proof: Follow over
// N weeks is byte-identical to the plain reference loop above —
// both engines, 1 and 4 workers, with and without storage faults on the
// follow side (the reference never journals at all).
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

					fb := base
					if faults {
						fb.Checkpoint = t.TempDir()
						fb.Journal = resilience.JournalConfig{
							FS:           resilience.NewFaultFS(nil, storageFaults(t, "seed:11,fs.short-write:0.1,fs.write-err:0.1,fs.sync-err:0.1,fs.open-err:0.05")),
							SegmentBytes: 4096,
							SyncEvery:    8,
						}
					}
					res, err := Follow(Config{
						World: w, Base: fb, SeedBase: seedBase, MaxWeeks: weeks, WeekRestarts: 2,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.WeeksDone != weeks || res.Interrupted {
						t.Fatalf("follow: %d weeks done (interrupted=%v), want %d", res.WeeksDone, res.Interrupted, weeks)
					}
					if got := renderCampaign(res.Campaign); got != want {
						t.Errorf("follow tables diverge from one-shot (-want +got):\n%s", diffHead(want, got))
					}
				})
			}
		}
	}
}

// storageFaults parses a fault spec the way spinscan -faults does.
func storageFaults(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
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
// trip the degraded state, with telemetry attached. The campaign must
// finish all weeks, raise checkpoint_degraded and checkpoint_errors_total,
// record zero panics, and still produce byte-identical tables.
func TestFollowChaosCampaign(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 4}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))

	reg := telemetry.New()
	fb := base
	fb.Telemetry = reg
	fb.Checkpoint = t.TempDir()
	plan := storageFaults(t, "seed:3,fs.short-write:0.2,fs.write-err:0.35,fs.sync-err:0.3,fs.open-err:0.2")
	fb.Journal = resilience.JournalConfig{
		FS: resilience.NewFaultFS(nil, plan), SegmentBytes: 2048, SyncEvery: 4, DegradeAfter: 3, ProbeEvery: 8,
	}
	res, err := Follow(Config{
		World: w, Base: fb, SeedBase: seedBase, MaxWeeks: weeks, WeekRestarts: 2,
		Compact: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WeeksDone != weeks {
		t.Fatalf("chaos campaign finished %d weeks, want %d", res.WeeksDone, weeks)
	}
	if got := renderCampaign(res.Campaign); got != want {
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
}

// TestFollowInterruptResume: SIGTERM-style interrupt mid-week-2, then a
// resumed follow run completes the campaign byte-identically.
func TestFollowInterruptResume(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 4}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))

	dir := t.TempDir()
	fb := base
	fb.Checkpoint = dir
	// The plan counts completed domains across weeks: die mid-week-2.
	fb.Faults = fault.New(1, fault.Rule{Site: fault.Scan, Kind: fault.Interrupt, P: 1, After: w.NumDomains() * 3 / 2, Times: 1})
	res, err := Follow(Config{World: w, Base: fb, SeedBase: seedBase, MaxWeeks: weeks})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.WeeksDone != 1 {
		t.Fatalf("interrupted run: weeksDone=%d interrupted=%v, want 1/true", res.WeeksDone, res.Interrupted)
	}

	rb := base
	rb.Checkpoint = dir
	rb.Resume = true
	res2, err := Follow(Config{World: w, Base: rb, SeedBase: seedBase, MaxWeeks: weeks})
	if err != nil {
		t.Fatal(err)
	}
	if res2.WeeksDone != weeks {
		t.Fatalf("resumed run finished %d weeks, want %d", res2.WeeksDone, weeks)
	}
	if got := renderCampaign(res2.Campaign); got != want {
		t.Errorf("resumed follow tables diverge:\n%s", diffHead(want, got))
	}
}

// TestFollowRetention: between-weeks compaction prunes journal records
// outside the retention horizon without touching the results.
func TestFollowRetention(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 3
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 2}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))

	dir := t.TempDir()
	fb := base
	fb.Checkpoint = dir
	res, err := Follow(Config{
		World: w, Base: fb, SeedBase: seedBase, MaxWeeks: weeks, RetainWeeks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCampaign(res.Campaign); got != want {
		t.Errorf("retention-pruned follow tables diverge:\n%s", diffHead(want, got))
	}
	if res.Compactions.Dropped == 0 {
		t.Error("retention compaction dropped nothing across 3 weeks")
	}
	replayed, _, err := resilience.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != w.NumDomains() {
		t.Errorf("journal holds %d records after retention, want %d (week 3 only)", len(replayed), w.NumDomains())
	}
	for key := range replayed {
		if keyWeek(key) != weeks {
			t.Fatalf("stale key %q survived RetainWeeks=1", key)
		}
	}
}

// flakyReadDirFS fails the first ReadDir call (the journal open of week
// 1's first attempt), so the scheduler's restart budget gets exercised
// with a recovery.
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

// TestFollowWeekRestartRecovers: a week attempt that fails outright is
// retried from the journal and the campaign still matches one-shot.
func TestFollowWeekRestartRecovers(t *testing.T) {
	w := fixture(t)
	const seedBase, weeks = 7, 2
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 2}
	want := renderCampaign(oneShot(t, w, base, seedBase, weeks))

	fb := base
	fb.Checkpoint = t.TempDir()
	fb.Journal = resilience.JournalConfig{FS: &flakyReadDirFS{FS: resilience.OSFS, fails: 1}}
	res, err := Follow(Config{
		World: w, Base: fb, SeedBase: seedBase, MaxWeeks: weeks, WeekRestarts: 1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	if got := renderCampaign(res.Campaign); got != want {
		t.Errorf("restarted follow tables diverge:\n%s", diffHead(want, got))
	}
}

// TestFollowRestartBudgetExhausted: a week that keeps failing consumes the
// budget and surfaces the underlying error.
func TestFollowRestartBudgetExhausted(t *testing.T) {
	w := fixture(t)
	fb := scanner.Config{Engine: scanner.EngineFast, Workers: 2}
	fb.Checkpoint = t.TempDir()
	fb.Journal = resilience.JournalConfig{FS: &flakyReadDirFS{FS: resilience.OSFS, fails: 1 << 30}}
	res, err := Follow(Config{
		World: w, Base: fb, SeedBase: 7, MaxWeeks: 2, WeekRestarts: 2, Logf: t.Logf,
	})
	if err == nil {
		t.Fatal("follow succeeded with permanently dead storage metadata")
	}
	if !strings.Contains(err.Error(), "week 1 failed after 3 attempts") {
		t.Errorf("err = %v, want week-1 budget exhaustion", err)
	}
	if res.WeeksDone != 0 || res.Restarts != 2 {
		t.Errorf("weeksDone=%d restarts=%d, want 0/2", res.WeeksDone, res.Restarts)
	}
}

// TestFollowRejectsShardRange: follow drives the unsharded path only.
func TestFollowRejectsShardRange(t *testing.T) {
	w := fixture(t)
	_, err := Follow(Config{
		World: w,
		Base:  scanner.Config{Engine: scanner.EngineFast, Shard: scanner.ShardRange{Start: 0, End: 5}},
	})
	if err == nil {
		t.Fatal("follow accepted a shard range")
	}
}

// TestKeyWeek covers the retention filter's key parser.
func TestKeyWeek(t *testing.T) {
	cases := []struct {
		key  string
		want int
	}{
		{"w12/v4/example.org", 12},
		{"w1/v6/a.b", 1},
		{"w/v4/x", -1},
		{"bogus", -1},
		{"", -1},
		{"wx/v4/y", -1},
	}
	for _, c := range cases {
		if got := keyWeek(c.key); got != c.want {
			t.Errorf("keyWeek(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

// TestParseTunables covers the SIGHUP-reloadable settings grammar.
func TestParseTunables(t *testing.T) {
	tn, err := ParseTunables(strings.NewReader(`
# runtime tunables
alerts            = error-rate<=0.05,domains-per-sec>=100
progress          = 30s
breaker-threshold = 5
breaker-cooldown  = 45s
`))
	if err != nil {
		t.Fatal(err)
	}
	if !tn.HasAlerts || tn.Alerts != "error-rate<=0.05,domains-per-sec>=100" {
		t.Errorf("alerts = %q (has=%v)", tn.Alerts, tn.HasAlerts)
	}
	if !tn.HasProgress || tn.Progress.Seconds() != 30 {
		t.Errorf("progress = %v (has=%v)", tn.Progress, tn.HasProgress)
	}
	if !tn.HasBreakerThreshold || tn.BreakerThreshold != 5 {
		t.Errorf("breaker-threshold = %d (has=%v)", tn.BreakerThreshold, tn.HasBreakerThreshold)
	}
	if !tn.HasBreakerCooldown || tn.BreakerCooldown.Seconds() != 45 {
		t.Errorf("breaker-cooldown = %v (has=%v)", tn.BreakerCooldown, tn.HasBreakerCooldown)
	}

	partial, err := ParseTunables(strings.NewReader("progress = 1m\n"))
	if err != nil {
		t.Fatal(err)
	}
	if partial.HasAlerts || partial.HasBreakerThreshold || partial.HasBreakerCooldown {
		t.Error("absent keys reported as present")
	}
	for _, bad := range []string{
		"nonsense\n", "unknown = 1\n", "progress = -5s\n",
		"breaker-threshold = x\n", "breaker-threshold = -1\n", "breaker-cooldown = nope\n",
	} {
		if _, err := ParseTunables(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTunables(%q) succeeded, want error", bad)
		}
	}
}
