package shard

import (
	"runtime"
	"testing"

	"quicspin/internal/analysis"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// mergeAllocCeiling bounds the runner's marginal allocations per added
// domain-week: what a campaign allocates beyond its fixed set-up when the
// population grows. The ranges merge in memory, so a domain-week costs the
// scan's and the folds' amortised map growth only, 0.0023 recorded. A merge
// that round-tripped each range's accumulator through the wire format would
// decode every host name and IP string again: 0.30 per domain-week.
const mergeAllocCeiling = 0.05

// TestRunMergeAllocations runs the same 2-shard, 3-week, journaled fast
// campaign over two population sizes and bounds (Δ mallocs) ÷ (Δ
// domain-weeks), so the runner's fixed costs (journals, goroutines, engines)
// cancel and what is left is the per-domain cost of the scan, the folds and
// the week merge.
func TestRunMergeAllocations(t *testing.T) {
	weeks := []int{1, 2, 3}
	campaign := func(w *websim.World) (mallocs uint64, domainWeeks int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(w, Config{
			Shards:     2,
			Weeks:      weeks,
			ForWeek:    baseConfig(scanner.EngineFast, 1),
			Checkpoint: t.TempDir(),
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Vantages[0].Coverage.Complete() {
			t.Fatal("a shard was lost")
		}
		return m1.Mallocs - m0.Mallocs, len(weeks) * w.NumDomains()
	}
	world := func(scale int) *websim.World {
		p := websim.DefaultProfile()
		p.Scale = scale
		return websim.Generate(p)
	}
	small, large := world(20_000), world(4_000)
	campaign(small) // warm: the code paths and the runtime's first-use allocations
	ms, ns := campaign(small)
	ml, nl := campaign(large)
	if nl <= ns {
		t.Fatalf("vacuous: the large world has %d domain-weeks, the small %d", nl, ns)
	}
	marginal := (float64(ml) - float64(ms)) / float64(nl-ns)
	t.Logf("%d mallocs over %d domain-weeks, %d over %d: %.4f per added domain-week (ceiling %.2f)", ms, ns, ml, nl, marginal, mergeAllocCeiling)
	if marginal > mergeAllocCeiling {
		t.Errorf("a sharded campaign allocates %.4f times per added domain-week, ceiling %.2f", marginal, mergeAllocCeiling)
	}
}

// TestLiveSnapshotAfterShardedCampaign: after a multi-week sharded campaign
// the dashboard renders the last week's Tables 1–5 exactly as the merged
// campaign does. The dashboard keeps every range's week accumulator and
// merges them on each snapshot, so a week merge that adopted one range's
// accumulator into the campaign, and then merged the other ranges into it,
// would count those ranges twice here.
func TestLiveSnapshotAfterShardedCampaign(t *testing.T) {
	w := fixture(t)
	live := analysis.NewLive()
	weeks := []int{2, 5}
	res, err := Run(w, Config{
		Shards:  2,
		Weeks:   weeks,
		ForWeek: baseConfig(scanner.EngineFast, 2),
		Live:    live,
	})
	if err != nil {
		t.Fatal(err)
	}
	camp := res.Vantages[0].Campaign
	last := camp.Weeks()[len(camp.Weeks())-1]
	want := []string{
		last.RenderOverview().String(), last.RenderOrgTable(8).String(),
		last.RenderSpinConfig().String(), last.RenderSoftwareTable().String(),
		last.RenderErrorClasses().String(),
	}
	snap := live.Snapshot()
	if snap.Week != weeks[len(weeks)-1] || snap.Shards != 2 {
		t.Errorf("dashboard shows week %d from %d shards, want week %d from 2", snap.Week, snap.Shards, weeks[len(weeks)-1])
	}
	if snap.Totals.Domains != len(weeks)*w.NumDomains() {
		t.Errorf("dashboard totals %d domains, want %d", snap.Totals.Domains, len(weeks)*w.NumDomains())
	}
	if len(snap.Tables) != len(want) {
		t.Fatalf("dashboard rendered %d tables, want %d", len(snap.Tables), len(want))
	}
	for i := range want {
		if snap.Tables[i] != want[i] {
			t.Errorf("dashboard table %d differs from the campaign's last week:\n--- dashboard ---\n%s\n--- campaign ---\n%s", i+1, snap.Tables[i], want[i])
		}
	}
}
