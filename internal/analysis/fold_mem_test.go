package analysis

import (
	"runtime"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// What one domain costs the campaign fold: a longitudinal record only if it
// spoke QUIC, and a bounded number of allocations for its scan and fold.

// TestLongFoldTracksOnlyQUIC: the campaign keeps a longitudinal record for
// exactly the domains that spoke QUIC in some week.
func TestLongFoldTracksOnlyQUIC(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 50_000
	world := websim.Generate(p)
	camp := NewCampaignAccumulator()
	quic := map[string]bool{}
	for wk := 1; wk <= 3; wk++ {
		r, err := scanner.Run(world, scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		acc := camp.StartWeek(wk, r.IPv6, world.ASDB())
		for i := range r.Domains {
			acc.Add(&r.Domains[i])
			if r.Domains[i].QUIC() {
				quic[r.Domains[i].Domain] = true
			}
		}
	}
	if len(quic) == 0 || len(quic) == world.NumDomains() {
		t.Fatalf("vacuous: %d of %d domains spoke QUIC", len(quic), world.NumDomains())
	}
	if got := len(camp.long.domains); got != len(quic) {
		t.Errorf("%d longitudinal tracks, want the %d domains with a QUIC week (of %d)", got, len(quic), world.NumDomains())
	}
	for name := range camp.long.domains {
		if !quic[name] {
			t.Errorf("track for %s, which never spoke QUIC", name)
		}
	}
}

// fastDomainAllocCeiling bounds one fast-engine domain scanned through
// RunStream and folded by Accumulator.Add. A failed lookup is recorded as a
// value naming the host the domain holds, a redirect's URL is the world's,
// and a week scans into the batch set the week before it gave back, so the
// recorded figure is 0.022 here: the fold's own map growth in a small week
// and the run's fixed set-up (engines, channels), spread over 11k domains.
const fastDomainAllocCeiling = 0.05

// fastDomainByteCeiling bounds the bytes the same domain allocates. A
// pipeline that grew a new batch set per run would cost every week its
// slabs and result slots again, several hundred KiB on this world: 42 B per
// domain, where the reused set records 3.8.
const fastDomainByteCeiling = 12

// TestFastDomainAllocCeiling is the fast path's twin of the emulated
// engine's ceilings: a seeded fast week, scanned through the streaming
// pipeline and folded into a campaign's accumulator, stays within 0.05
// allocations and 12 bytes per domain, so a regrowth fails tier-1, not only
// the benchmark.
func TestFastDomainAllocCeiling(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20_000
	world := websim.Generate(p)
	camp := NewCampaignAccumulator()
	week := func(wk int) {
		acc := camp.StartWeek(wk, false, world.ASDB())
		cfg := scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 1 + int64(wk), Workers: 1}
		if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
			t.Fatal(err)
		}
	}
	week(1) // warm: the campaign's longitudinal tracks, the code paths and the batch set
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	week(2)
	runtime.ReadMemStats(&m1)
	n := float64(world.NumDomains())
	allocs, bytes := float64(m1.Mallocs-m0.Mallocs)/n, float64(m1.TotalAlloc-m0.TotalAlloc)/n
	t.Logf("%.3f allocations and %.1f bytes per fast domain over %d domains (ceilings %.2f, %d)", allocs, bytes, world.NumDomains(), fastDomainAllocCeiling, fastDomainByteCeiling)
	if allocs > fastDomainAllocCeiling {
		t.Errorf("a fast domain scanned and folded allocates %.3f times, ceiling %.2f", allocs, fastDomainAllocCeiling)
	}
	if bytes > fastDomainByteCeiling {
		t.Errorf("a fast domain scanned and folded allocates %.1f bytes, ceiling %d", bytes, fastDomainByteCeiling)
	}
}

// journaledDomainAllocCeiling bounds the same domain when the week is
// journaled as well: the journal encodes each result from its batch slot
// and writes a batch at a time, so journaling adds no allocation per
// domain, only each week's handle, segment and batch buffer (0.03
// recorded). A heap copy of each result for the journal would cost one more.
const journaledDomainAllocCeiling = 0.1

// TestJournaledDomainAllocCeiling is TestFastDomainAllocCeiling with a
// checkpoint journal: a seeded fast week, scanned through the streaming
// pipeline into a journal and folded into a campaign's accumulator, stays
// within 0.1 allocations per domain.
func TestJournaledDomainAllocCeiling(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20_000
	world := websim.Generate(p)
	camp := NewCampaignAccumulator()
	week := func(wk int) {
		acc := camp.StartWeek(wk, false, world.ASDB())
		cfg := scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 1 + int64(wk), Workers: 1, Checkpoint: t.TempDir()}
		if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
			t.Fatal(err)
		}
	}
	week(1) // warm: the campaign's longitudinal tracks and the code paths
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	week(2)
	runtime.ReadMemStats(&m1)
	got := float64(m1.Mallocs-m0.Mallocs) / float64(world.NumDomains())
	t.Logf("%.2f allocations per journaled fast domain over %d domains (ceiling %.1f)", got, world.NumDomains(), journaledDomainAllocCeiling)
	if got > journaledDomainAllocCeiling {
		t.Errorf("a fast domain scanned, journaled and folded allocates %.2f times, ceiling %.1f", got, journaledDomainAllocCeiling)
	}
}
