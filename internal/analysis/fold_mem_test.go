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
// RunStream and folded by Accumulator.Add. The recorded figure is 0.20 here
// and ≈ 0.19 on the benchmark's campaign — nearly all of it the one DNS
// error text per failed lookup; the rest is headroom for the map growth of
// a small week and a new pipeline's first batches.
const fastDomainAllocCeiling = 0.4

// TestFastDomainAllocCeiling is the fast path's twin of the emulated
// engine's ceilings: a seeded fast week, scanned through the streaming
// pipeline and folded into a campaign's accumulator, stays within 0.4
// allocations per domain, so a regrowth fails tier-1, not only the
// benchmark.
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
	week(1) // warm: the campaign's longitudinal tracks and the code paths
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	week(2)
	runtime.ReadMemStats(&m1)
	got := float64(m1.Mallocs-m0.Mallocs) / float64(world.NumDomains())
	t.Logf("%.2f allocations per fast domain over %d domains (ceiling %.1f)", got, world.NumDomains(), fastDomainAllocCeiling)
	if got > fastDomainAllocCeiling {
		t.Errorf("a fast domain scanned and folded allocates %.2f times, ceiling %.1f", got, fastDomainAllocCeiling)
	}
}

// journaledDomainAllocCeiling bounds the same domain when the week is
// journaled as well: the journal encodes each result from its batch slot
// and writes a batch at a time, so journaling adds no allocation per
// domain, only each week's handle, segment and batch buffer (0.21 recorded).
// A heap copy of each result for the journal would cost one more.
const journaledDomainAllocCeiling = 0.6

// TestJournaledDomainAllocCeiling is TestFastDomainAllocCeiling with a
// checkpoint journal: a seeded fast week, scanned through the streaming
// pipeline into a journal and folded into a campaign's accumulator, stays
// within 0.6 allocations per domain.
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
