package shard

import (
	"testing"

	"quicspin/internal/analysis"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// TestShardDeterminism is the campaign-splitting analogue of the scanner's
// worker-count invariance goldens: the rendered Tables 1–5 and Figs. 2–4
// must be byte-identical to a plain week loop (StartWeek + RunStream, no
// runner at all) for shard counts 0 (unsharded), 1, 2 and 8, worker counts 1
// and 4, and both engines — the per-domain rng is derived from (seed, week,
// domain), sink indices are population-global, and merging is the analysis
// merge algebra, so nothing about the split may leak into the output. Every
// row merges its ranges' accumulators in memory, and one row journals with a
// one-week retention horizon between the weeks.
func TestShardDeterminism(t *testing.T) {
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
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			p := websim.DefaultProfile()
			p.Scale = eng.scale
			w := websim.Generate(p)
			forWeek := func(workers int) func(week int) scanner.Config {
				return func(week int) scanner.Config {
					return scanner.Config{Engine: eng.engine, Seed: 11, Workers: workers}
				}
			}
			plain := analysis.NewCampaignAccumulator()
			for _, week := range []int{1, 3} {
				sc := forWeek(1)(week)
				sc.Week = week
				if err := scanner.RunStream(w, sc, plain.StartWeek(week, false, w.ASDB()).Sink()); err != nil {
					t.Fatal(err)
				}
			}
			golden := renderCampaign(plain)
			for _, shards := range []int{0, 1, 2, 8} {
				for _, workers := range []int{1, 4} {
					cfg := Config{
						Shards:  shards,
						Weeks:   []int{1, 3},
						ForWeek: forWeek(workers),
					}
					if shards == 2 && workers == 4 {
						cfg.Checkpoint, cfg.RetainWeeks = t.TempDir(), 1
					}
					res, err := Run(w, cfg)
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
					}
					if got := renderCampaign(res.Vantages[0].Campaign); got != golden {
						t.Errorf("shards=%d workers=%d: rendered campaign differs from the plain week loop", shards, workers)
					}
				}
			}
		})
	}
}
