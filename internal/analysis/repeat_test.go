package analysis

import (
	"bytes"
	"fmt"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// TestRepeatedRunsAgree holds the benchmark's per-rep check in tier-1: the
// same campaign, run again in the same process, delivers every population
// index in order and folds to the same bytes. It runs the longitudinal_fast
// shape (12 fast weeks into one campaign fold) and the week_emulated shape
// (week 12 on the emulated engine) five times each at two workers, over an
// eager world of each of three seeds, as the benchmark's reps do: a fresh
// registry and fold per rep, the week's scan seed the world's plus the
// week. Race builds poison recycled batches, so there a sink that read a
// result after its call would fail here too.
func TestRepeatedRunsAgree(t *testing.T) {
	const reps, workers = 5, 2
	fastWeeks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, seed := range []int64{1, 2, 3} {
		p := websim.DefaultProfile()
		p.Scale, p.Seed = 20_000, seed
		w := websim.Generate(p)
		for _, shape := range []struct {
			name   string
			engine scanner.Engine
			weeks  []int
		}{
			{"longitudinal_fast", scanner.EngineFast, fastWeeks},
			{"week_emulated", scanner.EngineEmulated, []int{12}},
		} {
			var first []byte
			for rep := range reps {
				blob, err := scanRep(w, shape.engine, shape.weeks, seed, workers)
				if err != nil {
					t.Fatalf("seed %d, %s, rep %d: %v", seed, shape.name, rep, err)
				}
				if rep == 0 {
					first = blob
				} else if !bytes.Equal(blob, first) {
					t.Fatalf("seed %d, %s, rep %d: campaign fold differs from rep 0's (%d bytes, rep 0 %d)",
						seed, shape.name, rep, len(blob), len(first))
				}
			}
		}
	}
}

// scanRep scans weeks of w into one campaign fold (a single week into one
// week's fold), checking that each week delivers population indices 0…n−1
// in order, and returns the fold's Marshal bytes.
func scanRep(w *websim.World, eng scanner.Engine, weeks []int, seed int64, workers int) ([]byte, error) {
	reg := telemetry.New()
	camp := NewCampaignAccumulator()
	var week *Accumulator
	for _, wk := range weeks {
		if len(weeks) == 1 {
			week = NewAccumulator(wk, false, w.ASDB())
		} else {
			week = camp.StartWeek(wk, false, w.ASDB())
		}
		fold, next := week.Sink(), 0
		cfg := scanner.Config{Week: wk, Engine: eng, Seed: seed + int64(wk), Workers: workers, Telemetry: reg}
		err := scanner.RunStream(w, cfg, func(i int, d *scanner.DomainResult) error {
			if i != next {
				return fmt.Errorf("week %d: population index %d delivered, want %d", wk, i, next)
			}
			next++
			return fold(i, d)
		})
		if err != nil {
			return nil, err
		}
		if next != w.NumDomains() {
			return nil, fmt.Errorf("week %d: %d of %d population indices delivered", wk, next, w.NumDomains())
		}
	}
	if len(weeks) == 1 {
		return week.Marshal(), nil
	}
	return camp.Marshal(), nil
}
