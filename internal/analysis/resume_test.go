package analysis

import (
	"errors"
	"strings"
	"testing"

	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// renderTables runs one campaign week and renders the paper's Table 1 and
// Table 3 — the byte-identity currency of the determinism gates.
func renderTables(t *testing.T, w *websim.World, cfg scanner.Config) (string, string) {
	t.Helper()
	r, err := scanner.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAccumulator(r.Week, r.IPv6, w.ASDB()).AddResult(r)
	return a.RenderOverview().String(), a.RenderSpinConfig().String()
}

// TestResumeIdentical is the acceptance gate for checkpoint/resume: a
// campaign interrupted at ~50% and resumed from its journal must render
// Table 1 and Table 3 byte-identical to an uninterrupted run — for the
// resumed run scanning the remainder with a different worker count than
// the interrupted one used.
func TestResumeIdentical(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 50_000
	w := websim.Generate(p)
	base := scanner.Config{Week: 3, Engine: scanner.EngineFast, Seed: 7}

	for _, workers := range []int{1, 4} {
		ref := base
		ref.Workers = workers
		refOverview, refConfig := renderTables(t, w, ref)
		if !strings.Contains(refOverview, "CZDS") || !strings.Contains(refConfig, "All Zero") {
			t.Fatalf("reference tables look wrong:\n%s\n%s", refOverview, refConfig)
		}

		dir := t.TempDir()
		interrupted := ref
		interrupted.Checkpoint = dir
		interrupted.Faults = interruptHalfway(w)
		if _, err := scanner.Run(w, interrupted); !errors.Is(err, scanner.ErrInterrupted) {
			t.Fatalf("interrupted run error = %v, want ErrInterrupted", err)
		}

		resumed := ref
		resumed.Checkpoint = dir
		resumed.Resume = true
		resumed.Workers = 5 - workers // resume under a different sharding
		gotOverview, gotConfig := renderTables(t, w, resumed)
		if gotOverview != refOverview {
			t.Errorf("Workers=%d: Table 1 differs after resume:\n--- full ---\n%s\n--- resumed ---\n%s",
				workers, refOverview, gotOverview)
		}
		if gotConfig != refConfig {
			t.Errorf("Workers=%d: Table 3 differs after resume:\n--- full ---\n%s\n--- resumed ---\n%s",
				workers, refConfig, gotConfig)
		}
	}
}

// interruptHalfway is a plan that kills a run once half the population has
// completed.
func interruptHalfway(w *websim.World) *fault.Plan {
	return fault.New(1, fault.Rule{Site: fault.Scan, Kind: fault.Interrupt, P: 1, After: len(w.Domains) / 2, Times: 1})
}

// TestResumeIdenticalEmulated covers the packet-level engine at a smaller
// scale: journal replay and the rescanned remainder must reproduce the
// uninterrupted tables byte-for-byte despite per-worker event loops.
func TestResumeIdenticalEmulated(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 400_000
	w := websim.Generate(p)
	base := scanner.Config{Week: 2, Engine: scanner.EngineEmulated, Seed: 11, Workers: 4}
	refOverview, refConfig := renderTables(t, w, base)

	dir := t.TempDir()
	interrupted := base
	interrupted.Checkpoint = dir
	interrupted.Faults = interruptHalfway(w)
	if _, err := scanner.Run(w, interrupted); !errors.Is(err, scanner.ErrInterrupted) {
		t.Fatalf("interrupted run error = %v, want ErrInterrupted", err)
	}

	resumed := base
	resumed.Checkpoint = dir
	resumed.Resume = true
	resumed.Workers = 2
	gotOverview, gotConfig := renderTables(t, w, resumed)
	if gotOverview != refOverview || gotConfig != refConfig {
		t.Errorf("emulated tables differ after resume:\n--- full ---\n%s\n%s\n--- resumed ---\n%s\n%s",
			refOverview, refConfig, gotOverview, gotConfig)
	}
}

// TestTableDeterminismUnderRetries extends the worker-invariance gate to
// campaigns with transient failures and retries: injected DNS timeouts
// plus a retry budget must leave Table 1 and Table 3 byte-identical for
// Workers ∈ {1, 4, 16}.
func TestTableDeterminismUnderRetries(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 50_000
	w := websim.Generate(p)
	base := scanner.Config{
		Week: 3, Engine: scanner.EngineFast, Seed: 7,
		Retry: resilience.RetryPolicy{MaxRetries: 2},
		Faults: fault.New(7,
			fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.33, Times: 1},
			fault.Rule{Site: fault.DNS, Kind: fault.Timeout, P: 0.33, Times: 2}),
	}
	ref := base
	ref.Workers = 1
	refOverview, refConfig := renderTables(t, w, ref)
	for _, workers := range []int{4, 16} {
		cfg := base
		cfg.Workers = workers
		gotOverview, gotConfig := renderTables(t, w, cfg)
		if gotOverview != refOverview || gotConfig != refConfig {
			t.Errorf("tables differ between Workers=1 and Workers=%d under retries", workers)
		}
	}
}
