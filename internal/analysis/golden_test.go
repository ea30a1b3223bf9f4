package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// The golden suite pins every table and figure the pipeline renders —
// scanner.RunStream feeding an Accumulator — to text committed under
// testdata/: any change to worker scheduling, delivery order, the folds or
// the renderers shows up here as a line diff. (The text was first recorded
// against an independent strided-worker, whole-week implementation that
// rendered the same bytes.) After an intended output change, regenerate with
//
//	go test ./internal/analysis -run 'Golden|LazyWorld' -update
//
// and review the testdata diff like code.
var update = flag.Bool("update", false, "rewrite the golden renderings under testdata/ from the current output")

// updated records which golden files this process already rewrote, so with
// -update the first rendering of a file is recorded and every later one
// (another worker count) is still compared against it.
var updated = map[string]bool{}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update && !updated[name] {
		updated[name] = true
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the committed rendering:\n%s", name, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ by position; the renderings are
// fixed-layout tables, so a positional diff reads as well as an LCS one.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// renderStreamWeek renders one week's Tables 1–5 and Figs. 3–4 in
// spinscan's summary order.
func renderStreamWeek(a *Accumulator) string {
	out := a.RenderOverview().String()
	out += a.RenderOrgTable(8).String()
	out += a.RenderSpinConfig().String()
	out += a.RenderSoftwareTable().String()
	out += a.RenderErrorClasses().String()
	out += a.RenderAccuracy(3)
	out += a.RenderAccuracy(4)
	return out
}

// streamWeek scans one week through RunStream into a fresh accumulator.
func streamWeek(t *testing.T, world *websim.World, cfg scanner.Config) *Accumulator {
	t.Helper()
	acc := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
	if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
		t.Fatalf("RunStream workers=%d: %v", cfg.Workers, err)
	}
	return acc
}

func TestGoldenFastWeek(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 2000
	world := websim.Generate(p)
	for _, workers := range []int{1, 4, 16} {
		cfg := scanner.Config{Week: 5, Engine: scanner.EngineFast, Seed: 42, Workers: workers}
		checkGolden(t, "fast_week5.golden", renderStreamWeek(streamWeek(t, world, cfg)))

		// The materialising Run is RunStream with a collecting sink: folding
		// its Result must render the same bytes.
		r, err := scanner.Run(world, cfg)
		if err != nil {
			t.Fatalf("Run workers=%d: %v", workers, err)
		}
		checkGolden(t, "fast_week5.golden", renderStreamWeek(NewAccumulator(r.Week, r.IPv6, world.ASDB()).AddResult(r)))
	}
}

func TestGoldenEmulatedWeek(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	world := websim.Generate(p)
	cfg := scanner.Config{Week: 2, Engine: scanner.EngineEmulated, Seed: 7, Workers: 8}
	checkGolden(t, "emulated_week2.golden", renderStreamWeek(streamWeek(t, world, cfg)))
}

func TestGoldenCampaign(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	p.Weeks = 4
	world := websim.Generate(p)
	camp := NewCampaignAccumulator()
	for wk := 1; wk <= p.Weeks; wk++ {
		cfg := scanner.Config{Week: wk, Engine: scanner.EngineFast, Seed: 99, Workers: 4}
		acc := camp.StartWeek(wk, cfg.IPv6, world.ASDB())
		if err := scanner.RunStream(world, cfg, acc.Sink()); err != nil {
			t.Fatalf("RunStream week %d: %v", wk, err)
		}
	}
	out := RenderLongitudinal(camp.Longitudinal()).String()
	out += camp.RenderAccuracy(3)
	out += camp.RenderAccuracy(4)
	last := camp.Weeks()[len(camp.Weeks())-1]
	out += fmt.Sprintf("week %d headlines: %+v\n", last.Week, last.Headlines())
	checkGolden(t, "campaign_4weeks.golden", out)
}

// TestStreamingLazyWorldDeterminism pins the world's two storages to one
// rendering: the on-demand world and the materialised one hold the same
// population, and neither may vary with the worker count (or across runs).
func TestStreamingLazyWorldDeterminism(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	for _, world := range []*websim.World{websim.GenerateLazy(p), websim.Generate(p)} {
		for _, workers := range []int{1, 4, 16} {
			cfg := scanner.Config{Week: 3, Engine: scanner.EngineFast, Seed: 11, Workers: workers}
			checkGolden(t, "lazy_week3.golden", renderStreamWeek(streamWeek(t, world, cfg)))
		}
	}
}
