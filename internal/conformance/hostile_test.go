package conformance

import (
	"fmt"
	"sort"
	"testing"

	"quicspin/internal/analysis"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// hostileScale mirrors diffScale but defaults smaller: the hostile chaos
// campaign runs the emulated engine three times (workers 1/4/16), so it
// uses a 5.5k-domain population unless QUICSPIN_CONFORMANCE_SCALE asks for
// more.
func hostileScale(t *testing.T) int {
	t.Helper()
	if s := diffScale(t); s != 20_000 {
		return s
	}
	return 40_000
}

// hostileWorld builds a ≥20%-hostile world with every misbehavior profile
// represented. HostileFrac exercises the hash-based assignment path in
// world generation; the test then overrides the v4 QUIC servers with a
// deterministic round-robin (every third server, profiles cycling) so
// profile coverage does not depend on assignment dice at small scales.
// IPv4-only scans see exactly the overridden set.
func hostileWorld(t *testing.T, scale int) *websim.World {
	t.Helper()
	prof := websim.DefaultProfile()
	prof.Scale = scale
	prof.HostileFrac = 0.3
	world := websim.Generate(prof)

	var v4 []*websim.Server
	for _, s := range world.Servers() {
		if s.QUIC && s.Addr.Is4() {
			v4 = append(v4, s)
		}
	}
	sort.Slice(v4, func(i, j int) bool { return v4[i].Addr.Less(v4[j].Addr) })
	profiles := hostile.Profiles()
	if len(v4) < 3*len(profiles) {
		t.Fatalf("only %d v4 QUIC servers at scale %d; need %d for full profile coverage", len(v4), scale, 3*len(profiles))
	}
	hostileN := 0
	for i, s := range v4 {
		if i%3 == 0 {
			s.Hostile = profiles[(i/3)%len(profiles)]
			hostileN++
		} else {
			s.Hostile = hostile.None
		}
	}
	if share := float64(hostileN) / float64(len(v4)); share < 0.2 {
		t.Fatalf("hostile share %.2f below the 20%% chaos floor", share)
	}
	return world
}

// renderTables renders the scan result through the full human-facing table
// pipeline; byte-identical strings mean byte-identical tables.
func renderTables(t *testing.T, res *scanner.Result) string {
	t.Helper()
	// No table rendered here attributes organisations, so no resolver.
	acc := analysis.NewAccumulator(res.Week, res.IPv6, nil).AddResult(res)
	return acc.RenderOverview().String() + acc.RenderSpinConfig().String() + acc.RenderErrorClasses().String()
}

// profilesSeen collects the hostile profiles visible in a result's
// connection error classes, and fails the test on any panic or stall.
func profilesSeen(t *testing.T, res *scanner.Result, engine string) map[hostile.Profile]int {
	t.Helper()
	seen := map[hostile.Profile]int{}
	for i := range res.Domains {
		d := &res.Domains[i]
		for j := range d.Conns {
			errStr := d.Conns[j].Err
			if errStr == "" {
				continue
			}
			switch cls := resilience.Classify(errStr); cls {
			case resilience.ClassPanic, resilience.ClassStall:
				t.Errorf("%s engine: %s hop %d: %s error leaked into results: %q", engine, d.Domain, j, cls, errStr)
			case resilience.ClassHostile:
				p := hostile.ProfileOf(errStr)
				if p == hostile.None {
					t.Errorf("%s engine: %s hop %d: hostile error with unparseable profile: %q", engine, d.Domain, j, errStr)
				}
				seen[p]++
			}
		}
	}
	return seen
}

// TestHostileChaosCampaign is the acceptance test of the hostile-endpoint
// subsystem: both engines scan a ≥20%-hostile world with zero panics and
// zero stalls, the emulated engine's rendered tables are byte-identical
// across worker counts, every misbehavior profile surfaces as a
// deterministic "hostile: <name>" error class, and the engines pass the
// full differential contract over the same world.
func TestHostileChaosCampaign(t *testing.T) {
	scale := hostileScale(t)
	world := hostileWorld(t, scale)
	const week = 1
	base := scanner.Config{Week: week, Seed: 20230515 + week}

	// Emulated engine at three worker counts: identical tables.
	var tables []string
	var emuRes *scanner.Result
	for _, workers := range []int{1, 4, 16} {
		cfg := base
		cfg.Engine = scanner.EngineEmulated
		cfg.Workers = workers
		res, err := scanner.Run(world, cfg)
		if err != nil {
			t.Fatalf("emulated engine (workers=%d): %v", workers, err)
		}
		tables = append(tables, renderTables(t, res))
		emuRes = res
	}
	for i := 1; i < len(tables); i++ {
		if tables[i] != tables[0] {
			t.Errorf("rendered tables differ between workers=1 and workers=%d:\n--- workers=1 ---\n%s\n--- other ---\n%s",
				[]int{1, 4, 16}[i], tables[0], tables[i])
		}
	}

	fastCfg := base
	fastCfg.Engine = scanner.EngineFast
	fastRes, err := scanner.Run(world, fastCfg)
	if err != nil {
		t.Fatalf("fast engine: %v", err)
	}

	// Every profile must be visible as a hostile error class in both
	// engines' outputs, with zero panics and stalls.
	for _, eng := range []struct {
		name string
		res  *scanner.Result
	}{{"emulated", emuRes}, {"fast", fastRes}} {
		seen := profilesSeen(t, eng.res, eng.name)
		var missing []string
		for _, p := range hostile.Profiles() {
			if seen[p] == 0 {
				missing = append(missing, p.String())
			}
		}
		if len(missing) > 0 {
			t.Errorf("%s engine: profiles never classified: %v (seen %v)", eng.name, missing, fmt.Sprint(seen))
		}
	}

	// Full differential contract over the hostile world.
	rep, err := RunDiff(DiffConfig{World: world, Week: week, Seed: base.Seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if rep.QUICDomains == 0 || rep.ClassChecked == 0 {
		t.Error("hostile differential population is vacuous")
	}
	if !rep.OK() {
		t.Fatalf("engines disagree on the hostile world:\n%s", rep.Summary())
	}
}
