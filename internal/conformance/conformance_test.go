package conformance

import (
	"os"
	"strconv"
	"testing"

	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/websim"
)

// diffScale returns the population scale divisor of the differential test.
// The default keeps the tier-1 suite fast; the acceptance-level run at
// scale 2000 (~108k domains) is selected with
//
//	QUICSPIN_CONFORMANCE_SCALE=2000 go test ./internal/conformance
//
// or via `spinscan -conformance` (which always runs at its -scale flag).
func diffScale(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("QUICSPIN_CONFORMANCE_SCALE"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("QUICSPIN_CONFORMANCE_SCALE=%q is not a positive integer", v)
		}
		return n
	}
	return 20_000
}

func TestDifferentialEngines(t *testing.T) {
	scale := diffScale(t)
	prof := websim.DefaultProfile()
	prof.Scale = scale
	world := websim.Generate(prof)
	const week = 1
	rep, err := RunDiff(DiffConfig{
		World: world,
		Week:  week,
		Seed:  prof.Seed + week, // matches the spinscan campaign loop
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if rep.Domains != len(world.Domains) {
		t.Errorf("compared %d domains, world has %d", rep.Domains, len(world.Domains))
	}
	if rep.QUICDomains == 0 {
		t.Error("no QUIC domains in the differential population; the check is vacuous")
	}
	if rep.ClassChecked == 0 {
		t.Error("no classifications checked; the check is vacuous")
	}
	if !rep.OK() {
		t.Fatalf("engines disagree:\n%s", rep.Summary())
	}
}

// TestDifferentialEnginesUnderRetries re-runs the differential contract
// with injected transient failures (DNS timeouts plus fail-first network
// outages, from one fault spec) and recovery retries enabled: the fast
// engine must mirror the emulated engine's retry behaviour exactly — same
// recovered resolutions, same redirect chains, same classifications.
func TestDifferentialEnginesUnderRetries(t *testing.T) {
	prof := websim.DefaultProfile()
	prof.Scale = 30_000
	world := websim.Generate(prof)
	const week = 1

	// Fail the first connection attempt against a fifth of the server
	// addresses, and time out the first two lookups of a third of the names.
	faults, err := fault.Parse("net.blackout:0.2/1,dns.timeout:0.33/2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunDiff(DiffConfig{
		World:  world,
		Week:   week,
		Seed:   prof.Seed + week,
		Retry:  resilience.RetryPolicy{MaxRetries: 3},
		Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if faults.Injected(fault.DNS, fault.Timeout) == 0 || faults.Injected(fault.Net, fault.Blackout) == 0 {
		t.Error("the fault plan injected nothing at one of its sites")
	}
	if rep.QUICDomains == 0 || rep.ClassChecked == 0 {
		t.Error("retry differential population is vacuous")
	}
	if !rep.OK() {
		t.Fatalf("engines disagree under retries:\n%s", rep.Summary())
	}
}

func TestDifferentialEnginesIPv6(t *testing.T) {
	scale := diffScale(t)
	if scale < 20_000 {
		// The acceptance-scale IPv4 run already covers the large
		// population; keep the AAAA view at the fast default.
		scale = 20_000
	}
	prof := websim.DefaultProfile()
	prof.Scale = scale
	world := websim.Generate(prof)
	const week = 2
	rep, err := RunDiff(DiffConfig{
		World: world,
		Week:  week,
		IPv6:  true,
		Seed:  prof.Seed + week,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if !rep.OK() {
		t.Fatalf("engines disagree on the AAAA view:\n%s", rep.Summary())
	}
}

func TestInvariantsChaosSweep(t *testing.T) {
	cases := DefaultChaosCases()
	if len(cases) < 10 {
		t.Fatalf("chaos sweep has only %d cases", len(cases))
	}
	rep := CheckInvariants(cases)
	for i := range rep.Cases {
		cr := &rep.Cases[i]
		t.Logf("%s: %d/%d short packets, samples raw=%d guarded=%d vec=%d",
			cr.Case.Name, cr.ShortPackets[0], cr.ShortPackets[1],
			cr.Samples["raw"], cr.Samples["guarded"], cr.Samples["vec"])
	}
	if !rep.OK() {
		t.Fatalf("invariant violations:\n%s", rep.Summary())
	}
}

func TestChaosCaseDeterminism(t *testing.T) {
	c := DefaultChaosCases()[3] // a lossy case with reordering
	a, b := RunChaosCase(c), RunChaosCase(c)
	if a.ShortPackets != b.ShortPackets {
		t.Errorf("packet counts differ across replays: %v vs %v", a.ShortPackets, b.ShortPackets)
	}
	for _, name := range []string{"raw", "guarded", "vec"} {
		if a.Samples[name] != b.Samples[name] {
			t.Errorf("%s sample counts differ across replays: %d vs %d", name, a.Samples[name], b.Samples[name])
		}
	}
}
