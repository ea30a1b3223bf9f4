package analysis

import (
	"fmt"
	"testing"
	"unsafe"

	"quicspin/internal/fault"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// checkErrClasses holds every connection of d to the one classification:
// the class and profile it carries are the ones its error text names.
func checkErrClasses(d *scanner.DomainResult) error {
	for j := range d.Conns {
		c := &d.Conns[j]
		if c.ErrClass != resilience.Classify(c.Err) || c.Hostile != hostile.ProfileOf(c.Err) {
			return fmt.Errorf("%s conn %d: carries %v/%v, its text %q classifies as %v/%v",
				d.Domain, j, c.ErrClass, c.Hostile, c.Err, resilience.Classify(c.Err), hostile.ProfileOf(c.Err))
		}
	}
	return nil
}

// TestOneErrorClassEverywhere: a failed connection is classified once, when
// the failure is recorded, and every reader reads that class. A fast and an
// emulated week over a 30 %-hostile world, with DNS timeouts, blackouts, a
// scan panic, retries and three workers, deliver only
// connections whose ErrClass and Hostile agree with their text; so do the
// same weeks replayed from their journals, whose Table 5 is the scanned
// one. The campaign's spinscan_conn_errors_total{class} and
// hostile_detected_total{profile} equal Table 5's fold class by class and
// profile by profile. The two fields fill the padding after QUIC.
func TestOneErrorClassEverywhere(t *testing.T) {
	if got := unsafe.Sizeof(scanner.ConnResult{}); got != 176 {
		t.Errorf("ConnResult is %d bytes, want 176", got)
	}
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 20_000, 0.3
	w := websim.Generate(p)
	victim := w.Domains[len(w.Domains)/2].Name
	spec := "dns.timeout:0.3/2,net.blackout:0.1/1,scan.panic:" + victim + "@1"
	for _, eng := range []scanner.Engine{scanner.EngineFast, scanner.EngineEmulated} {
		faults, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		cfg := scanner.Config{
			Week: 12, Engine: eng, Seed: 5, Workers: 3, Telemetry: reg, Faults: faults,
			Retry:      resilience.RetryPolicy{MaxRetries: 1},
			Checkpoint: t.TempDir(),
		}
		scan := func(cfg scanner.Config) *Accumulator {
			acc := NewAccumulator(cfg.Week, cfg.IPv6, w.ASDB())
			err := scanner.RunStream(w, cfg, func(_ int, d *scanner.DomainResult) error {
				acc.Add(d)
				return checkErrClasses(d)
			})
			if err != nil {
				t.Fatalf("engine %v (resume %v): %v", eng, cfg.Resume, err)
			}
			return acc
		}
		acc := scan(cfg)

		snap := reg.Snapshot()
		for cls := resilience.ClassNone + 1; cls <= resilience.ClassOther; cls++ {
			name := telemetry.Name("spinscan_conn_errors_total", "class", cls.String())
			if got, want := snap.Counters[name], int64(acc.errs.classes[cls]); got != want {
				t.Errorf("engine %v: %s = %d, Table 5 counts %d", eng, name, got, want)
			}
		}
		for _, prof := range hostile.Profiles() {
			name := telemetry.Name("hostile_detected_total", "profile", prof.String())
			if got, want := snap.Counters[name], int64(acc.errs.profiles[prof]); got != want {
				t.Errorf("engine %v: %s = %d, Table 5 counts %d", eng, name, got, want)
			}
		}
		cls := &acc.errs.classes
		if cls[resilience.ClassPanic] != 1 || cls[resilience.ClassHostile] == 0 || cls[resilience.ClassHandshakeTimeout] == 0 {
			t.Fatalf("engine %v: vacuous week: %d panics, %d hostile, %d handshake timeouts",
				eng, cls[resilience.ClassPanic], cls[resilience.ClassHostile], cls[resilience.ClassHandshakeTimeout])
		}

		resumed := cfg
		resumed.Resume, resumed.Telemetry = true, nil
		resumed.Faults, _ = fault.Parse(spec)
		if got, want := scan(resumed).RenderErrorClasses().String(), acc.RenderErrorClasses().String(); got != want {
			t.Errorf("engine %v: replayed Table 5 differs:\n%s\nscanned:\n%s", eng, got, want)
		}
	}
}
