package scanner

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"quicspin/internal/fault"
	"quicspin/internal/trace"
)

// TestTracingDoesNotChangeResults is the determinism gate: enabling the
// tracer must leave every DomainResult untouched for both engines at any
// worker count (tracing reads clocks but draws no randomness). Identical
// results imply byte-identical Tables 1–5; the analysis package asserts
// the rendered-table half.
func TestTracingDoesNotChangeResults(t *testing.T) {
	for _, tc := range []struct {
		engine Engine
		name   string
		scale  int
	}{
		{EngineEmulated, "emulated", 8_000},
		{EngineFast, "fast", 30_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(tc.scale)
			base := Config{Week: 1, Engine: tc.engine, Seed: 7, Workers: 1}
			plain := mustRun(t, w, base)
			for _, workers := range []int{1, 4, 16} {
				cfg := base
				cfg.Workers = workers
				cfg.Trace = trace.New(trace.Config{})
				sameScanResults(t, plain, mustRun(t, w, cfg))
			}
		})
	}
}

// TestTraceStagesRecorded checks the shape of a committed trace: a clean
// scan carries the dns → connect → handshake → h3 → observe → classify
// stage sequence and an "ok" outcome.
func TestTraceStagesRecorded(t *testing.T) {
	for _, tc := range []struct {
		engine Engine
		name   string
	}{{EngineEmulated, "emulated"}, {EngineFast, "fast"}} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(3_000)
			tr := trace.New(trace.Config{})
			mustRun(t, w, Config{Week: 1, Engine: tc.engine, Seed: 7, Workers: 2, Trace: tr})
			want := []string{"dns", "connect", "handshake", "h3", "observe", "classify"}
			for _, tg := range tr.Recent(0) {
				if tg.Outcome != "ok" {
					continue
				}
				stages := map[string]bool{}
				for _, sp := range tg.Spans {
					stages[sp.Stage] = true
				}
				missing := []string{}
				for _, st := range want {
					if !stages[st] {
						missing = append(missing, st)
					}
				}
				if len(missing) > 0 {
					t.Fatalf("ok trace for %s missing stages %v (has %v)", tg.Domain, missing, tg.Spans)
				}
				return // one well-formed ok trace is enough
			}
			t.Fatal("no ok trace in the flight rings")
		})
	}
}

// TestPanicProducesFlightDump is the postmortem acceptance gate: an
// injected panic must write a flight dump whose rings contain the failing
// domain's stage trace, and the dump path must surface through the
// structured trace log (never through the deterministic result strings).
func TestPanicProducesFlightDump(t *testing.T) {
	w := testWorld(20_000)
	idx := len(w.Domains) / 2
	victim := w.Domains[idx].Name

	dir := t.TempDir()
	var mu sync.Mutex
	var logs []string
	tr := trace.New(trace.Config{Dir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	cfg := Config{Week: 1, Engine: EngineEmulated, Seed: 3, Workers: 3, Trace: tr}
	cfg.Faults = fault.New(1, fault.Rule{Site: fault.Scan, Kind: fault.Panic, Target: victim, P: 1})
	r := mustRun(t, w, cfg)

	vr := &r.Domains[idx]
	if len(vr.Conns) != 1 || !strings.HasPrefix(vr.Conns[0].Err, "panic:") {
		t.Fatalf("victim result = %+v, want one panic-classed conn", vr)
	}
	if !strings.Contains(vr.Conns[0].Err, victim) {
		t.Errorf("panic error %q does not name the victim domain", vr.Conns[0].Err)
	}

	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*-panic.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no panic flight dump in %s (err=%v)", dir, err)
	}
	d, err := trace.ReadFlightDump(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "panic" || d.Domain != victim {
		t.Fatalf("dump reason=%q domain=%q, want panic/%s", d.Reason, d.Domain, victim)
	}
	var got *trace.Trace
	for _, tg := range d.Traces {
		if tg.Domain == victim {
			got = tg
			break
		}
	}
	if got == nil {
		t.Fatalf("dump does not contain the victim's trace (%d traces)", len(d.Traces))
	}
	if got.Outcome != "panic" {
		t.Errorf("victim trace outcome = %q, want panic", got.Outcome)
	}
	// The hook fires after the scan's spans exist, so the dump keeps the
	// victim's stage trace, not just a one-line error.
	stages := map[string]bool{}
	for _, sp := range got.Spans {
		stages[sp.Stage] = true
	}
	if !stages["dns"] {
		t.Errorf("victim trace lacks its dns span: %+v", got.Spans)
	}
	if vr.Conns[0].Err != "" && !stages["connect"] && w.Domains[idx].V4.IsValid() {
		// A resolvable victim scanned its landing conn before panicking.
		t.Errorf("victim trace lacks its connect span: %+v", got.Spans)
	}

	mu.Lock()
	defer mu.Unlock()
	foundLog := false
	for _, l := range logs {
		if strings.Contains(l, "flight-recorder dump") && strings.Contains(l, "path=") && strings.Contains(l, victim) {
			foundLog = true
		}
	}
	if !foundLog {
		t.Errorf("no structured log line with the dump path; logs: %v", logs)
	}
}

// TestStallErrorContext pins the enriched watchdog message (satellite of
// the observability PR): a stall result names the dial target, the stage
// the loop died in, and the deterministic step budget — and, with tracing
// on, dumps the flight recorder.
func TestStallErrorContext(t *testing.T) {
	w := testWorld(10_000)
	dir := t.TempDir()
	tr := trace.New(trace.Config{Dir: dir})
	cfg := Config{Week: 1, Engine: EngineEmulated, Seed: 3, Workers: 2, Trace: tr}
	cfg.watchdogSteps = 50 // absurdly small: every live exchange "stalls"
	r := mustRun(t, w, cfg)

	checked := false
	for i := range r.Domains {
		for j := range r.Domains[i].Conns {
			c := &r.Domains[i].Conns[j]
			if !strings.HasPrefix(c.Err, "stall:") {
				continue
			}
			checked = true
			if !strings.Contains(c.Err, c.Target) {
				t.Fatalf("stall error %q does not name its target %q", c.Err, c.Target)
			}
			if !strings.Contains(c.Err, "(50 steps)") {
				t.Fatalf("stall error %q does not name the step budget", c.Err)
			}
			if !strings.Contains(c.Err, "handshake stage") && !strings.Contains(c.Err, "h3 stage") {
				t.Fatalf("stall error %q does not name the stage", c.Err)
			}
		}
	}
	if !checked {
		t.Fatal("no stalls despite a 50-step watchdog budget")
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*-stall.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no stall flight dump in %s (err=%v)", dir, err)
	}
}
