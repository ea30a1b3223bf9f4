package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// FlightDump is the on-disk postmortem document: the triggering event plus
// the last N traces of every worker's flight ring at the moment of the
// dump. It is written on panics, watchdog stalls and resource-budget
// kills, so the failing domain's full stage trace survives instead of
// collapsing into a one-line error string.
type FlightDump struct {
	// Reason is the trigger class: "panic", "stall" or "budget".
	Reason string `json:"reason"`
	// Worker is the shard whose scan triggered the dump.
	Worker int `json:"worker"`
	// Domain is the scan that triggered the dump.
	Domain string `json:"domain"`
	// Traces are the flight rings of every worker, newest first.
	Traces []*Trace `json:"traces"`
	// Exemplars is the sampler state at dump time.
	Exemplars ExemplarSnapshot `json:"exemplars"`
}

// dumpFlight writes a FlightDump file and logs its path. Dump failures
// are reported through Logf but never propagate: the flight recorder is
// diagnostics, not control flow.
func (t *Tracer) dumpFlight(reason string, worker int, domain string) {
	if t == nil || t.cfg.Dir == "" {
		return
	}
	if t.dumps.Add(1) > maxDumps {
		return
	}
	seq := t.dumpSeq.Add(1)
	path := filepath.Join(t.cfg.Dir, fmt.Sprintf("flight-%03d-%s.json", seq, reason))
	if err := t.writeDump(path, reason, worker, domain); err != nil {
		t.logf("trace: flight dump failed: reason=%s worker=%d domain=%s err=%v", reason, worker, domain, err)
		return
	}
	t.logf("trace: flight-recorder dump: reason=%s worker=%d domain=%s path=%s", reason, worker, domain, path)
}

// LastDumpCount reports how many dumps have been triggered (including any
// suppressed past maxDumps). Nil-safe; used by tests and the text view.
func (t *Tracer) LastDumpCount() int64 {
	if t == nil {
		return 0
	}
	return t.dumps.Load()
}

func (t *Tracer) writeDump(path, reason string, worker int, domain string) error {
	if err := os.MkdirAll(t.cfg.Dir, 0o755); err != nil {
		return err
	}
	d := FlightDump{
		Reason:    reason,
		Worker:    worker,
		Domain:    domain,
		Traces:    t.Recent(0),
		Exemplars: t.Exemplars(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *Tracer) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// ReadFlightDump parses a dump file (test and tooling helper).
func ReadFlightDump(path string) (*FlightDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}
