package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quicspin/internal/analysis"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// TestTable5FromQlogs: spinalyze folds the traces of a 30 %-hostile scan
// into the same Table 5 the scan itself renders, under -table 5 and in the
// default output. Each trace carries its connection's class and hostile
// profile, and Table 5 counts connections only, so unresolved domains,
// which leave no trace, change nothing.
func TestTable5FromQlogs(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale, p.HostileFrac = 100_000, 0.3
	w := websim.Generate(p)
	cfg := scanner.Config{Week: 12, Engine: scanner.EngineEmulated, Seed: 4, Workers: 2}
	dir := t.TempDir()
	traces := scanner.QlogSink(cfg.Week, cfg.IPv6, func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	})
	acc := analysis.NewAccumulator(cfg.Week, cfg.IPv6, nil)
	err := scanner.RunStream(w, cfg, func(i int, d *scanner.DomainResult) error {
		acc.Add(d)
		return traces(i, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := acc.RenderErrorClasses().Render(&want); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	if !strings.Contains(want.String(), "hostile: ") {
		t.Fatalf("the scan's Table 5 has no hostile rows; the check is vacuous:\n%s", want.String())
	}

	var only bytes.Buffer
	if err := run([]string{"-qlog-dir", dir, "-table", "5"}, &only); err != nil {
		t.Fatal(err)
	}
	if only.String() != want.String() {
		t.Errorf("-table 5 rendered\n%s\nwant the scan's\n%s", only.String(), want.String())
	}
	var all bytes.Buffer
	if err := run([]string{"-qlog-dir", dir}, &all); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all.String(), want.String()) {
		t.Errorf("default output lacks the scan's Table 5:\n%s", all.String())
	}
}

// TestUsage: a run without -qlog-dir, or with an unknown flag, is a usage
// error; a directory without traces is an error naming it.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-bogus"}} {
		if err := run(args, io.Discard); err != errUsage {
			t.Errorf("run(%q) = %v, want the usage error", args, err)
		}
	}
	dir := t.TempDir()
	if err := run([]string{"-qlog-dir", dir}, io.Discard); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("run over an empty directory = %v, want an error naming it", err)
	}
}
