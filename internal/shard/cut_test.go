package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/telemetry"
)

// writeEnds records, per segment, the offset at which each write ended.
type writeEnds struct {
	resilience.FS
	mu   sync.Mutex
	ends map[string][]int
}

func (w *writeEnds) OpenAppend(path string) (resilience.File, error) {
	f, err := w.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &endsFile{File: f, log: w, name: filepath.Base(path)}, nil
}

type endsFile struct {
	resilience.File
	log  *writeEnds
	name string
	off  int
}

func (f *endsFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.off += n
	f.log.mu.Lock()
	f.log.ends[f.name] = append(f.log.ends[f.name], f.off)
	f.log.mu.Unlock()
	return n, err
}

// TestJournalCutResume: a SIGKILL leaves a week's journal cut at a batch
// boundary, or inside a batch's write. A one-worker week is journaled, its
// segment is cut at every batch boundary and through the middle record of
// every batch, and each cut resumes to tables byte-identical to the uncut
// run, replaying exactly the records the cut left whole.
func TestJournalCutResume(t *testing.T) {
	w := fixture(t)
	const seedBase = 7
	base := scanner.Config{Engine: scanner.EngineFast, Workers: 1}
	log := &writeEnds{FS: resilience.OSFS, ends: map[string][]int{}}
	fb := base
	fb.Journal.FS = log
	cfg := followConfig(fb, seedBase, 1, 0)
	cfg.Checkpoint = t.TempDir()
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCampaign(res.Vantages[0].Campaign)

	dir := journalDirs(cfg.Checkpoint, 1, 0)[0]
	names, err := resilience.OSFS.ReadDir(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("week journal holds %v (%v), want one segment", names, err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	ends := log.ends[names[0]]
	n := w.NumDomains()
	if batches := (n + 63) / 64; len(ends) != batches || ends[len(ends)-1] != len(seg) {
		t.Fatalf("%d domains journaled in %d writes, want one write per batch of 64 (%d) covering the segment's %d bytes", n, len(ends), batches, len(seg))
	}

	var cuts []int
	start := 0
	for _, end := range ends {
		cuts = append(cuts, start) // a batch boundary; 0 is the empty journal
		lines := bytes.SplitAfter(seg[start:end], []byte("\n"))
		mid := start
		for _, l := range lines[:len(lines)/2] {
			mid += len(l)
		}
		cuts = append(cuts, mid+len(lines[len(lines)/2])/2) // through a record
		start = end
	}
	cuts = append(cuts, len(seg))
	for _, cut := range cuts {
		root := t.TempDir()
		cutDir := journalDirs(root, 1, 0)[0]
		if err := os.MkdirAll(cutDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, names[0]), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		rb := base
		rb.Telemetry = reg
		rcfg := followConfig(rb, seedBase, 1, 0)
		rcfg.Checkpoint, rcfg.Resume = root, true
		res, err := Run(w, rcfg)
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if got := renderCampaign(res.Vantages[0].Campaign); got != want {
			t.Fatalf("cut at byte %d: resumed tables diverge:\n%s", cut, diffHead(want, got))
		}
		if got, whole := reg.Counter("domains_resumed_total").Value(), int64(bytes.Count(seg[:cut], []byte("\n"))); got != whole {
			t.Fatalf("cut at byte %d: %d domains replayed, the cut left %d records whole", cut, got, whole)
		}
	}
}
