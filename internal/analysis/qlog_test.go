package analysis

import (
	"bytes"
	"io"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

type memFile struct{ bytes.Buffer }

func (*memFile) Close() error { return nil }

// TestQlogInterchange pins the spinscan -qlog-dir → spinalyze hand-off: one
// emulated week is teed through the qlog sink (into memory) and into an
// accumulator; the traces are read back, folded, and must reproduce the
// direct analysis. Known, documented caveat: unresolved domains have no
// connections and so emit no traces, which makes Table 1's "Total" domain
// count equal "Resolved" on the read-back side; and qlog timestamps carry
// float-millisecond precision, so Figs. 3/4 are held to equal sample
// counts, not equal bucket contents.
func TestQlogInterchange(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 100_000
	world := websim.Generate(p)
	cfg := scanner.Config{Week: 12, Engine: scanner.EngineEmulated, Seed: 8, Workers: 4}

	direct := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
	files := map[string]*memFile{}
	qlogs := scanner.QlogSink(cfg.Week, cfg.IPv6, func(name string) (io.WriteCloser, error) {
		if files[name] != nil {
			t.Errorf("trace %s written twice", name)
		}
		files[name] = &memFile{}
		return files[name], nil
	})
	err := scanner.RunStream(world, cfg, func(i int, d *scanner.DomainResult) error {
		if err := qlogs(i, d); err != nil {
			return err
		}
		direct.Add(d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	readers := make([]io.Reader, 0, len(files))
	for _, f := range files {
		readers = append(readers, f)
	}
	results, err := scanner.MergeQlogConns(readers)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("read back %d weekly results, want 1", len(results))
	}
	back := NewAccumulator(results[0].Week, results[0].IPv6, world.ASDB()).AddResult(results[0])

	for _, tb := range []struct {
		name      string
		want, got string
	}{
		{"Table 2", direct.RenderOrgTable(8).String(), back.RenderOrgTable(8).String()},
		{"Table 3", direct.RenderSpinConfig().String(), back.RenderSpinConfig().String()},
		{"software table", direct.RenderSoftwareTable().String(), back.RenderSoftwareTable().String()},
	} {
		if tb.got != tb.want {
			t.Errorf("%s differs after the qlog round trip:\n%s", tb.name, lineDiff(tb.want, tb.got))
		}
	}
	wantRows, gotRows := direct.OverviewRows(), back.OverviewRows()
	for i := range wantRows {
		if gotRows[i].TotalDomains != gotRows[i].ResolvedDomains {
			t.Errorf("%s: read-back Total %d != Resolved %d (unresolved domains emit no traces)",
				gotRows[i].Label, gotRows[i].TotalDomains, gotRows[i].ResolvedDomains)
		}
		wantRows[i].TotalDomains, gotRows[i].TotalDomains = 0, 0
		if gotRows[i] != wantRows[i] {
			t.Errorf("Table 1 row differs beyond the Total column:\n-%+v\n+%+v", wantRows[i], gotRows[i])
		}
	}
	samples := 0
	for i := range accuracySets {
		for fig := 3; fig <= 4; fig++ {
			want, got := direct.acc.histAt(fig, i).N, back.acc.histAt(fig, i).N
			if got != want {
				t.Errorf("Fig. %d %s: %d samples after the round trip, want %d", fig, accuracySetNames[i], got, want)
			}
			samples += want
		}
	}
	if samples == 0 {
		t.Error("no accuracy samples in the fixture; the Fig. 3/4 check is vacuous")
	}
}
