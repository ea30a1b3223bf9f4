package scanner

import (
	"bytes"
	"io"
	"testing"

	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/websim"
)

type closableBuffer struct{ bytes.Buffer }

func (c *closableBuffer) Close() error { return nil }

func TestQlogRoundTrip(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 200_000
	w := websim.Generate(p)
	res := mustRun(t, w, Config{Week: 3, Engine: EngineFast, Seed: 4, Workers: 2})

	// Serialise everything, then reassemble and compare per-connection
	// fields.
	files := map[string]*closableBuffer{}
	sink := QlogSink(res.Week, res.IPv6, func(name string) (io.WriteCloser, error) {
		b := &closableBuffer{}
		files[name] = b
		return b, nil
	})
	for i := range res.Domains {
		if err := sink(i, &res.Domains[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(files) == 0 {
		t.Fatal("no qlog files written")
	}
	var readers []io.Reader
	for _, b := range files {
		readers = append(readers, bytes.NewReader(b.Bytes()))
	}
	backs, err := MergeQlogConns(readers)
	if err != nil {
		t.Fatal(err)
	}
	if len(backs) != 1 {
		t.Fatalf("got %d weekly results, want 1", len(backs))
	}
	back := backs[0]
	if back.Week != 3 || back.IPv6 {
		t.Errorf("run metadata = week %d ipv6 %v", back.Week, back.IPv6)
	}
	// Same domains with same conn content (order of domains may differ;
	// index both by name).
	index := func(r *Result) map[string]*DomainResult {
		m := map[string]*DomainResult{}
		for i := range r.Domains {
			m[r.Domains[i].Domain] = &r.Domains[i]
		}
		return m
	}
	orig, got := index(res), index(back)
	// Only resolved domains have connections and thus qlog files.
	checked := 0
	for name, od := range orig {
		if len(od.Conns) == 0 {
			continue
		}
		gd, ok := got[name]
		if !ok {
			t.Fatalf("domain %s missing after round trip", name)
		}
		if len(gd.Conns) != len(od.Conns) {
			t.Fatalf("%s: conns %d != %d", name, len(gd.Conns), len(od.Conns))
		}
		for j := range od.Conns {
			oc, gc := od.Conns[j], gd.Conns[j]
			if oc.Target != gc.Target || oc.QUIC != gc.QUIC || oc.Status != gc.Status ||
				oc.Server != gc.Server || oc.Err != gc.Err || oc.Redirect != gc.Redirect ||
				oc.ZeroPkts != gc.ZeroPkts || oc.OnePkts != gc.OnePkts || oc.IP != gc.IP {
				t.Fatalf("%s conn %d differs:\n%+v\n%+v", name, j, oc, gc)
			}
			if len(oc.Observations) != len(gc.Observations) {
				t.Fatalf("%s conn %d: obs %d != %d", name, j, len(gc.Observations), len(oc.Observations))
			}
			for k := range oc.Observations {
				a, b := oc.Observations[k], gc.Observations[k]
				if a.PN != b.PN || a.Spin != b.Spin || a.VEC != b.VEC {
					t.Fatalf("%s conn %d obs %d: %+v != %+v", name, j, k, a, b)
				}
				// Timestamps survive within qlog's float-ms precision.
				if d := a.T.Sub(b.T); d > 1e4 || d < -1e4 {
					t.Fatalf("%s conn %d obs %d: time drift %v", name, j, k, d)
				}
			}
			if len(oc.StackRTTs) != len(gc.StackRTTs) {
				t.Fatalf("%s conn %d: stack samples %d != %d", name, j, len(gc.StackRTTs), len(oc.StackRTTs))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("round trip checked nothing")
	}
}

func TestReadConnQlogRejectsForeignTrace(t *testing.T) {
	src := `{"qlog_version":"0.4","vantage_point":"client","reference_time":"2023-05-15T00:00:00Z"}` + "\n"
	if _, _, _, _, err := ReadConnQlog(bytes.NewReader([]byte(src))); err == nil {
		t.Error("trace without scan common fields accepted")
	}
}

func TestQlogClassificationSurvives(t *testing.T) {
	// A failed hostile connection keeps its class and profile: the reader
	// classifies the trace's error text as the scan did.
	hp := websim.DefaultProfile()
	hp.Scale, hp.HostileFrac = 100_000, 0.3
	hres := mustRun(t, websim.Generate(hp), Config{Week: 12, Engine: EngineEmulated, Seed: 8, Workers: 2})
	var hostileChecked int
	for i := range hres.Domains {
		for j := range hres.Domains[i].Conns {
			want := &hres.Domains[i].Conns[j]
			if want.ErrClass != resilience.ClassHostile {
				continue
			}
			var buf bytes.Buffer
			if err := WriteConnQlog(&buf, &hres.Domains[i], j, hres.Week, false); err != nil {
				t.Fatal(err)
			}
			_, c, _, _, err := ReadConnQlog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if want.Hostile == hostile.None || c.Err != want.Err || c.ErrClass != want.ErrClass || c.Hostile != want.Hostile {
				t.Errorf("hostile failure %q (%v/%v) read back as %q (%v/%v)",
					want.Err, want.ErrClass, want.Hostile, c.Err, c.ErrClass, c.Hostile)
			}
			hostileChecked++
		}
	}
	if hostileChecked == 0 {
		t.Error("no hostile failure in a 30 %-hostile week")
	}

	// A flipping connection keeps enough data for spin-RTT analysis.
	p := websim.DefaultProfile()
	p.Scale = 100_000
	w := websim.Generate(p)
	res := mustRun(t, w, Config{Week: 12, Engine: EngineEmulated, Seed: 8, Workers: 2})
	var d *DomainResult
	var idx int
	for i := range res.Domains {
		for j := range res.Domains[i].Conns {
			if res.Domains[i].Conns[j].HasFlips() {
				d, idx = &res.Domains[i], j
			}
		}
	}
	if d == nil {
		t.Skip("no flipping connection in sample")
	}
	var buf bytes.Buffer
	if err := WriteConnQlog(&buf, d, idx, res.Week, false); err != nil {
		t.Fatal(err)
	}
	_, c, _, _, err := ReadConnQlog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasFlips() || len(c.Observations) < 2 {
		t.Errorf("flips lost in round trip: %+v", c)
	}
}
