package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		v    []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.75, 17.5},
	}
	for _, c := range cases {
		if got := quantile(c.v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.v, c.q, got, c.want)
		}
	}
	v := []float64{3, 1, 2}
	median(v)
	if !reflect.DeepEqual(v, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", v)
	}
	if got := relSpread([]float64{90, 100, 110, 100, 100}); got != 0 {
		t.Errorf("relSpread with equal quartiles = %g, want 0", got)
	}
	if got := relSpread([]float64{80, 90, 100, 110, 120}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread = %g, want 0.2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100}, // 0: root
		{parent: 0, start: 10, end: 40},  // 1: child
		{parent: 1, start: 15, end: 25},  // 2: grandchild, nested
		{parent: 0, start: 40, end: 70},  // 3: back to back with 1
		{parent: 0, start: 90, end: 120}, // 4: outlives the root, clipped to 10
		{parent: -1, start: 200, end: 230},
	}
	want := []int64{100 - 30 - 30 - 10, 30 - 10, 10, 30, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerForkMerge(t *testing.T) {
	tr := newTracer()
	name := tr.name("batch")
	root := tr.begin(tr.name("rep"), -1, 1)
	f := tr.fork()
	id := f.begin(name, root, 1)
	f.end(id, 256)
	tr.end(root, 1)
	tr.merge(f)
	if len(tr.spans) != 2 || tr.spans[1].parent != root || tr.spans[1].n != 256 {
		t.Fatalf("merged spans = %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Names []string
		Spans [][]int64
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.Spans) != 2 || len(doc.Spans[0]) != 6 || doc.Names[doc.Spans[1][0]] != "batch" {
		t.Errorf("trace file holds %+v", doc)
	}
}

// validName reports whether s is a legal workload or metric name: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.', '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || (c != '_' && c != '.' && c != '-')) {
			return false
		}
	}
	return true
}

func TestParseSeed(t *testing.T) {
	for in, want := range map[string]int64{"7": 7, "-3": -3, "0x10": 16, "18446744073709551615": -1} {
		if got := parseSeed(in); got != want {
			t.Errorf("parseSeed(%q) = %d, want %d", in, got, want)
		}
	}
	if a, b := parseSeed("run-a"), parseSeed("run-b"); a == b || a != parseSeed("run-a") {
		t.Errorf("text seeds: %d, %d", a, b)
	}
}

func TestNamesAreValid(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !validName(name) {
			t.Errorf("%s name %q is not made of letters, digits, '_', '.', '-'", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, d := range workloadDefs {
		check("workload", d.name)
		if len(d.why) == 0 || len(d.why) > 200 || strings.Contains(d.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", d.name, len(d.why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", m.name)
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

// TestManifestMatchesCode holds BENCHMARK.json at the repository root
// against the tables the code emits from: every name in the one is in the
// other, with the same unit, direction and bound.
func TestManifestMatchesCode(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if want := []string{"sh", benchDir + "/run.sh"}; !reflect.DeepEqual(manifest.Command, want) {
		t.Errorf("command = %v, want %v", manifest.Command, want)
	} else if _, err := os.Stat("run.sh"); err != nil {
		t.Errorf("the command's script: %v", err)
	}
	if want := []string{benchDir}; !reflect.DeepEqual(manifest.Paths, want) {
		t.Errorf("paths = %v, want %v", manifest.Paths, want)
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 || float64(manifest.RunSeconds) != fullSizes.seconds {
		t.Errorf("run_seconds = %d, the timed phase of the full sizes is %g s", manifest.RunSeconds, fullSizes.seconds)
	}
	var wantWorkloads []entry
	for _, d := range workloadDefs {
		wantWorkloads = append(wantWorkloads, entry{Name: d.name, Why: d.why})
	}
	if !reflect.DeepEqual(manifest.Workloads, wantWorkloads) {
		t.Errorf("workloads differ:\n got %+v\nwant %+v", manifest.Workloads, wantWorkloads)
	}
	compare := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %s %s %s, the code has %s %s %s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound):
				t.Errorf("%s %s: bound differs from the code's %g", kind, w.name, w.bound)
			case bounded && (w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s %s: bound %g outside (0, 0.25]", kind, w.name, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, w.name)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEnd, true)
	compare("per_layer", manifest.PerLayer, perLayer, false)
}

// TestSmoke runs every workload untraced and traced at toy scale, the way a
// suite does: the layer drives and the composed connection run once, with
// layersWith. Each run must be correct; an untraced one emits exactly the
// end-to-end table, a traced one only listed names, its result line every
// per-layer name, and between them the traced runs emit the whole table.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	emitted := map[string]bool{}
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			layers := def.name == layersWith
			rec := runWorkload(def, options{seed: 1, trace: traced, layers: layers, sz: smokeSizes, tmpRoot: tmp, out: io.Discard})
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q", def.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			var line struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(resultLine(rec), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(table) {
				t.Errorf("%s trace=%v: result line carries %d metrics, the table lists %d", def.name, traced, len(line.Metrics), len(table))
			}
			for _, m := range table {
				got, inLine := line.Metrics[m.name]
				if !inLine || got.Unit != m.unit {
					t.Errorf("%s trace=%v: result line has %s as %+v, the table says unit %q", def.name, traced, m.name, got, m.unit)
				}
				got, ok := rec.Metrics[m.name]
				switch {
				case !ok && !traced:
					t.Errorf("%s: end-to-end metric %s not emitted", def.name, m.name)
				case !ok:
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s: %s = %g", def.name, m.name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", def.name, m.name)
				default:
					emitted[m.name] = true
				}
			}
			if !traced {
				continue
			}
			if rec.Metrics["run.trace_overhead"].Value <= 0 {
				t.Errorf("%s: run.trace_overhead = %g, want > 0", def.name, rec.Metrics["run.trace_overhead"].Value)
			}
			if _, err := os.Stat(filepath.Join(tmp, "trace-"+def.name+".json")); err != nil {
				t.Errorf("%s: traced run left no trace file: %v", def.name, err)
			}
			if _, drove := rec.Metrics["wire.short_parse.ns"]; drove != layers {
				t.Errorf("%s: layer drives ran = %v, want %v", def.name, drove, layers)
			}
			if !layers {
				continue
			}
			// The attribution must add up: self times against the total.
			var self float64
			for name, m := range rec.Metrics {
				if strings.HasSuffix(name, ".self_ns") {
					self += m.Value
				}
			}
			total := rec.Metrics["conn.total.ns"].Value
			if total <= 0 || math.Abs(self-total) > 0.10*total {
				t.Errorf("%s: conn self times sum to %.0f ns, conn.total.ns is %.0f", def.name, self, total)
			}
			for _, name := range []string{"wire.short_parse.ns", "transport.handshake.allocs", "netem.send_deliver.ns",
				"scanner.emulated_domain.ns", "analysis.blob.bytes", "resilience.journal_record.bytes", "flowtable.ingest_evict.ns",
				"conn.packets", "conn.loop_events"} {
				if rec.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", def.name, name, rec.Metrics[name].Value)
				}
			}
		}
	}
	// A toy profile need not hold a sample of every package; TestCPUBuckets
	// holds the cpu_share names against the fold instead.
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !emitted[m.name] && !strings.HasPrefix(m.name, "cpu_share.") {
			t.Errorf("no run emits %s", m.name)
		}
	}
}

func TestCPUBuckets(t *testing.T) {
	frames := map[string]string{
		"scanner": "quicspin/internal/scanner.RunStream", "transport": "quicspin/internal/transport.(*Conn).Receive",
		"netem": "quicspin/internal/netem.(*Network).Send", "sim": "quicspin/internal/sim.(*Loop).Step",
		"h3": "quicspin/internal/h3.ParseRequest", "wire": "quicspin/internal/wire.ParseFrames",
		"core": "quicspin/internal/core.(*EdgeState).Step", "analysis": "quicspin/internal/analysis.(*Accumulator).Add",
		"websim_dns": "quicspin/internal/dns.(*Resolver).Lookup", "resilience_shard": "quicspin/internal/resilience.(*Journal).Append",
		"flowtable": "quicspin/internal/flowtable.(*Table).Ingest", "runtime_gc": "runtime.gcBgMarkWorker",
		"runtime_alloc": "runtime.mallocgc", "other": "main.main",
	}
	listed := 0
	for _, m := range perLayer {
		bucket, ok := strings.CutPrefix(m.name, "cpu_share.")
		if !ok {
			continue
		}
		listed++
		if got := cpuBucket([]string{"math/rand.(*Rand).Intn", frames[bucket], "main.main"}); got != bucket {
			t.Errorf("a stack through %q folds into %s, want %s", frames[bucket], got, bucket)
		}
	}
	if listed != len(frames) {
		t.Errorf("the table lists %d cpu_share metrics, the fold has %d buckets", listed, len(frames))
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{name: "ops_per_sec", better: "higher", bound: 0.08}
	lower := metricDef{name: "allocs_per_op", better: "lower", bound: 0.02}
	runs := func(v ...float64) side { return side{values: v, points: v} }
	steady := runs(100, 101, 99, 100, 100)
	failed := runs(120, 121, 119, 120, 120)
	failed.failed = true
	cases := []struct {
		def  metricDef
		a, b side
		want string
	}{
		{higher, steady, runs(101, 100, 102, 100, 101), verdictUnchanged},
		{higher, steady, runs(120, 121, 119, 120, 120), verdictBetter},
		{higher, steady, runs(80, 81, 79, 80, 80), verdictWorse},
		{lower, steady, runs(104, 104, 104, 104, 104), verdictWorse},
		{lower, steady, runs(90, 90, 90, 90, 90), verdictBetter},
		// Spread beyond the bound and overlapping sides: unresolved.
		{higher, runs(80, 90, 100, 110, 120), runs(85, 95, 105, 115, 125), verdictUnresolved},
		// Just as noisy, but every run of b beats every run of a.
		{higher, runs(80, 90, 100, 110, 120), runs(180, 190, 200, 210, 220), verdictBetter},
		// A side that failed its checks is not judged, however good it reads.
		{higher, steady, failed, verdictFailed},
		// One run per side: the reported value is judged, its per-rep
		// samples only give the spread.
		{lower, side{values: []float64{100}, points: []float64{99, 100, 101}}, side{values: []float64{104}, points: []float64{99, 100, 101}}, verdictWorse},
	}
	for i, c := range cases {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("case %d: judge = %s, want %s", i, got, c.want)
		}
	}
}

// TestCompareFiles: a failed run makes its rows read failed, and runs of
// different timed lengths are refused.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds float64, failedOps int64) string {
		rec := record{Workload: workloadDefs[0].name, Seconds: seconds, Correct: failedOps == 0, Attempted: 10, Failed: failedOps,
			Metrics: map[string]metric{"ops_per_sec": {Value: 100, Unit: "1/s", Samples: []float64{99, 100, 101}}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Runs: []record{rec}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good, broken, short := write("good.json", 10, 0), write("broken.json", 10, 10), write("short.json", 5, 0)
	var out strings.Builder
	if bad, err := compareFiles(&out, good, good); err != nil || bad || !strings.Contains(out.String(), verdictUnchanged) {
		t.Errorf("a file against itself: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, err := compareFiles(&out, good, broken); err != nil || !bad || !strings.Contains(out.String(), verdictFailed) {
		t.Errorf("a failed run: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if _, err := compareFiles(io.Discard, good, short); err == nil {
		t.Error("runs of 10 s and 5 s compared without error")
	}
}

func TestFoldRawProfile(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 3
          1   10000000: 4 2
          4   40000000: 5 8 4 2
          2   20000000: 6 3
          1   10000000: 7 9 2
Locations
     1: 0x4a1 M=1 math/rand.(*rngSource).Seed /go/rng.go:223:0 s=204
     2: 0x4a2 M=1 quicspin/internal/scanner.(*emulatedEngine).connect /r/emulated.go:200:0 s=120
     3: 0x4a3 M=1 main.main /r/main.go:1:0 s=1
     4: 0x4a4 M=1 runtime.mallocgc /go/malloc.go:1000:0 s=900
             quicspin/internal/wire.ParseFrames /r/frames.go:10:0 s=5
     5: 0x4a5 M=1 runtime.scanobject /go/mgcmark.go:1:0 s=1
     6: 0x4a6 M=1 encoding/json.Marshal /go/encode.go:1:0 s=1
     7: 0x4a7 M=1 runtime.mapaccess1_faststr /go/map.go:1:0 s=1
     8: 0x4a8 M=1 runtime.gcAssistAlloc /go/mgcmark.go:400:0 s=1
     9: 0x4a9 M=1 quicspin/internal/telemetry.(*Counter).Inc /r/telemetry.go:1:0 s=1
Mappings
1: 0x400000/0x900000/0x0 /tmp/bench  [FN]
`
	got, err := foldRawProfile([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	// The reseed and the counter are billed to the scanner that called
	// them; the allocation inlined into wire is the allocator's; the assist
	// under an allocation is the collector's; json under main is other.
	want := map[string]float64{"cpu_share.scanner": 4. / 11, "cpu_share.runtime_alloc": 1. / 11, "cpu_share.runtime_gc": 4. / 11, "cpu_share.other": 2. / 11}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("folded into %v, want %v", got, want)
	}
	if _, err := foldRawProfile([]byte("Samples:\nsamples/count cpu/nanoseconds\nLocations\n")); err == nil {
		t.Error("an empty profile folded without error")
	}
}
