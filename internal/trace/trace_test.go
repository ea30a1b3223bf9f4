package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2022, 4, 11, 0, 0, 0, 0, time.UTC)

// record writes one complete trace through the public recorder API.
func record(r *Recorder, domain string, dur time.Duration, outcome, errStr string) {
	r.Begin(domain, t0)
	r.StageStart("dns", t0)
	r.StageEnd(t0.Add(dur / 4))
	r.StageStart("connect", t0.Add(dur/4))
	r.SpanAttrInt("hop", 0)
	r.StageEnd(t0.Add(dur))
	r.AttrInt("retries", 1)
	r.Error(errStr)
	r.End(t0.Add(dur), outcome)
}

func TestRecorderBuildsTraces(t *testing.T) {
	tr := New(Config{})
	r := tr.Recorder(0)
	record(r, "a.example", 10*time.Millisecond, "ok", "")
	record(r, "b.example", 20*time.Millisecond, "dns-timeout", "dns: timeout")

	recent := tr.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("recent = %d traces, want 2", len(recent))
	}
	// Newest first: b.example ended later.
	b := recent[0]
	if b.Domain != "b.example" || b.Outcome != "dns-timeout" || b.Err != "dns: timeout" {
		t.Fatalf("unexpected trace: %+v", b)
	}
	if len(b.Spans) != 2 || b.Spans[0].Stage != "dns" || b.Spans[1].Stage != "connect" {
		t.Fatalf("spans = %+v", b.Spans)
	}
	if got := b.Spans[1].Attrs[0]; got.Key != "hop" || got.Int != 0 {
		t.Fatalf("span attr = %+v", got)
	}
	if b.Duration() != 20*time.Millisecond {
		t.Fatalf("duration = %v", b.Duration())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New(Config{})
	r := tr.Recorder(0)
	const pushed = ringSize + 2
	for i := 0; i < pushed; i++ {
		record(r, fmt.Sprintf("d%d", i), time.Duration(i+1)*time.Millisecond, "ok", "")
	}
	recent := tr.Recent(0)
	if len(recent) != ringSize {
		t.Fatalf("ring holds %d traces, want %d", len(recent), ringSize)
	}
	// Newest first: d65 down to d2; d0 and d1 were evicted.
	for i, tc := range recent {
		if want := fmt.Sprintf("d%d", pushed-1-i); tc.Domain != want {
			t.Fatalf("recent[%d] = %s, want %s", i, tc.Domain, want)
		}
	}
}

func TestPendingAttrsDrainIntoNextTrace(t *testing.T) {
	tr := New(Config{})
	r := tr.Recorder(2)
	r.Pending("breaker", "open")
	record(r, "x.example", time.Millisecond, "breaker-open", "breaker: open")
	got := tr.Recent(1)[0]
	if len(got.Attrs) == 0 || got.Attrs[0].Key != "breaker" || got.Attrs[0].Str != "open" {
		t.Fatalf("attrs = %+v", got.Attrs)
	}
	// Pending attrs must not leak into the trace after next.
	record(r, "y.example", time.Millisecond, "ok", "")
	for _, a := range tr.Recent(1)[0].Attrs {
		if a.Key == "breaker" {
			t.Fatalf("pending attr leaked: %+v", a)
		}
	}
}

func TestExemplarsKeepSlowestAndFailedPerClass(t *testing.T) {
	tr := New(Config{})
	r := tr.Recorder(0)
	const slow, failed = exemplars + 4, exemplars + 2
	for i := 1; i <= slow; i++ {
		record(r, fmt.Sprintf("s%d", i), time.Duration(i)*time.Millisecond, "ok", "")
	}
	for i := 1; i <= failed; i++ {
		record(r, fmt.Sprintf("f%d", i), time.Millisecond, "dns-timeout", "dns: timeout")
	}
	record(r, "other", time.Millisecond, "reset", "conn reset")

	ex := tr.Exemplars()
	if len(ex.Slowest) != exemplars {
		t.Fatalf("slowest = %d, want %d", len(ex.Slowest), exemplars)
	}
	// Slowest first: s12 down to s5.
	for i, tc := range ex.Slowest {
		if want := fmt.Sprintf("s%d", slow-i); tc.Domain != want {
			t.Fatalf("slowest[%d] = %s, want %s", i, tc.Domain, want)
		}
	}
	// The most recent failures, oldest first: f3 up to f10.
	fails := ex.Failed["dns-timeout"]
	if len(fails) != exemplars {
		t.Fatalf("dns-timeout exemplars = %d, want %d", len(fails), exemplars)
	}
	for i, tc := range fails {
		if want := fmt.Sprintf("f%d", failed-exemplars+1+i); tc.Domain != want {
			t.Fatalf("dns-timeout exemplar %d = %s, want %s", i, tc.Domain, want)
		}
	}
	if len(ex.Failed["reset"]) != 1 {
		t.Fatalf("reset exemplars = %d, want 1", len(ex.Failed["reset"]))
	}
}

func TestAbortCommitsPartialTraceAndDumps(t *testing.T) {
	dir := t.TempDir()
	var logged []string
	tr := New(Config{Dir: dir, Logf: func(f string, a ...any) {
		logged = append(logged, f)
	}})
	r := tr.Recorder(1)
	record(r, "before.example", time.Millisecond, "ok", "")
	r.Begin("crash.example", t0)
	r.StageStart("connect", t0)
	r.Error("panic: injected")
	r.Abort("panic")

	files, err := filepath.Glob(filepath.Join(dir, "flight-*-panic.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("dump files = %v (err %v), want one", files, err)
	}
	d, err := ReadFlightDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "panic" || d.Domain != "crash.example" || d.Worker != 1 {
		t.Fatalf("dump header = %+v", d)
	}
	var found *Trace
	for _, tc := range d.Traces {
		if tc.Domain == "crash.example" {
			found = tc
		}
	}
	if found == nil {
		t.Fatal("dump does not contain the crashing domain's trace")
	}
	if found.Outcome != "panic" || len(found.Spans) == 0 || found.Spans[0].Stage != "connect" {
		t.Fatalf("crash trace = %+v", found)
	}
	if len(logged) == 0 {
		t.Fatal("no structured warning logged for the dump")
	}
}

func TestMarkDumpTriggersAfterCommit(t *testing.T) {
	dir := t.TempDir()
	tr := New(Config{Dir: dir})
	r := tr.Recorder(0)
	r.Begin("budget.example", t0)
	r.MarkDump("budget")
	r.End(t0.Add(time.Millisecond), "hostile")
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*-budget.json"))
	if len(files) != 1 {
		t.Fatalf("dump files = %v, want one budget dump", files)
	}
	d, err := ReadFlightDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// The dump must include the committed trace that triggered it.
	if len(d.Traces) != 1 || d.Traces[0].Domain != "budget.example" {
		t.Fatalf("dump traces = %+v", d.Traces)
	}
}

func TestMaxDumpsCapsFiles(t *testing.T) {
	dir := t.TempDir()
	tr := New(Config{Dir: dir})
	r := tr.Recorder(0)
	const marked = maxDumps + 3
	for i := 0; i < marked; i++ {
		r.Begin("d.example", t0)
		r.MarkDump("stall")
		r.End(t0, "stall")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != maxDumps {
		t.Fatalf("dump files = %d, want %d (capped)", len(files), maxDumps)
	}
	if tr.LastDumpCount() != marked {
		t.Fatalf("dump count = %d, want %d", tr.LastDumpCount(), marked)
	}
}

func TestNilTracerAndRecorderAreNoOps(t *testing.T) {
	var tr *Tracer
	r := tr.Recorder(3)
	if r != nil {
		t.Fatal("nil tracer handed out a non-nil recorder")
	}
	// Every method must be callable on the nil recorder.
	r.Begin("x", t0)
	r.Pending("k", "v")
	r.Attr("k", "v")
	r.AttrInt("k", 1)
	r.StageStart("dns", t0)
	r.StageEnd(t0)
	r.SpanAttr("k", "v")
	r.SpanAttrInt("k", 1)
	r.Error("boom")
	r.MarkDump("stall")
	r.End(t0, "ok")
	r.Abort("panic")
	if r.Active() {
		t.Fatal("nil recorder reports active")
	}
	if got := tr.Recent(10); got != nil {
		t.Fatalf("nil tracer Recent = %v", got)
	}
	if got := tr.Exemplars(); got.Slowest != nil {
		t.Fatalf("nil tracer Exemplars = %+v", got)
	}
	tr.dumpFlight("stall", 0, "x")
}

func TestHandlerJSONAndText(t *testing.T) {
	tr := New(Config{})
	r := tr.Recorder(0)
	record(r, "ok.example", 5*time.Millisecond, "ok", "")
	record(r, "bad.example", 7*time.Millisecond, "reset", "connection reset")

	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc struct {
		Recent []*Trace            `json:"recent"`
		Ex     map[string]any      `json:"exemplars"`
		Failed map[string][]*Trace `json:"-"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(doc.Recent) != 2 {
		t.Fatalf("recent = %d", len(doc.Recent))
	}

	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=text&n=1", nil))
	body := rec.Body.String()
	for _, want := range []string{"recent traces (1)", "bad.example", "outcome=reset", "connection reset", "failed exemplars: reset"} {
		if !strings.Contains(body, want) {
			t.Fatalf("text view missing %q in:\n%s", want, body)
		}
	}
}

func TestHandlerNilTracerServesEmptyDoc(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"recent": []`) {
		t.Fatalf("nil tracer body: %s", rec.Body.String())
	}
}

// TestConcurrentRingWritesAndReads is the race-detector gate for the
// flight ring: workers commit traces while the dashboard reads recent
// traces and exemplars.
func TestConcurrentRingWritesAndReads(t *testing.T) {
	tr := New(Config{})
	const workers = 4
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := tr.Recorder(w)
			for i := 0; i < 500; i++ {
				outcome, errStr := "ok", ""
				if i%7 == 0 {
					outcome, errStr = "timeout", "timeout: no response"
				}
				record(r, "d.example", time.Duration(i)*time.Microsecond, outcome, errStr)
			}
		}(w)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		h := Handler(tr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Recent(16)
			tr.Exemplars()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=4", nil))
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := len(tr.Recent(0)); got != ringSize*workers {
		t.Fatalf("retained %d traces, want %d", got, ringSize*workers)
	}
}

func TestDumpFailureIsNonFatal(t *testing.T) {
	// Point the dump dir at a path that cannot be a directory.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged int
	tr := New(Config{Dir: filepath.Join(file, "sub"), Logf: func(string, ...any) { logged++ }})
	r := tr.Recorder(0)
	r.Begin("x.example", t0)
	r.Abort("panic")
	if logged == 0 {
		t.Fatal("dump failure not logged")
	}
}
