package analysis

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// TestLiveDoesNotChangeTables pins that attaching the dashboard is pure
// observation: a campaign streamed through Live.ShardSink renders Tables 1–5
// (and the accuracy panels) byte-identically to one streamed through the
// plain accumulator sink.
func TestLiveDoesNotChangeTables(t *testing.T) {
	p := websim.DefaultProfile()
	p.Scale = 20000
	world := websim.Generate(p)
	cfg := scanner.Config{Week: 4, Engine: scanner.EngineFast, Seed: 17, Workers: 4}

	plain := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
	if err := scanner.RunStream(world, cfg, plain.Sink()); err != nil {
		t.Fatalf("RunStream plain: %v", err)
	}
	golden := renderStreamWeek(plain)

	live := NewLive()
	acc := NewAccumulator(cfg.Week, cfg.IPv6, world.ASDB())
	if err := scanner.RunStream(world, cfg, live.ShardSink(0, acc)); err != nil {
		t.Fatalf("RunStream live: %v", err)
	}
	if got := renderStreamWeek(acc); got != golden {
		t.Error("dashboard-wrapped streaming rendering differs from plain sink")
	}

	// The dashboard's own table rendering matches the accumulator's too.
	snap := live.Snapshot()
	if len(snap.Tables) != 5 {
		t.Fatalf("snapshot has %d tables, want 5", len(snap.Tables))
	}
	if snap.Tables[0] != acc.RenderOverview().String() {
		t.Error("snapshot overview differs from accumulator rendering")
	}
	if snap.Totals.Domains == 0 || snap.Totals.Conns == 0 {
		t.Errorf("empty totals: %+v", snap.Totals)
	}
}

// TestLiveWindows checks rolling-window mechanics directly: window
// boundaries, retention, the always-present open window, and that window
// sums equal the totals while all windows are retained.
func TestLiveWindows(t *testing.T) {
	l := NewLive()
	acc := NewAccumulator(1, false, nil)
	sink := l.ShardSink(0, acc)
	ok := scanner.DomainResult{Resolved: true}
	push := func(n int) {
		for i := 0; i < n; i++ {
			if err := sink(i, &ok); err != nil {
				t.Fatal(err)
			}
		}
	}
	const half = windowSize / 2
	first := 3*windowSize + half
	push(first)
	snap := l.Snapshot()
	// 3.5 windows of domains → windows 0,1,2 closed and all retained, plus
	// the open window 3 with half a window of domains.
	if snap.WindowSize != windowSize || len(snap.Windows) != 4 {
		t.Fatalf("got %d windows of %d, want 4 of %d: %+v", len(snap.Windows), snap.WindowSize, windowSize, snap.Windows)
	}
	var sum int
	for i, w := range snap.Windows {
		sum += w.Domains
		if w.Index != i {
			t.Errorf("window %d has index %d", i, w.Index)
		}
	}
	if sum != first || snap.Totals.Domains != first {
		t.Errorf("window sum %d, totals %d, want %d", sum, snap.Totals.Domains, first)
	}
	open := snap.Windows[len(snap.Windows)-1]
	if open.Domains != half {
		t.Errorf("open window has %d domains, want %d", open.Domains, half)
	}

	// keepWindows more windows' worth closes windows 3–26; retention keeps
	// the newest keepWindows closed (3–26), windows 0–2 are evicted.
	push(keepWindows * windowSize)
	snap = l.Snapshot()
	if len(snap.Windows) != keepWindows+1 {
		t.Fatalf("after retention got %d windows, want %d", len(snap.Windows), keepWindows+1)
	}
	if first := snap.Windows[0].Index; first != 3 {
		t.Errorf("oldest retained window index %d, want 3", first)
	}
	if open := snap.Windows[keepWindows]; open.Index != keepWindows+3 || open.Domains != half {
		t.Errorf("open window %d has %d domains, want window %d with %d", open.Index, open.Domains, keepWindows+3, half)
	}
	if want := first + keepWindows*windowSize; snap.Totals.Domains != want {
		t.Errorf("totals %d, want %d", snap.Totals.Domains, want)
	}
}

// TestLiveHandler serves the dashboard both ways and checks the nil
// no-ops.
func TestLiveHandler(t *testing.T) {
	l := NewLive()
	acc := NewAccumulator(2, false, nil)
	sink := l.ShardSink(0, acc)
	d := scanner.DomainResult{Resolved: true}
	for i := 0; i < 7; i++ {
		if err := sink(i, &d); err != nil {
			t.Fatal(err)
		}
	}

	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/campaign", nil))
	if rr.Code != 200 {
		t.Fatalf("text status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{"Campaign dashboard — week 2", "Rolling windows", "Table 1.", "Table 5."} {
		if !strings.Contains(body, want) {
			t.Errorf("text dashboard missing %q:\n%s", want, body)
		}
	}

	rr = httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/campaign?format=json", nil))
	var snap LiveSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json dashboard does not parse: %v", err)
	}
	if snap.Week != 2 || snap.Totals.Domains != 7 || len(snap.Windows) == 0 {
		t.Errorf("json snapshot: %+v", snap)
	}

	var nl *Live
	if s := nl.Snapshot(); s.Totals.Domains != 0 {
		t.Error("nil Live snapshot not zero")
	}
	rr = httptest.NewRecorder()
	nl.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/campaign", nil))
	if rr.Code != 200 {
		t.Errorf("nil Live handler status %d", rr.Code)
	}
	nilSink := nl.ShardSink(0, NewAccumulator(1, false, nil))
	if err := nilSink(0, &d); err != nil {
		t.Errorf("nil Live sink: %v", err)
	}
}

// TestLiveConcurrentSinkAndDashboard hammers the dashboard handler while
// the sink is folding domains (run under -race via scripts/check.sh): the
// snapshot must always be internally consistent.
func TestLiveConcurrentSinkAndDashboard(t *testing.T) {
	l := NewLive()
	acc := NewAccumulator(1, false, nil)
	sink := l.ShardSink(0, acc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d := scanner.DomainResult{Resolved: true}
		// Enough domains that retention evicts windows while the
		// dashboard reads.
		for i := 0; i < (keepWindows+2)*windowSize; i++ {
			if err := sink(i, &d); err != nil {
				t.Errorf("sink: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		rr := httptest.NewRecorder()
		l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/campaign?format=json", nil))
		var snap LiveSnapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var sum int
		for _, w := range snap.Windows {
			sum += w.Domains
		}
		// All windows are retained while ≤ keep; afterwards the retained
		// sum can only trail the totals.
		if sum > snap.Totals.Domains {
			t.Fatalf("read %d: window sum %d exceeds totals %d", i, sum, snap.Totals.Domains)
		}
	}
	<-done
}
