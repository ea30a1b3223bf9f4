package analysis

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"quicspin/internal/report"
	"quicspin/internal/scanner"
	"quicspin/internal/stats"
)

// WindowStats is one rolling-window slice of campaign progress: counts
// over a fixed number of consecutively delivered domains. Windows are
// count-based rather than time-based so the dashboard is deterministic
// under virtual time and independent of wall-clock scheduling.
type WindowStats struct {
	// Index numbers windows from 0 in delivery order (campaign-global,
	// continuing across weeks).
	Index int `json:"index"`
	// Week is the measurement week the window started in.
	Week int `json:"week"`
	// Domains counts delivered domains; Resolved those with DNS answers.
	Domains  int `json:"domains"`
	Resolved int `json:"resolved"`
	// QUIC counts domains with at least one successful QUIC connection;
	// Spin those whose domain class is Spin.
	QUIC int `json:"quic"`
	Spin int `json:"spin"`
	// Conns counts connection attempts; ConnErrs the failed ones.
	Conns    int `json:"conns"`
	ConnErrs int `json:"conn_errs"`
}

func (w *WindowStats) fold(d *scanner.DomainResult, cls Class) {
	w.Domains++
	if d.Resolved {
		w.Resolved++
	}
	if d.QUIC() {
		w.QUIC++
	}
	if cls == ClassSpin {
		w.Spin++
	}
	w.Conns += len(d.Conns)
	for i := range d.Conns {
		if d.Conns[i].Err != "" {
			w.ConnErrs++
		}
	}
}

// Live is the campaign's live dashboard state: it rides on the streaming
// accumulators (wrapping their sink) and additionally maintains
// count-based rolling windows, so /debug/campaign can show both the
// cumulative Tables 1–5 and the recent-trend view mid-scan. All methods
// are safe for concurrent use; a nil *Live is a valid no-op, so the scan
// path needs no dashboard branches.
type Live struct {
	mu       sync.Mutex
	accs     map[int]*Accumulator // latest week accumulator per shard
	vantage  string
	totals   WindowStats
	cur      WindowStats
	windows  []WindowStats // closed, oldest first, ≤ keepWindows
	restarts int           // supervised shard restarts
	lost     map[int]bool  // shards abandoned by the supervisor
}

// The dashboard's rolling windows: windowSize domains each, the newest
// keepWindows closed ones retained.
const (
	windowSize  = 1000
	keepWindows = 24
)

// NewLive creates dashboard state.
func NewLive() *Live {
	return &Live{}
}

// ShardSink wraps the delivery callback of one shard's week accumulator:
// each domain folds into acc (that shard's cumulative tables) and into the
// shared rolling window. Call once per shard per week with that week's
// accumulator; windows continue across weeks. The dashboard retains the
// latest accumulator per shard and renders tables from a merged snapshot, so
// /debug/campaign shows campaign-wide Tables 1–5 while shards scan
// concurrently. All shard sinks serialise on one mutex — the dashboard is a
// coordinator-side view, not a hot path. Nil-safe: a nil Live returns acc's
// own sink.
func (l *Live) ShardSink(shard int, acc *Accumulator) func(i int, d *scanner.DomainResult) error {
	if l == nil {
		return acc.Sink()
	}
	l.mu.Lock()
	if l.accs == nil {
		l.accs = map[int]*Accumulator{}
	}
	l.accs[shard] = acc
	delete(l.lost, shard) // lost last week, planned again this week
	l.cur.Week = acc.Week
	l.mu.Unlock()
	return func(_ int, d *scanner.DomainResult) error {
		l.mu.Lock()
		defer l.mu.Unlock()
		cls := acc.Add(d)
		l.cur.fold(d, cls)
		l.totals.fold(d, cls)
		if l.cur.Domains >= windowSize {
			l.roll()
		}
		return nil
	}
}

// SetVantage labels the dashboard with the vantage point currently
// scanning (shown in /debug/campaign). Nil-safe.
func (l *Live) SetVantage(name string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.vantage = name
	l.mu.Unlock()
}

// NoteRestart records one supervised shard-worker restart (shown in
// /debug/campaign). A restarted shard re-registers its accumulator via
// ShardSink, so the cumulative tables stay exact; only the rolling-window
// counters see the replayed deliveries twice. Nil-safe.
func (l *Live) NoteRestart(shard int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.restarts++
	l.mu.Unlock()
}

// NoteLost records a shard abandoned by the supervisor for the week being
// scanned; the dashboard's tables then cover the population minus that
// shard's range, until its next scan registers through ShardSink. Nil-safe.
func (l *Live) NoteLost(shard int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.lost == nil {
		l.lost = map[int]bool{}
	}
	l.lost[shard] = true
	// A lost shard's partial accumulator must not leak into the merged
	// tables: its last attempt died mid-range.
	delete(l.accs, shard)
	l.mu.Unlock()
}

// roll closes the current window. Caller holds l.mu.
func (l *Live) roll() {
	l.windows = append(l.windows, l.cur)
	if len(l.windows) > keepWindows {
		// Oldest-first eviction keeps the ring at keepWindows closed
		// windows, so a follow-mode campaign running for months holds a
		// fixed dashboard.
		copy(l.windows, l.windows[1:])
		l.windows = l.windows[:keepWindows]
	}
	l.cur = WindowStats{Index: l.cur.Index + 1, Week: l.cur.Week}
}

// LiveSnapshot is the /debug/campaign JSON document.
type LiveSnapshot struct {
	Week       int         `json:"week"`
	WindowSize int         `json:"window_size"`
	Totals     WindowStats `json:"totals"`
	// Shards is the number of shard accumulators feeding the dashboard
	// (1 for an unsharded campaign); Vantage labels the scanning location
	// when the campaign set one.
	Shards  int    `json:"shards"`
	Vantage string `json:"vantage,omitempty"`
	// Restarts counts supervised shard-worker restarts; LostShards lists
	// shards the supervisor abandoned (their ranges are missing from the
	// tables below).
	Restarts   int   `json:"restarts,omitempty"`
	LostShards []int `json:"lost_shards,omitempty"`
	// Windows holds the retained closed windows followed by the current
	// open one (so the document is non-empty from the first domain).
	Windows []WindowStats `json:"windows"`
	// Tables are the rendered cumulative Tables 1–5 for the current week.
	Tables []string `json:"tables"`
}

// Snapshot captures the dashboard state, rendering Tables 1–5 from the
// current week's accumulators — merged across shards when the campaign is
// sharded. Shards progress independently, so the snapshot merges the
// shards that have reached the newest (Week, IPv6); clones are taken via
// the wire-format round-trip under the same mutex every Add holds, so the
// scan never observes the merge. Nil-safe (returns a zero snapshot).
func (l *Live) Snapshot() LiveSnapshot {
	if l == nil {
		return LiveSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := LiveSnapshot{WindowSize: windowSize, Totals: l.totals, Vantage: l.vantage, Shards: len(l.accs), Restarts: l.restarts}
	for shard := range l.lost {
		snap.LostShards = append(snap.LostShards, shard)
	}
	sort.Ints(snap.LostShards)
	snap.Windows = append(snap.Windows, l.windows...)
	snap.Windows = append(snap.Windows, l.cur)
	if acc := l.mergedLocked(); acc != nil {
		snap.Week = acc.Week
		for _, t := range []*report.Table{
			acc.RenderOverview(), acc.RenderOrgTable(8),
			acc.RenderSpinConfig(), acc.RenderSoftwareTable(),
			acc.RenderErrorClasses(),
		} {
			snap.Tables = append(snap.Tables, t.String())
		}
	}
	return snap
}

// mergedLocked merges the shard accumulators that have reached the newest
// started (Week, IPv6) into a fresh clone. Caller holds l.mu. With one
// shard it still clones — renderers then never race with concurrent Adds.
func (l *Live) mergedLocked() *Accumulator {
	var lead *Accumulator
	for _, a := range l.accs {
		if lead == nil || a.Week > lead.Week || (a.Week == lead.Week && a.IPv6 && !lead.IPv6) {
			lead = a
		}
	}
	if lead == nil {
		return nil
	}
	merged := lead.clone()
	for _, a := range l.accs {
		if a != lead && a.Week == lead.Week && a.IPv6 == lead.IPv6 {
			// Merge clones: Merge consumes its argument's maps, and the
			// shard accumulator must keep folding.
			_ = merged.Merge(a.clone())
		}
	}
	return merged
}

// renderText renders the dashboard as plain text: totals line, the
// rolling-window table, then the cumulative tables.
func renderText(s *LiveSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign dashboard — week %d", s.Week)
	if s.Shards > 1 {
		fmt.Fprintf(&b, " · %d shards", s.Shards)
	}
	if s.Vantage != "" {
		fmt.Fprintf(&b, " · vantage %s", s.Vantage)
	}
	if s.Restarts > 0 {
		fmt.Fprintf(&b, " · %d restart(s)", s.Restarts)
	}
	if len(s.LostShards) > 0 {
		fmt.Fprintf(&b, " · lost shards %v", s.LostShards)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "Totals: domains=%s resolved=%s quic=%s spin=%s conns=%s conn_errs=%s\n\n",
		report.Count(s.Totals.Domains), report.Count(s.Totals.Resolved),
		report.Count(s.Totals.QUIC), report.Count(s.Totals.Spin),
		report.Count(s.Totals.Conns), report.Count(s.Totals.ConnErrs))
	wt := report.NewTable(
		fmt.Sprintf("Rolling windows (%d domains each; last row is the open window)", s.WindowSize),
		"Window", "Week", "Domains", "Resolved", "QUIC", "Spin", "Spin%", "Conns", "Errs", "Err%")
	for i := range s.Windows {
		w := &s.Windows[i]
		wt.AddRow(strconv.Itoa(w.Index), strconv.Itoa(w.Week),
			report.Count(w.Domains), report.Count(w.Resolved),
			report.Count(w.QUIC), report.Count(w.Spin), stats.Percent(w.Spin, w.QUIC),
			report.Count(w.Conns), report.Count(w.ConnErrs), stats.Percent(w.ConnErrs, w.Conns))
	}
	b.WriteString(wt.String())
	for _, t := range s.Tables {
		b.WriteByte('\n')
		b.WriteString(t)
	}
	return b.String()
}

// Handler serves the dashboard on /debug/campaign: plain text by default,
// the LiveSnapshot document with ?format=json. A nil Live serves an
// empty-but-valid document, so wiring the endpoint is unconditional.
func (l *Live) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := l.Snapshot()
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(&snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprint(w, renderText(&snap))
	})
}
