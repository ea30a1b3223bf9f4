package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"quicspin/internal/telemetry"
)

// startProgress launches the periodic campaign progress reporter: every
// interval it diffs the telemetry snapshot and emits one live line via
// printf, e.g.
//
//	week=3 shard=7/8 domains=1.2M/2.0M conns/s=41k errs{timeout:312,reset:51}
//
// Each tick also evaluates the alert engine (nil disables alerting; the
// engine logs its own transition lines) and appends any firing alerts to
// the progress line. The returned stop function prints one final line and
// stops the ticker; setInterval retunes the cadence at runtime (the SIGHUP
// tunables-reload path) — zero pauses reporting until a later reload
// re-enables it. A zero initial interval starts paused (stop then prints
// nothing).
func startProgress(reg *telemetry.Registry, interval time.Duration, printf func(string, ...any), alerts *telemetry.AlertEngine) (stop func(), setInterval func(time.Duration)) {
	done := make(chan struct{})
	finished := make(chan struct{})
	reconf := make(chan time.Duration, 1)
	report := func(prev telemetry.Snapshot, dt time.Duration) telemetry.Snapshot {
		cur := reg.Snapshot()
		line := progressLine(cur, prev, dt)
		if firing := alerts.Evaluate(); len(firing) > 0 {
			line += " ALERTS[" + strings.Join(firing, ",") + "]"
		}
		printf("%s", line)
		return cur
	}
	go func() {
		defer close(finished)
		var tick *time.Ticker
		var tickC <-chan time.Time
		retune := func(d time.Duration) {
			if tick != nil {
				tick.Stop()
				tick, tickC = nil, nil
			}
			if d > 0 {
				tick = time.NewTicker(d)
				tickC = tick.C
			}
		}
		retune(interval)
		defer retune(0)
		prev := reg.Snapshot()
		prevT := time.Now()
		for {
			select {
			case <-done:
				if tickC != nil {
					report(prev, time.Since(prevT))
				}
				return
			case d := <-reconf:
				retune(d)
				prev = reg.Snapshot()
				prevT = time.Now()
			case <-tickC:
				now := time.Now()
				prev = report(prev, now.Sub(prevT))
				prevT = now
			}
		}
	}()
	stop = func() {
		close(done)
		<-finished
	}
	setInterval = func(d time.Duration) {
		// Coalesce: only the latest retune matters.
		select {
		case <-reconf:
		default:
		}
		select {
		case reconf <- d:
		case <-finished:
		}
	}
	return stop, setInterval
}

// progressLine renders one live campaign status line from the current
// snapshot and the previous tick (for the conns/s rate).
func progressLine(cur, prev telemetry.Snapshot, dt time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "week=%d", cur.Gauges["spinscan_week"])
	fmt.Fprintf(&b, " shard=%d/%d", cur.Gauges["spinscan_workers_active"], cur.Gauges["spinscan_workers_total"])
	fmt.Fprintf(&b, " domains=%s/%s",
		human(cur.Counters["spinscan_domains_total"]),
		human(cur.Gauges["spinscan_domains_population"]))

	rate := 0.0
	if dt > 0 {
		delta := cur.Counters["spinscan_conns_attempted_total"] - prev.Counters["spinscan_conns_attempted_total"]
		rate = float64(delta) / dt.Seconds()
	}
	fmt.Fprintf(&b, " conns/s=%s", human(int64(rate)))

	if errs := errSummary(cur); errs != "" {
		fmt.Fprintf(&b, " errs{%s}", errs)
	}
	return b.String()
}

// errSummary renders the non-zero connection error classes as
// "handshake-timeout:312,reset:51", largest class first.
func errSummary(s telemetry.Snapshot) string {
	const prefix = `spinscan_conn_errors_total{class="`
	type kv struct {
		class string
		n     int64
	}
	var errs []kv
	for name, n := range s.Counters {
		if n == 0 || !strings.HasPrefix(name, prefix) {
			continue
		}
		class := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
		errs = append(errs, kv{class, n})
	}
	sort.Slice(errs, func(i, j int) bool {
		if errs[i].n != errs[j].n {
			return errs[i].n > errs[j].n
		}
		return errs[i].class < errs[j].class
	})
	parts := make([]string, len(errs))
	for i, e := range errs {
		parts[i] = fmt.Sprintf("%s:%d", e.class, e.n)
	}
	return strings.Join(parts, ",")
}

// human renders a count compactly: 812, 41k, 1.2M.
func human(n int64) string {
	switch {
	case n >= 1_000_000:
		return trimZero(fmt.Sprintf("%.1fM", float64(n)/1e6))
	case n >= 1_000:
		return trimZero(fmt.Sprintf("%.1fk", float64(n)/1e3))
	default:
		return fmt.Sprintf("%d", n)
	}
}

func trimZero(s string) string {
	return strings.Replace(s, ".0", "", 1)
}
