package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/conformance"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/shard"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
	"quicspin/internal/transport"
	"quicspin/internal/websim"
)

// TestDebugEndpointServesScanMetrics is the -debug-addr acceptance test:
// it runs a small instrumented campaign with the debug server on an
// ephemeral port (the moral equivalent of `spinscan -debug-addr :0`) and
// scrapes /metrics, /snapshot and /debug/pprof/.
func TestDebugEndpointServesScanMetrics(t *testing.T) {
	reg := telemetry.New()
	dbg, err := telemetry.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	prof := websim.DefaultProfile()
	prof.Scale = 300_000
	world := websim.Generate(prof)
	if _, err := scanner.Run(world, scanner.Config{
		Week: 1, Engine: scanner.EngineFast, Seed: 7, Workers: 2, Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + dbg.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE spinscan_domains_total counter",
		"spinscan_conns_attempted_total",
		"spinscan_conns_succeeded_total",
		`spinscan_stage_seconds_bucket{stage="total",le="+Inf"}`,
		"dns_queries_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.Counters["spinscan_domains_total"] != int64(len(world.Domains)) {
		t.Errorf("snapshot domains = %d, want %d",
			snap.Counters["spinscan_domains_total"], len(world.Domains))
	}

	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index not served")
	}
}

// TestOptionBudget pins the option counts ROADMAP tracks, so none regrows
// unnoticed: a new flag, config field or runner option has to replace one.
// Every field of the library configs below is set by a caller outside
// tests, except the ones that pace real-time sleeps, which stay settable so
// tests can shorten them: shard.Config.RestartBackoff, and
// shard.SubmitPolicy's MaxAttempts, AckTimeout and Backoff (SubmitPolicy's
// one caller outside tests is bench/). Any other value only tests set is a
// constant.
func TestOptionBudget(t *testing.T) {
	flags := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			flags++
		}
	})
	if flags > 31 {
		t.Errorf("spinscan defines %d flags, budget 31", flags)
	}
	for _, c := range []struct {
		cfg    any
		budget int
	}{
		{scanner.Config{}, 15}, {shard.Config{}, 19}, {shard.SubmitPolicy{}, 5},
		{transport.Config{}, 6}, {transport.Budget{}, 3}, {trace.Config{}, 2},
		{resilience.JournalConfig{}, 3}, {resilience.BreakerConfig{}, 2},
		{conformance.DiffConfig{}, 7},
	} {
		exported := 0
		typ := reflect.TypeOf(c.cfg)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				exported++
			}
		}
		if exported > c.budget {
			t.Errorf("%v has %d exported fields, budget %d", typ, exported, c.budget)
		}
	}
}

// TestMain runs spinscan's main instead of the tests when SPINSCAN_ARGS
// holds a command line (one argument per line), so a test can run the
// command as a child process and read its exit code and stderr.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SPINSCAN_ARGS"); ok {
		os.Args = append([]string{"spinscan"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageErrors: command lines the campaign cannot run exit with a
// message naming the problem, before the world is generated.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		// The campaign exchanges no datagrams: a udp rule would do nothing.
		{[]string{"-faults", "udp.drop:0.05"}, 1, "udp.drop"},
		{[]string{"-faults", "udp.max-delay:2ms"}, 1, "udp.max-delay"},
		// The one merge path needs no flag.
		{[]string{"-shard-transport", "udp"}, 2, "flag provided but not defined"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "SPINSCAN_ARGS="+strings.Join(c.args, "\n"))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.code {
			t.Errorf("spinscan %s: %v, want exit status %d", strings.Join(c.args, " "), err, c.code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("spinscan %s: stderr %q does not name %q", strings.Join(c.args, " "), stderr.String(), c.want)
		}
		if strings.Contains(stderr.String(), "generating world") {
			t.Errorf("spinscan %s: generated the world before failing", strings.Join(c.args, " "))
		}
		// A plan the checks refuse never ran, so it was never armed.
		if strings.Contains(stderr.String(), "fault injection armed") {
			t.Errorf("spinscan %s: logged an armed fault plan it then refused", strings.Join(c.args, " "))
		}
	}
}

// TestValidateFlagsRejectsNegatives: a negative count (or week 0, or a
// stray positional argument) must exit naming its flag instead of being
// read as "use the default".
func TestValidateFlagsRejectsNegatives(t *testing.T) {
	if err := validateFlags(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, c := range []struct{ name, bad string }{
		{"weeks", "-1"}, {"retries", "-1"}, {"restarts", "-1"}, {"week", "0"},
		{"journal-sync", "-1"}, {"journal-segment-bytes", "-1"}, {"follow-interval", "-1s"},
	} {
		f := flag.Lookup(c.name)
		if err := flag.Set(c.name, c.bad); err != nil {
			t.Fatal(err)
		}
		if err := validateFlags(); err == nil || !strings.Contains(err.Error(), "-"+c.name+" ") {
			t.Errorf("-%s %s: validateFlags = %v, want an error naming the flag", c.name, c.bad, err)
		}
		if err := flag.Set(c.name, f.DefValue); err != nil {
			t.Fatal(err)
		}
	}

	// flag.Parse stops at the first positional argument; the flags after it
	// must not be dropped silently.
	if err := flag.CommandLine.Parse([]string{"-week", "3", "extra", "-weeks", "2"}); err != nil {
		t.Fatal(err)
	}
	err := validateFlags()
	if err := flag.CommandLine.Parse([]string{"-week", flag.Lookup("week").DefValue}); err != nil {
		t.Fatal(err)
	}
	if err == nil || !strings.Contains(err.Error(), `"extra"`) {
		t.Errorf("positional argument: validateFlags = %v, want an error naming it", err)
	}
}

func TestProgressLine(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge("spinscan_week").Set(3)
	reg.Gauge("spinscan_workers_active").Set(7)
	reg.Gauge("spinscan_workers_total").Set(8)
	reg.Gauge("spinscan_domains_population").Set(2_000_000)
	reg.Counter("spinscan_domains_total").Add(1_200_000)
	reg.Counter("spinscan_conns_attempted_total").Add(82_000)
	reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", "timeout")).Add(312)
	reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", "reset")).Add(51)
	reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", "h3")).Add(0)

	prev := telemetry.Snapshot{Counters: map[string]int64{"spinscan_conns_attempted_total": 0}}
	line := progressLine(reg.Snapshot(), prev, 2*time.Second)
	want := "week=3 shard=7/8 domains=1.2M/2M conns/s=41k errs{timeout:312,reset:51}"
	if line != want {
		t.Errorf("progress line:\n got %q\nwant %q", line, want)
	}
}

func TestHuman(t *testing.T) {
	cases := map[int64]string{0: "0", 812: "812", 1000: "1k", 41_234: "41.2k", 1_200_000: "1.2M", 2_000_000: "2M"}
	for n, want := range cases {
		if got := human(n); got != want {
			t.Errorf("human(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestStartProgressEmitsAndStops(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("spinscan_conns_attempted_total").Add(10)
	var lines []string
	stop, _ := startProgress(reg, 10*time.Millisecond, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, nil)
	time.Sleep(35 * time.Millisecond)
	stop()
	if len(lines) == 0 {
		t.Fatal("no progress lines emitted")
	}
	// Disabled reporter: stop must be a safe no-op.
	stopOff, _ := startProgress(reg, 0, func(string, ...any) { t.Error("disabled reporter emitted") }, nil)
	stopOff()
}

// TestStartProgressRetune drives the SIGHUP tunables path: a reporter
// started paused is enabled at runtime, then paused again.
func TestStartProgressRetune(t *testing.T) {
	reg := telemetry.New()
	ch := make(chan string, 64)
	stop, setEvery := startProgress(reg, 0, func(format string, args ...any) {
		ch <- fmt.Sprintf(format, args...)
	}, nil)
	defer stop()

	setEvery(5 * time.Millisecond)
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("no progress line after enabling a paused reporter")
	}

	setEvery(0)
	// Drain whatever was in flight while the pause landed, then confirm
	// silence.
	deadline := time.After(50 * time.Millisecond)
drain:
	for {
		select {
		case <-ch:
		case <-deadline:
			break drain
		}
	}
	select {
	case line := <-ch:
		t.Fatalf("paused reporter emitted %q", line)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestParseAlerts covers the -alerts spec grammar.
func TestParseAlerts(t *testing.T) {
	reg := telemetry.New()
	if rules, err := parseAlertRules(""); len(rules) != 0 || err != nil {
		t.Fatalf("empty spec: rules=%v err=%v", rules, err)
	}
	rules, err := parseAlertRules(" error-rate<=0.05, domains-per-sec>=100 ,spin-share>=0.01")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	eng := telemetry.NewAlertEngine(reg, nil)
	eng.ReplaceRules(rules)
	if firing := eng.Evaluate(); len(firing) != 1 || firing[0] != "domains-per-sec" {
		// Warm-up: no conns yet (error-rate 0, spin-share reported healthy),
		// but the throughput gauge is still zero, under the floor.
		t.Errorf("warm-up firing = %v, want [domains-per-sec]", firing)
	}
	reg.Gauge("scan_domains_per_sec").Set(500)
	reg.Counter("spinscan_conns_attempted_total").Add(100)
	reg.Counter("spinscan_conns_succeeded_total").Add(90)
	reg.Counter("spinscan_spin_flip_conns_total").Add(40)
	reg.Counter(telemetry.Name("spinscan_conn_errors_total", "class", "timeout")).Add(10)
	if firing := eng.Evaluate(); len(firing) != 1 || firing[0] != "error-rate" {
		t.Errorf("firing = %v, want [error-rate]", firing)
	}
	for _, bad := range []string{"error-rate", "error-rate<=x", "nope<=1", "<=5"} {
		if _, err := parseAlertRules(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestErrorRateCountsConnections: the error-rate alert is failed connections
// over attempted ones, so it never exceeds 1 — a domain whose DNS lookup
// failed opened no connection and counts in neither.
func TestErrorRateCountsConnections(t *testing.T) {
	prof := websim.DefaultProfile()
	prof.Scale = 40_000
	world := websim.Generate(prof)
	reg := telemetry.New()
	res, err := scanner.Run(world, scanner.Config{Week: 12, Engine: scanner.EngineFast, Seed: 1, Workers: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	dnsErrs, attempted, failed := 0, 0, 0
	for i := range res.Domains {
		d := &res.Domains[i]
		if !d.DNSErr.IsZero() {
			dnsErrs++
		}
		for _, c := range d.Conns {
			attempted++
			if c.Err != "" {
				failed++
			}
		}
	}
	if dnsErrs == 0 || failed == 0 {
		t.Fatalf("vacuous: %d DNS failures, %d failed connections", dnsErrs, failed)
	}
	snap := reg.Snapshot()
	got := alertQuantity("error-rate")(&snap)
	if want := float64(failed) / float64(attempted); got != want || got > 1 {
		t.Errorf("error-rate = %v, want %d failed / %d attempted connections = %v (with %d DNS failures)", got, failed, attempted, want, dnsErrs)
	}
}

// TestDashboardEndpointsServe wires the full -debug-addr surface the way
// main does — campaign dashboard, trace viewer, alert engine — runs a
// traced streaming scan through the live sink, and scrapes every
// endpoint.
func TestDashboardEndpointsServe(t *testing.T) {
	reg := telemetry.New()
	tracer := trace.New(trace.Config{})
	rules, err := parseAlertRules("domains-per-sec>=1")
	if err != nil {
		t.Fatal(err)
	}
	alerts := telemetry.NewAlertEngine(reg, nil)
	alerts.ReplaceRules(rules)
	live := analysis.NewLive()
	dbg, err := telemetry.StartDebugServer("127.0.0.1:0", reg,
		telemetry.Endpoint{Path: "/debug/campaign", Handler: live.Handler()},
		telemetry.Endpoint{Path: "/debug/traces", Handler: trace.Handler(tracer)},
		telemetry.Endpoint{Path: "/debug/alerts", Handler: alerts.Handler()},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	prof := websim.DefaultProfile()
	prof.Scale = 100_000
	world := websim.Generate(prof)
	acc := analysis.NewAccumulator(1, false, world.ASDB())
	cfg := scanner.Config{
		Week: 1, Engine: scanner.EngineFast, Seed: 7, Workers: 2,
		Telemetry: reg, Trace: tracer,
	}
	if err := scanner.RunStream(world, cfg, live.ShardSink(0, acc)); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + dbg.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	campaign := get("/debug/campaign")
	for _, want := range []string{"Campaign dashboard", "Rolling windows", "Table 1.", "Table 5."} {
		if !strings.Contains(campaign, want) {
			t.Errorf("/debug/campaign missing %q", want)
		}
	}
	var snap analysis.LiveSnapshot
	if err := json.Unmarshal([]byte(get("/debug/campaign?format=json")), &snap); err != nil {
		t.Fatalf("/debug/campaign?format=json: %v", err)
	}
	if snap.Totals.Domains != len(world.Domains) || len(snap.Windows) == 0 {
		t.Errorf("dashboard totals %+v over %d windows, scanned %d domains",
			snap.Totals, len(snap.Windows), len(world.Domains))
	}

	traces := get("/debug/traces")
	if !strings.Contains(traces, `"domain"`) {
		t.Errorf("/debug/traces has no traces: %.300s", traces)
	}

	alertsDoc := get("/debug/alerts")
	if !strings.Contains(alertsDoc, "domains-per-sec") {
		t.Errorf("/debug/alerts missing rule: %s", alertsDoc)
	}
}
