// Command spinscan runs the measurement campaign of the paper against the
// synthetic web: it generates a scaled-down population (ICANN-zone and
// toplist domains over hosting organisations), scans every domain over
// QUIC-lite in virtual time, prints the adoption tables, and optionally
// writes per-connection qlog traces for cmd/spinalyze.
//
// Usage:
//
//	spinscan -scale 2000 -week 12 -summary
//	spinscan -scale 2000 -weeks 12 -engine fast -qlog-dir ./qlogs
//	spinscan -scale 2000 -weeks 4 -shards 8 -vantages "local,far:30+5"
//	spinscan -scale 2000 -follow -shards 4 -checkpoint ./journal -journal-retain-weeks 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/asdb"
	"quicspin/internal/fault"
	"quicspin/internal/report"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/shard"
	"quicspin/internal/telemetry"
	"quicspin/internal/trace"
	"quicspin/internal/websim"
)

// The flags live at package level so tests can count and set them.
var (
	scale           = flag.Int("scale", 2000, "population scale divisor (1000 = 216k CZDS domains)")
	seed            = flag.Int64("seed", 20230515, "world generation seed")
	hostileFrac     = flag.Float64("hostile-frac", 0, "fraction of QUIC servers assigned a hostile-endpoint misbehavior profile (0-1)")
	week            = flag.Int("week", 12, "campaign week to scan (>= 1; the paper's campaign spans weeks 1-12)")
	weeks           = flag.Int("weeks", 0, "scan this many consecutive weeks instead of one")
	ipv6            = flag.Bool("ipv6", false, "scan AAAA targets (Table 4 view)")
	engine          = flag.String("engine", "emulated", "scan engine: emulated or fast")
	workers         = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	qlogDir         = flag.String("qlog-dir", "", "write per-connection qlog traces to this directory")
	asdbOut         = flag.String("asdb-out", "", "write the world's prefix→ASN→org snapshot here (for spinalyze -asdb)")
	summary         = flag.Bool("summary", true, "print adoption tables after scanning")
	debugAddr       = flag.String("debug-addr", "", "serve /metrics, /snapshot and /debug/pprof on this address (e.g. :9090)")
	progressEvery   = flag.Duration("progress", 5*time.Second, "progress report interval (0 disables)")
	retries         = flag.Int("retries", 0, "per-domain retry budget for transient failures (0 disables)")
	checkpoint      = flag.String("checkpoint", "", "journal completed domains to this directory (enables -resume)")
	resume          = flag.Bool("resume", false, "replay the -checkpoint journal and scan only the remainder")
	lazyWorld       = flag.Bool("lazy-world", false, "synthesise domains and servers on demand instead of materialising the population: same tables, less memory, slower")
	traceOn         = flag.Bool("trace", false, "record per-domain stage traces into the flight recorder (serves /debug/traces with -debug-addr)")
	traceDir        = flag.String("trace-dir", "", "write flight-recorder dumps (panic/stall/budget postmortems) to this directory; implies -trace")
	alertSpec       = flag.String("alerts", "", `threshold alerts evaluated each progress tick, e.g. "error-rate<=0.05,domains-per-sec>=100,spin-share>=0.01"`)
	shards          = flag.Int("shards", 0, "split the population into this many concurrently scanned shards (0 = unsharded)")
	vantagesSpec    = flag.String("vantages", "", `scan from multiple vantage points, e.g. "local,far:30+5" (name[:extra_delay_ms[+jitter_ms]], comma-separated)`)
	restarts        = flag.Int("restarts", 2, "restart budget per population range per week: a scan that fails (an error or a panic) is relaunched from its journal this many times before the range is declared lost (unsharded, that fails the campaign)")
	strictShards    = flag.Bool("strict-shards", false, "abort the campaign when any shard exhausts its restart budget instead of merging the survivors with a coverage report")
	faultSpec       = flag.String("faults", "", `chaos-test fault plan, one grammar for every layer, e.g. "seed:3,fs.short-write:0.1,shard.crash:1@40x2,dns.timeout:0.3/2,net.blackout:0.1/1,scan.interrupt:5000" (see internal/fault)`)
	followMode      = flag.Bool("follow", false, "continuous campaign service: keep scanning week after week from week 1 (bound with -weeks, stop with SIGINT/SIGTERM)")
	followInterval  = flag.Duration("follow-interval", 0, "pause between consecutive weeks (interruptible; 0 = back to back)")
	retainWeeks     = flag.Int("journal-retain-weeks", 0, "after each completed week, remove the -checkpoint week directories older than the last N weeks (0 keeps all)")
	journalSync     = flag.Int("journal-sync", 0, "fsync the checkpoint journal after the batch write that carries its N-th unsynced record (0 = only on rotation and close; 1 = every record is fsynced before its result is delivered)")
	journalSegBytes = flag.Int64("journal-segment-bytes", 0, "rotate checkpoint journal segments past this size (0 disables size-based rotation)")
	tunablesPath    = flag.String("tunables", "", "runtime tunables file overlaying -alerts and -progress (same keys, same checks); SIGHUP reloads it without restart")
)

// validateFlags rejects the command lines the campaign would silently
// misread, naming the flag. The two reloadable settings are checked by
// settings.validate instead, the same way for a flag and a tunables file.
func validateFlags() error {
	if flag.NArg() > 0 {
		// flag.Parse stops at the first positional argument, so every flag
		// after it would be dropped without a word.
		return fmt.Errorf("unexpected argument %q: spinscan takes flags only", flag.Arg(0))
	}
	for _, f := range []struct {
		name, want string
		ok         bool
	}{
		// The scale is a population divisor: zero or negative values would
		// send world generation into nonsense (or enormous) populations.
		{"scale", "> 0", *scale > 0},
		// Week 0 precedes every deployment window, so nothing would spin.
		{"week", ">= 1", *week >= 1},
		{"hostile-frac", "in [0, 1]", *hostileFrac >= 0 && *hostileFrac <= 1},
		{"shards", ">= 0", *shards >= 0},
		{"weeks", ">= 0", *weeks >= 0},
		{"retries", ">= 0", *retries >= 0},
		{"restarts", ">= 0", *restarts >= 0},
		{"journal-sync", ">= 0", *journalSync >= 0},
		{"journal-segment-bytes", ">= 0", *journalSegBytes >= 0},
		{"follow-interval", ">= 0", *followInterval >= 0},
	} {
		if !f.ok {
			return fmt.Errorf("-%s must be %s (got %s)", f.name, f.want, flag.Lookup(f.name).Value)
		}
	}
	return nil
}

func main() {
	flag.Parse()

	if err := validateFlags(); err != nil {
		log.Fatal(err)
	}
	faults, err := fault.Parse(*faultSpec)
	if err != nil {
		log.Fatalf("-faults: %v", err)
	}

	eng := scanner.EngineEmulated
	switch *engine {
	case "emulated":
	case "fast":
		eng = scanner.EngineFast
	default:
		log.Fatalf("unknown engine %q", *engine)
	}

	reg := telemetry.New()

	// -trace-dir implies tracing; the tracer is nil when disabled, and a
	// nil tracer hands the scan path nil no-op recorders.
	var tracer *trace.Tracer
	if *traceOn || *traceDir != "" {
		tracer = trace.New(trace.Config{Dir: *traceDir, Logf: log.Printf})
	}

	// The reloadable settings: the flags, overlaid by the -tunables file.
	tun, err := newTunables(reg, *tunablesPath, log.Printf)
	if err != nil {
		log.Fatal(err)
	}

	// The week schedule: -week is that one week, -weeks N is weeks 1..N, and
	// -follow alone starts at week 1 and runs until signalled.
	weekList := []int{*week}
	if *weeks > 0 || *followMode {
		weekList = []int{1}
		for wk := 2; wk <= *weeks; wk++ {
			weekList = append(weekList, wk)
		}
	}
	vantages, err := parseVantages(*vantagesSpec)
	if err != nil {
		log.Fatalf("-vantages: %v", err)
	}
	// The per-week scan template. The runner owns the week and the journal
	// layout, so -checkpoint and -resume go to it, not here.
	baseCfg := scanner.Config{
		IPv6: *ipv6, Engine: eng, Workers: *workers,
		Telemetry: reg, Trace: tracer,
		Retry: resilience.RetryPolicy{MaxRetries: *retries},
		Journal: resilience.JournalConfig{
			SyncEvery:    *journalSync,
			SegmentBytes: *journalSegBytes,
		},
	}
	if faults != nil {
		baseCfg.Faults = faults
		baseCfg.Journal.FS = resilience.NewFaultFS(nil, faults)
	}

	// The live dashboard rides on the runner's sinks; it stays nil (a valid
	// no-op sink wrapper) without a debug endpoint to serve it.
	var live *analysis.Live
	if *debugAddr != "" {
		live = analysis.NewLive()
	}
	interrupt := make(chan struct{})
	campCfg := shard.Config{
		Shards:           *shards,
		Weeks:            weekList,
		UntilInterrupted: *followMode && *weeks == 0,
		Interval:         *followInterval,
		Vantages:         vantages,
		ForWeek: func(week int) scanner.Config {
			cfg := baseCfg
			cfg.Seed = *seed + int64(week)
			log.Printf("scanning week %d (%s, ipv6=%v)...", week, *engine, cfg.IPv6)
			return cfg
		},
		Interrupt:    interrupt,
		Checkpoint:   *checkpoint,
		Resume:       *resume,
		RetainWeeks:  *retainWeeks,
		Telemetry:    reg,
		Live:         live,
		MaxRestarts:  *restarts,
		StrictShards: *strictShards,
		Faults:       faults,
		Logf:         log.Printf,
	}
	if *qlogDir != "" {
		// One trace file per connection, written as each domain is delivered;
		// several vantages get a subdirectory each, like their journals.
		campCfg.Tee = func(vantage string, sc scanner.Config) func(int, *scanner.DomainResult) error {
			dir := *qlogDir
			if len(vantages) > 1 {
				dir = filepath.Join(dir, vantage)
			}
			_ = os.MkdirAll(dir, 0o755) // a failure surfaces as os.Create's error on the first trace
			return scanner.QlogSink(sc.Week, sc.IPv6, func(name string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(dir, name))
			})
		}
	}
	// Validate the flag-derived configs once, before any scanning: the
	// runner would reject them anyway, but failing before world generation
	// is friendlier.
	if err := baseCfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := campCfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if faults != nil {
		log.Printf("fault injection armed: %s", *faultSpec)
	}

	// First SIGINT/SIGTERM stops the campaign gracefully (completed domains
	// stay in the -checkpoint journal); a second one kills the process. The
	// exit code records which signal stopped us — 130 for SIGINT, 143 for
	// SIGTERM (128+signal, the shell convention) — so a supervisor can tell
	// an operator's ^C from its own orchestrated stop.
	var sigCode atomic.Int32
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		sigCode.Store(int32(exitCodeFor(s)))
		log.Printf("%v: stopping after in-flight domains (press again to abort)", s)
		close(interrupt)
		s = <-sigCh
		os.Exit(exitCodeFor(s))
	}()

	// Liveness (/livez) is the process answering; readiness (/readyz) flips
	// to 503 while the checkpoint journal is degraded — scanning continues,
	// but a supervisor should know checkpoints are suspended.
	health := telemetry.NewHealth()
	health.AddCheck("checkpoint", func() (bool, string) {
		if reg.Gauge("scan_checkpoint_degraded").Value() != 0 {
			return false, "checkpoint journal degraded after storage failures (scanning continues; checkpoints suspended)"
		}
		return true, ""
	})
	if *debugAddr != "" {
		dbg, err := telemetry.StartDebugServer(*debugAddr, reg,
			telemetry.Endpoint{Path: "/debug/campaign", Handler: live.Handler()},
			telemetry.Endpoint{Path: "/debug/traces", Handler: trace.Handler(tracer)},
			telemetry.Endpoint{Path: "/debug/alerts", Handler: tun.alerts.Handler()},
			telemetry.Endpoint{Path: "/livez", Handler: health.LiveHandler()},
			telemetry.Endpoint{Path: "/readyz", Handler: health.ReadyHandler()},
		)
		if err != nil {
			log.Fatalf("debug-addr: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoint on http://%s (/metrics, /snapshot, /livez, /readyz, /debug/campaign, /debug/traces, /debug/alerts, /debug/pprof/)", dbg.Addr())
	}

	prof := websim.DefaultProfile()
	prof.Scale = *scale
	prof.Seed = *seed
	prof.HostileFrac = *hostileFrac
	log.Printf("generating world (scale 1/%d)...", *scale)
	var world *websim.World
	if *lazyWorld {
		world = websim.GenerateLazy(prof)
		log.Printf("population: %d domains (lazily synthesised)", world.NumDomains())
	} else {
		world = websim.Generate(prof)
		log.Printf("population: %d domains, %d servers", world.NumDomains(), world.NumServers())
	}

	if *asdbOut != "" {
		fh, err := os.Create(*asdbOut)
		if err != nil {
			log.Fatalf("asdb-out: %v", err)
		}
		res := world.ASDB()
		if err := asdb.WriteSnapshot(fh, res.Table, res.Orgs, world.Prefixes()); err != nil {
			log.Fatalf("asdb snapshot: %v", err)
		}
		fh.Close()
		log.Printf("wrote asdb snapshot to %s", *asdbOut)
	}

	nw := *workers
	if nw == 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	reg.Gauge("spinscan_workers_total").Set(int64(nw))

	stopProgress := tun.startProgress(reg, log.Printf)
	// exitInterrupted ends a gracefully stopped campaign: say how to pick it
	// up again, then exit with the stopping signal's code.
	exitInterrupted := func() {
		stopProgress()
		if *checkpoint != "" {
			log.Printf("campaign interrupted; resume with: spinscan -checkpoint %s -resume (plus the original flags)", *checkpoint)
		} else {
			log.Printf("campaign interrupted (no -checkpoint journal; a rerun starts from scratch)")
		}
		if code := int(sigCode.Load()); code != 0 {
			os.Exit(code)
		}
		os.Exit(130)
	}

	if *tunablesPath != "" {
		// SIGHUP overlays the file again on the installed settings.
		hupCh := make(chan os.Signal, 1)
		signal.Notify(hupCh, syscall.SIGHUP)
		go func() {
			for range hupCh {
				if err := tun.reload(*tunablesPath); err != nil {
					log.Printf("tunables reload: %v (keeping previous settings)", err)
					continue
				}
				log.Printf("tunables reloaded: %v", tun.get())
			}
		}()
	}
	// One campaign runner for every mode: a one-shot run, the -follow service
	// and a sharded, multi-vantage scan-out are the same week loop, so any
	// combination of them prints what its unsharded one-shot equivalent
	// prints. Every domain flows straight into the incremental aggregators
	// (and the qlog export, when asked for) and is dropped — memory stays
	// bounded by the aggregate state, not the population.
	if campCfg.UntilInterrupted {
		log.Printf("follow mode: continuous campaign from week 1 (stop with SIGINT/SIGTERM)...")
	}
	res, err := shard.Run(world, campCfg)
	if errors.Is(err, scanner.ErrInterrupted) {
		log.Printf("campaign: %d week(s) completed", len(res.Vantages[0].Campaign.Weeks()))
		exitInterrupted()
	}
	if err != nil {
		log.Fatal(err)
	}
	camp := res.Vantages[0].Campaign
	stopProgress()

	if !*summary {
		return
	}
	wks := camp.Weeks()
	a := wks[len(wks)-1]
	tables := []*report.Table{
		a.RenderOverview(), a.RenderOrgTable(8), a.RenderSpinConfig(),
		a.RenderSoftwareTable(), a.RenderErrorClasses(),
	}
	if len(wks) > 1 {
		tables = append(tables, analysis.RenderLongitudinal(camp.Longitudinal()))
	}
	if len(res.Vantages) > 1 {
		tables = append(tables, shard.RenderAgreement(res))
	}
	// A degraded merge (lost shards, no -strict-shards) ships its coverage
	// accounting with the tables: which shards survived, what domain ranges
	// are missing, and a per-table confidence caveat.
	if cov := res.Vantages[0].Coverage; !cov.Complete() {
		for _, tb := range tables {
			if note := cov.Confidence(tb.Title); note != "" {
				log.Printf("coverage: %s", note)
			}
		}
		tables = append(tables, shard.RenderCoverage(cov))
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()
	fmt.Print(camp.RenderAccuracy(4))
}

// exitCodeFor maps a stopping signal to the conventional 128+signal exit
// code: 130 for SIGINT, 143 for SIGTERM.
func exitCodeFor(s os.Signal) int {
	if s == syscall.SIGTERM {
		return 143
	}
	return 130
}

// parseVantages parses the -vantages flag: comma-separated vantage specs of
// the form name[:extra_delay_ms[+jitter_ms]]. The extra delay is one-way
// (it shows up twice in the RTT); an empty spec means no multi-vantage
// campaign.
func parseVantages(spec string) ([]scanner.Vantage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []scanner.Vantage
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("empty vantage spec in %q", spec)
		}
		v := scanner.Vantage{Name: item}
		if name, params, ok := strings.Cut(item, ":"); ok {
			if name == "" {
				return nil, fmt.Errorf("vantage %q has no name", item)
			}
			v.Name = name
			delayStr, jitterStr, hasJitter := strings.Cut(params, "+")
			delayMs, err := strconv.ParseFloat(delayStr, 64)
			if err != nil || delayMs < 0 {
				return nil, fmt.Errorf("vantage %q: bad delay %q", item, delayStr)
			}
			v.ExtraDelay = time.Duration(delayMs * float64(time.Millisecond))
			if hasJitter {
				jitterMs, err := strconv.ParseFloat(jitterStr, 64)
				if err != nil || jitterMs < 0 {
					return nil, fmt.Errorf("vantage %q: bad jitter %q", item, jitterStr)
				}
				v.ExtraJitter = time.Duration(jitterMs * float64(time.Millisecond))
			}
		}
		out = append(out, v)
	}
	return out, nil
}
