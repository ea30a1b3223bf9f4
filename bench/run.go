package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"quicspin/internal/scanner"
)

// workload is one set of inputs the benchmark runs. setup builds the inputs
// from the seed (world generation, packet traces); rep makes one closed-loop
// pass over them and checks its own outputs; finish runs the checks that
// need no repetition, after timing.
type workload interface {
	setup(seed int64) error
	rep(rt *repTrace) repResult
	finish() []string
}

// sizes fixes every population and iteration count. The full benchmark and
// the toy -smoke pass differ only here.
type sizes struct {
	fastScale, emulatedScale, shardScale int
	fastWeeks, shardWeeks                []int
	emulatedWeek, shards                 int

	residentFlows, residentWraps int // wraps of the 512-packets-per-flow trace per rep
	churnSlots, churnLive        int
	churnDatagrams               int // offered per rep, over all feeders

	seconds                  float64 // length of the timed phase: reps are made until it has passed
	setups, minReps, maxReps int
	setupSeconds             float64
	tracedReps               int // traced reps, each after an untraced one
	driveSpans               int // timed spans per layer drive
	driveDivisor             int // divides every drive's calls per span
	driveScale               int // population divisor of the drives' world
	connections              int // composed emulated connections
}

var fullSizes = sizes{
	fastScale: 4000, emulatedScale: 4000, shardScale: 4000,
	fastWeeks: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, shardWeeks: []int{10, 11, 12},
	emulatedWeek: 12, shards: 2,
	residentFlows: 1024, residentWraps: 48,
	churnSlots: 1024, churnLive: 1536, churnDatagrams: 12 << 20,
	seconds: 10, // BENCHMARK.json's run_seconds
	setups:  3, setupSeconds: 0.5, minReps: 5, maxReps: 64, tracedReps: 2,
	driveSpans: 200, driveDivisor: 1, driveScale: 200000, connections: 2000,
}

var smokeSizes = sizes{
	fastScale: 200000, emulatedScale: 200000, shardScale: 200000,
	fastWeeks: fullSizes.fastWeeks, shardWeeks: fullSizes.shardWeeks,
	emulatedWeek: 12, shards: 2,
	residentFlows: 64, residentWraps: 3,
	churnSlots: 64, churnLive: 96, churnDatagrams: 100_000,
	setups: 1, minReps: 2, maxReps: 2, tracedReps: 1,
	driveSpans: 3, driveDivisor: 100, driveScale: 2000000,
	connections: 100, // enough that one collector pause is not a tenth of their time
}

// maxSetups caps the repeats of a cheap set-up.
const maxSetups = 25

type workloadDef struct {
	name, why string
	build     func(sz sizes, workers int, tmpRoot string) workload
}

var workloadDefs = []workloadDef{
	{"longitudinal_fast", "Fig. 2 campaign: 12 fast-engine weeks into one campaign fold; websim, dns, asdb, stream pipeline and the serial sink work, the packet layers are bypassed",
		func(sz sizes, w int, _ string) workload {
			return &scanWorkload{scale: sz.fastScale, weeks: sz.fastWeeks, engine: scanner.EngineFast, workers: w}
		}},
	{"week_emulated", "Tables 1-3, Figs. 3-4: one packet-level week; transport, netem, sim, h3, wire, core and the GC carry the time, so an emulated-engine gain must show here",
		func(sz sizes, w int, _ string) workload {
			return &scanWorkload{scale: sz.emulatedScale, weeks: []int{sz.emulatedWeek}, engine: scanner.EngineEmulated, workers: w}
		}},
	{"sharded_journaled", "scanner as a service: 2 shards, 3 weeks, per-shard checkpoint journals, serialized merge; journal, codec, Merge and supervisor run nowhere else",
		func(sz sizes, w int, tmp string) workload {
			return &scanWorkload{scale: sz.shardScale, weeks: sz.shardWeeks, engine: scanner.EngineFast, shards: sz.shards, workers: w, tmpRoot: tmp}
		}},
	{"watch_resident", "flow table floor: one feeder, 1024 resident flows in 4096 slots, minimum-size packets; lookup, header parse and edge step with no admission, eviction or lock sharing",
		func(sz sizes, _ int, _ string) workload {
			return &residentWorkload{flows: sz.residentFlows, wraps: sz.residentWraps}
		}},
	{"watch_churn", "flow table under churn: W feeders, 1.5x capacity of 64-datagram flows, long-header first packets, 1% garbage; admission, LRU eviction and the table mutex",
		func(sz sizes, w int, _ string) workload {
			return &churnWorkload{feeders: w, slots: sz.churnSlots, live: sz.churnLive, datagrams: sz.churnDatagrams}
		}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// measure is what one rep cost: wall time and heap allocation, both taken
// around the system's work only.
type measure struct {
	wall       time.Duration
	allocBytes uint64
	allocs     uint64
}

type measuring struct {
	m0 runtime.MemStats
	t0 time.Time
}

func startMeasure() *measuring {
	m := &measuring{}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return m
}

func (m *measuring) stop() measure {
	wall := time.Since(m.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return measure{wall: wall, allocBytes: m1.TotalAlloc - m.m0.TotalAlloc, allocs: m1.Mallocs - m.m0.Mallocs}
}

// repResult is one rep's outcome. A failed check fails every op of the rep.
type repResult struct {
	ops      int64
	measure  measure
	failures []string
}

func (r *repResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// repTrace is handed to traced reps: the tracer to record spans in, the
// rep's own span to parent them under, and a place for the run.* values the
// workload derives from outside the system.
type repTrace struct {
	tr   *tracer
	root int32
	req  int32
	vals map[string][]float64
}

func (rt *repTrace) set(name string, v float64) { rt.vals[name] = append(rt.vals[name], v) }

// sinkSample is how many sink deliveries go by between two that carry a
// span: a span around every one of a million deliveries would cost more
// than the fold it times.
const sinkSample = 64

type sinkTrace struct {
	tr                *tracer
	name, parent, req int32
	first             int // index of the sink's first span
}

func (rt *repTrace) sink() *sinkTrace {
	return &sinkTrace{tr: rt.tr, name: rt.tr.name("run.sink_add"), parent: rt.root, req: rt.req, first: len(rt.tr.spans)}
}

type options struct {
	seed    int64
	trace   bool
	layers  bool // traced run: also the layer drives and the composed connection
	sz      sizes
	tmpRoot string    // scratch directory inside the checkout
	out     io.Writer // human-readable progress and metric lines
}

// runWorkload measures one workload in this process and returns its record.
func runWorkload(def workloadDef, opt options) record {
	workers := loadWorkers()
	runtime.GOMAXPROCS(workers)
	rec := record{Workload: def.name, Seed: opt.seed, Trace: opt.trace, Seconds: opt.sz.seconds, Metrics: map[string]metric{}}
	fmt.Fprintf(opt.out, "# %s seed=%d trace=%v W=GOMAXPROCS=%d nproc=%d %s scratch-fs=%s\n",
		def.name, opt.seed, opt.trace, workers, runtime.NumCPU(), runtime.Version(), fsType(opt.tmpRoot))

	// Set-up is timed several times over and reported as the median. Each
	// one starts from a fresh workload value with the previous one's inputs
	// collected, so peak RSS never holds two sets. Cheap set-ups are
	// repeated more often, until they add up to setupSeconds, so that a
	// millisecond-sized median is as steady as a second-sized one.
	var wl workload
	var setups []float64
	for total := 0.0; len(setups) < opt.sz.setups || (total < opt.sz.setupSeconds && len(setups) < maxSetups); total += setups[len(setups)-1] {
		wl = nil
		runtime.GC()
		wl = def.build(opt.sz, workers, opt.tmpRoot)
		t0 := time.Now()
		if err := wl.setup(opt.seed); err != nil {
			rec.Notes = append(rec.Notes, "setup: "+err.Error())
			rec.Attempted, rec.Failed = 1, 1
			return rec
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var failed bool
	note := func(rep string, r repResult) {
		rec.Attempted += r.ops
		if len(r.failures) > 0 {
			rec.Failed += r.ops
		}
		for _, f := range r.failures {
			rec.Notes = append(rec.Notes, fmt.Sprintf("%s: %s", rep, f))
			fmt.Fprintf(opt.out, "FAIL %s %s: %s\n", def.name, rep, f)
			failed = true
		}
	}

	// One warm-up rep fills caches and lazy state; its timing is dropped
	// but its output is the reference the timed reps must reproduce.
	if warm := wl.rep(nil); len(warm.failures) > 0 {
		note("warm-up", warm)
	}

	var post []string
	if opt.trace {
		post = runTraced(def, wl, opt, &rec, note)
	} else {
		var rate, bytesPerOp, allocsPerOp []float64
		var ops int64
		var sum measure
		start := time.Now()
		for n := 0; n < opt.sz.maxReps && (n < opt.sz.minReps || time.Since(start).Seconds() < opt.sz.seconds); n++ {
			r := wl.rep(nil)
			note(fmt.Sprintf("rep %d", n+1), r)
			rate = append(rate, float64(r.ops)/r.measure.wall.Seconds())
			bytesPerOp = append(bytesPerOp, float64(r.measure.allocBytes)/float64(r.ops))
			allocsPerOp = append(allocsPerOp, float64(r.measure.allocs)/float64(r.ops))
			ops += r.ops
			sum.allocBytes += r.measure.allocBytes
			sum.allocs += r.measure.allocs
			rec.Reps++
		}
		rss, rssNote := peakRSSMiB()
		if rssNote != "" {
			rec.Notes = append(rec.Notes, rssNote)
		}
		rec.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: setups}
		rec.Metrics["ops_per_sec"] = metric{Value: median(rate), Unit: "1/s", Samples: rate}
		rec.Metrics["alloc_bytes_per_op"] = metric{Value: float64(sum.allocBytes) / float64(ops), Unit: "B", Samples: bytesPerOp}
		rec.Metrics["allocs_per_op"] = metric{Value: float64(sum.allocs) / float64(ops), Unit: "count", Samples: allocsPerOp}
		rec.Metrics["peak_rss_mib"] = metric{Value: rss, Unit: "MiB"}
	}

	for _, f := range append(post, wl.finish()...) {
		rec.Notes = append(rec.Notes, "checks: "+f)
		fmt.Fprintf(opt.out, "FAIL %s checks: %s\n", def.name, f)
		rec.Failed = rec.Attempted
		failed = true
	}
	rec.Correct = !failed && rec.Attempted > 0
	return rec
}

// runTraced is the traced run: a few reps without spans for the reference
// throughput and as many with, all under a CPU profile, then — they do not
// depend on the workload — the layer drives and the composed connection.
// End-to-end metrics are never taken from it. Only what was measured is
// filed: a run.* or cpu_share.* metric that does not apply to the workload
// stays out of the record.
func runTraced(def workloadDef, wl workload, opt options, rec *record, note func(string, repResult)) (failures []string) {
	tr := newTracer()
	vals := map[string]float64{}

	// Untraced and traced reps alternate under one CPU profile, so drift
	// and the profiler's own cost fall on both sides of the overhead ratio.
	var untraced, traced []float64
	rt := &repTrace{tr: tr, vals: map[string][]float64{}}
	repName := tr.name("run.rep")
	gc0 := readGCMetrics()
	prof, profNote := startCPUProfile(opt.tmpRoot)
	for n := 0; n < opt.sz.tracedReps; n++ {
		r := wl.rep(nil)
		note(fmt.Sprintf("untraced rep %d", n+1), r)
		untraced = append(untraced, float64(r.ops)/r.measure.wall.Seconds())

		rt.req = int32(n + 1)
		rt.root = tr.begin(repName, -1, rt.req)
		r = wl.rep(rt)
		tr.end(rt.root, int(r.ops))
		note(fmt.Sprintf("traced rep %d", n+1), r)
		traced = append(traced, float64(r.ops)/r.measure.wall.Seconds())
		rec.Reps++
	}
	shares, shareNote := prof.stopAndFold()
	gc1 := readGCMetrics()
	for _, n := range []string{profNote, shareNote} {
		if n != "" {
			rec.Notes = append(rec.Notes, n)
			fmt.Fprintf(opt.out, "note: %s\n", n)
		}
	}
	for name, v := range rt.vals {
		vals[name] = median(v)
	}
	for name, v := range shares {
		vals[name] = v
	}
	vals["run.trace_overhead"] = median(traced) / median(untraced)
	vals["run.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	if cpu := gc1.totalCPU - gc0.totalCPU; cpu > 0 {
		vals["run.gc_cpu_fraction"] = (gc1.gcCPU - gc0.gcCPU) / cpu
	}

	if opt.layers {
		t0 := time.Now()
		runLayerDrives(tr, opt, vals)
		t1 := time.Now()
		failures = runConnections(tr, opt, vals)
		fmt.Fprintf(opt.out, "# layer drives took %.1f s, %d composed connections %.1f s\n", t1.Sub(t0).Seconds(), opt.sz.connections, time.Since(t1).Seconds())
	}

	if opt.tmpRoot != "" {
		path := opt.tmpRoot + "/trace-" + def.name + ".json"
		if err := tr.write(path); err != nil {
			rec.Notes = append(rec.Notes, "trace: "+err.Error())
		} else {
			fmt.Fprintf(opt.out, "# %d spans written to %s\n", len(tr.spans), path)
		}
	}
	for name, v := range vals {
		unit, listed := perLayerUnit[name]
		if !listed {
			panic("bench: per-layer metric " + name + " is not in the table")
		}
		rec.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return failures
}

type gcMetrics struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

func readGCMetrics() gcMetrics {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g gcMetrics
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	return g
}
