package main

import "strings"

// metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists what a user of the system sees, on every workload. One op
// is one domain due for delivery to the sink (scan workloads) or one
// datagram offered to the flow table (watch workloads), so ops_per_sec reads
// as domains/s on the former and packets/s on the latter. Each bound is set
// from its own metric's measurements on the shared 2-core reference host:
// three times the widest interquartile spread any workload showed over ten
// runs of ten seeds, rounded up to the next multiple of 5 % and capped at
// the contract's 25 %. bench/README.md records the spreads, and why the
// host, not the seeds, sets the three that sit at the cap.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_sec", "1/s", "higher", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// perLayer lists the traced run's metrics. A name's suffix fixes its unit:
// .ns and .self_ns are nanoseconds per op, .allocs heap objects per op,
// .bytes heap or wire bytes per op.
var perLayer = layerDefs(
	// Layer drives: the harness calls one layer's public functions on
	// fixed inputs.
	"wire.short_append.ns", "wire.short_parse.ns", "wire.long_append.ns", "wire.long_parse.ns",
	"wire.frames_parse.ns", "wire.frames_parse.allocs", "wire.varint.ns",
	"transport.handshake.ns", "transport.handshake.allocs", "transport.handshake.bytes",
	"transport.recv_ack.ns", "transport.recv_ack.allocs",
	"transport.stream_32k.ns", "transport.stream_32k.allocs",
	"netem.send_deliver.ns", "netem.send_deliver.allocs", "netem.attach_detach.ns",
	"sim.schedule_fire.ns", "sim.schedule_fire.allocs",
	"h3.request.ns", "h3.response_32k.ns", "h3.response_32k.allocs", "h3.response_32k.bytes",
	"qlog.packet_write.ns", "qlog.packet_write.allocs", "qlog.parse_event.ns",
	"core.observe.ns", "core.edge_step.ns", "core.spin_rtts.ns",
	"rtt.update.ns",
	"dns.lookup_miss.ns", "dns.lookup_hit.ns", "dns.lookup.allocs",
	"websim.domain_at.ns", "websim.domain_at.allocs", "websim.generate_domain.ns",
	"asdb.lookup.ns",
	"scanner.fast_domain.ns", "scanner.fast_domain.allocs", "scanner.fast_domain.bytes",
	"scanner.emulated_domain.ns", "scanner.emulated_domain.allocs", "scanner.emulated_domain.bytes",
	"scanner.emulated_conn.ns",
	"telemetry.counter_inc.ns", "telemetry.stage_span.ns",
	"analysis.add.ns", "analysis.add.allocs",
	"analysis.marshal.ns", "analysis.unmarshal.ns", "analysis.merge.ns", "analysis.render.ns",
	"analysis.codec.allocs", "analysis.blob.bytes",
	"resilience.journal_append.ns", "resilience.journal_append.allocs", "resilience.journal_record.bytes",
	"resilience.journal_rotate_append.ns", "resilience.journal_replay_record.ns", "resilience.breaker.ns",
	"shard.submit_udp.ns", "shard.submit_udp.retries:count",
	"flowtable.ingest_hit.ns", "flowtable.ingest_admit.ns", "flowtable.ingest_evict.ns",
	"flowtable.ingest_long.ns", "flowtable.snapshot.ns", "flowtable.sweep_idle.ns",
	// One emulated connection composed by the harness, span by span.
	"conn.total.ns",
	"conn.setup.self_ns", "conn.sim.self_ns", "conn.netem.self_ns",
	"conn.transport_recv.self_ns", "conn.transport_poll.self_ns", "conn.transport_timer.self_ns",
	"conn.h3_client.self_ns", "conn.h3_server.self_ns", "conn.observe.self_ns",
	"conn.packets:count", "conn.loop_events:count", "conn.allocs", "conn.explains_scanner:ratio",
	// The workload itself, measured from outside on a traced re-run.
	"run.sink_busy_share:share", "run.sink_add.ns", "run.gc_cpu_fraction:share", "run.gc_cycles:count",
	"run.packets_per_domain:count", "run.conns_per_domain:count", "run.dns_queries_per_domain:count",
	"run.dns_hit_ratio:ratio", "run.netem_drop_ratio:ratio", "run.retries_per_domain:count",
	"run.journal_bytes_per_domain:B", "run.journal_rotations:count", "run.shard_imbalance:ratio",
	"run.samples_per_flow:ratio", "run.evict_lru_per_kpkt:count", "run.parse_error_ratio:ratio",
	"run.batch_p50.ns", "run.batch_p99.ns", "run.trace_overhead:ratio",
	// CPU samples of the traced re-run folded by the leaf frame's package.
	"cpu_share.scanner:share", "cpu_share.transport:share", "cpu_share.netem:share", "cpu_share.sim:share",
	"cpu_share.h3:share", "cpu_share.wire:share", "cpu_share.core:share", "cpu_share.analysis:share",
	"cpu_share.websim_dns:share", "cpu_share.resilience_shard:share", "cpu_share.flowtable:share",
	"cpu_share.runtime_gc:share", "cpu_share.runtime_alloc:share", "cpu_share.other:share",
)

// perLayerUnit maps every per-layer name to its unit: the traced run files a
// value only under a name listed here.
var perLayerUnit = func() map[string]string {
	units := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	return units
}()

// higherIsBetter are the per-layer metrics where a larger value is the
// improvement; every other one improves downwards.
var higherIsBetter = map[string]bool{
	"conn.explains_scanner": true, "run.dns_hit_ratio": true,
	"run.samples_per_flow": true, "run.trace_overhead": true,
}

// layerDefs expands "name" (unit from its suffix) and "name:unit" entries.
func layerDefs(entries ...string) []metricDef {
	defs := make([]metricDef, 0, len(entries))
	for _, e := range entries {
		name, unit, explicit := strings.Cut(e, ":")
		if !explicit {
			unit = suffixUnit(name)
		}
		better := "lower"
		if higherIsBetter[name] {
			better = "higher"
		}
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	return defs
}

func suffixUnit(name string) string {
	switch {
	case strings.HasSuffix(name, ".ns"), strings.HasSuffix(name, ".self_ns"):
		return "ns"
	case strings.HasSuffix(name, ".allocs"):
		return "count"
	case strings.HasSuffix(name, ".bytes"):
		return "B"
	}
	panic("bench: metric " + name + " needs an explicit unit")
}

// metric is one reported value. Samples holds the per-rep values behind a
// median, for the comparer's spread test.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// record is one run of one workload: what the driver's result line carries
// plus the per-rep samples and free-form notes the comparer and the report
// use. A traced record holds the per-layer metrics the run measured; the ones
// that do not apply to its workload are absent.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"` // length of the timed phase
	Reps      int               `json:"reps"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// resultFile is what -out names: the records of one run or of a suite, with
// the host they were measured on. -compare reads two of them.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []record    `json:"runs"`
}
