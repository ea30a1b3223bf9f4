package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"quicspin/internal/analysis"
	"quicspin/internal/scanner"
	"quicspin/internal/shard"
	"quicspin/internal/telemetry"
	"quicspin/internal/websim"
)

// scanWorkload is one of the three scan workloads: a campaign of weekly
// scans of a generated world, folded into the streaming accumulators the
// way cmd/spinscan folds them. shards > 0 runs the weeks through the
// distributed coordinator with per-shard checkpoint journals instead.
type scanWorkload struct {
	scale   int
	weeks   []int
	engine  scanner.Engine
	shards  int
	workers int    // W, the closed loop's scanner workers (summed over shards)
	tmpRoot string // journals live in a fresh directory under it per rep

	seed   int64
	world  *websim.World
	digest [sha256.Size]byte // of the first rep's canonical Marshal
	seen   bool
	last   scanOutput
}

// scanOutput is what one pass over the weeks produced.
type scanOutput struct {
	blob []byte // canonical Marshal of the campaign (or the single week)
	week *analysis.Accumulator
	camp *analysis.CampaignAccumulator
	reg  *telemetry.Registry
	// misdelivered counts sink calls whose population index was not the
	// next one due: a skipped, repeated or reordered delivery.
	misdelivered int64
	delivered    int64
	journalBytes int64
}

func (s *scanWorkload) setup(seed int64) error {
	s.seed = seed
	prof := websim.DefaultProfile()
	prof.Scale = s.scale
	prof.Seed = seed
	s.world = websim.Generate(prof)
	return nil
}

func (s *scanWorkload) ops() int64 { return int64(len(s.weeks)) * int64(s.world.NumDomains()) }

// weekConfig mirrors spinscan's defaults: a fresh telemetry registry, no
// tracer, the week's seed derived as seed+week.
func (s *scanWorkload) weekConfig(week, workers int, reg *telemetry.Registry) scanner.Config {
	return scanner.Config{
		Week: week, Engine: s.engine, Seed: s.seed + int64(week),
		Workers: workers, Telemetry: reg,
	}
}

// orderedSink wraps the accumulator's sink with the delivery check: within
// one week, population indices must arrive as 0, 1, 2, … with none missing.
// st, when non-nil, also puts a span around every sinkSample-th call (traced
// reps only).
func orderedSink(inner func(int, *scanner.DomainResult) error, out *scanOutput, st *sinkTrace) func(int, *scanner.DomainResult) error {
	next := 0
	return func(i int, d *scanner.DomainResult) error {
		if i != next {
			out.misdelivered++
		}
		next = i + 1
		out.delivered++
		if st == nil || out.delivered%sinkSample != 0 {
			return inner(i, d)
		}
		id := st.tr.begin(st.name, st.parent, st.req)
		err := inner(i, d)
		st.tr.end(id, 1)
		return err
	}
}

// scanUnsharded runs the weeks through scanner.RunStream on the caller's
// goroutine, as spinscan's one-shot loop does.
func (s *scanWorkload) scanUnsharded(st *sinkTrace) (scanOutput, error) {
	out := scanOutput{reg: telemetry.New()}
	if len(s.weeks) == 1 {
		out.week = analysis.NewAccumulator(s.weeks[0], false, s.world.ASDB())
	} else {
		out.camp = analysis.NewCampaignAccumulator()
	}
	for _, wk := range s.weeks {
		acc := out.week
		if out.camp != nil {
			acc = out.camp.StartWeek(wk, false, s.world.ASDB())
		}
		before := out.delivered
		if err := scanner.RunStream(s.world, s.weekConfig(wk, s.workers, out.reg), orderedSink(acc.Sink(), &out, st)); err != nil {
			return out, fmt.Errorf("week %d: %w", wk, err)
		}
		if got := out.delivered - before; got != int64(s.world.NumDomains()) {
			out.misdelivered += int64(s.world.NumDomains()) - got
		}
		out.week = acc
	}
	return out, nil
}

// marshal fills blob with the canonical serialization of what was folded.
// It runs outside the measured window: the digest is the harness's check,
// not the scanner's work.
func (o *scanOutput) marshal() {
	if o.camp != nil {
		o.blob = o.camp.Marshal()
	} else {
		o.blob = o.week.Marshal()
	}
}

// scanSharded runs the weeks through shard.Run: the scanner used as a
// service, every shard journaling beside its reads and shipping its
// accumulator back through the wire format.
func (s *scanWorkload) scanSharded(dir string) (scanOutput, error) {
	out := scanOutput{reg: telemetry.New()}
	perShard := s.workers / s.shards
	if perShard < 1 {
		perShard = 1
	}
	res, err := shard.Run(s.world, shard.Config{
		Shards: s.shards,
		Weeks:  s.weeks,
		ForWeek: func(week int) scanner.Config {
			return s.weekConfig(week, perShard, out.reg)
		},
		Checkpoint:  dir,
		Transport:   shard.TransportSerialized,
		Telemetry:   out.reg,
		MaxRestarts: 2, // spinscan's -shard-restarts default; never used on a fault-free run
	})
	if err != nil {
		return out, err
	}
	v := res.Vantages[0]
	if !v.Coverage.Complete() {
		return out, errors.New("sharded campaign lost a shard")
	}
	out.camp = v.Campaign
	weeks := out.camp.Weeks()
	out.week = weeks[len(weeks)-1]
	// The coordinator owns the sinks, so deliveries are counted from its
	// per-shard telemetry instead of being watched one by one.
	out.delivered = out.reg.CounterTotal("shard_domains_total")
	out.misdelivered = s.ops() - out.delivered
	if out.misdelivered < 0 {
		out.misdelivered = -out.misdelivered
	}
	return out, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (s *scanWorkload) rep(rt *repTrace) repResult {
	res := repResult{ops: s.ops()}
	var dir string
	if s.shards > 0 {
		var err error
		if dir, err = os.MkdirTemp(s.tmpRoot, "journal-"); err != nil {
			res.fail("journal directory: %v", err)
			return res
		}
		defer os.RemoveAll(dir)
	}
	var st *sinkTrace
	if rt != nil && s.shards == 0 {
		st = rt.sink()
	}
	m := startMeasure()
	var out scanOutput
	var err error
	if s.shards > 0 {
		out, err = s.scanSharded(dir)
	} else {
		out, err = s.scanUnsharded(st)
	}
	res.measure = m.stop()
	if err != nil {
		res.fail("scan: %v", err)
		return res
	}
	out.marshal()
	if s.shards > 0 {
		out.journalBytes = dirBytes(dir)
	}
	if out.misdelivered != 0 || out.delivered != res.ops {
		res.fail("delivery: %d of %d population indices delivered, %d out of order or missing", out.delivered, res.ops, out.misdelivered)
	}
	sum := sha256.Sum256(out.blob)
	if !s.seen {
		s.digest, s.seen = sum, true
	} else if sum != s.digest {
		res.fail("accumulator digest %x differs from the first rep's %x", sum[:6], s.digest[:6])
	}
	s.last = out
	if rt != nil {
		s.traceMetrics(rt, &out, st, res.measure.wall)
	}
	return res
}

// finish runs the checks that need no repetition: the merged sharded
// campaign against an unsharded scan of the same weeks, and the shape bands
// of DESIGN.md §4 on the last rep's tables.
func (s *scanWorkload) finish() []string {
	var failures []string
	if s.last.blob == nil {
		return []string{"no completed rep to check"}
	}
	if s.shards > 0 {
		ref, err := s.scanUnsharded(nil)
		if err == nil {
			ref.marshal()
		}
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("unsharded reference scan: %v", err))
		case !bytes.Equal(ref.blob, s.last.blob):
			failures = append(failures, fmt.Sprintf("merged sharded campaign (%d B) differs from the unsharded one (%d B)", len(s.last.blob), len(ref.blob)))
		}
	}
	return append(failures, s.shapeFailures()...)
}

// shapeFailures holds the last rep's tables against the paper's headline
// shapes (DESIGN.md §4). The bands cover what world seeds 1 to 11 and
// spinscan's default produce (spin share 10-15 %, all-zero 85-90 %, spinning
// in all twelve weeks 10-28 %) with room to spare; each is widened by four
// binomial standard errors of its denominator, so the smoke pass's hundred
// QUIC domains pass the same code as the full population. They catch a scan
// that classifies nothing or everything, not a percentage point of drift.
func (s *scanWorkload) shapeFailures() []string {
	var failures []string
	band := func(what string, num, den int, lo, hi float64) {
		if den == 0 {
			failures = append(failures, what+": empty denominator")
			return
		}
		mid := (lo + hi) / 2
		slack := 4 * math.Sqrt(mid*(1-mid)/float64(den))
		if v := float64(num) / float64(den); v < lo-slack || v > hi+slack {
			failures = append(failures, fmt.Sprintf("%s = %d/%d = %.4f outside [%g, %g] ± %.3f", what, num, den, v, lo, hi, slack))
		}
	}
	for _, row := range s.last.week.OverviewRows() {
		if row.Label != "CZDS" {
			continue
		}
		band("CZDS resolved share of domains", row.ResolvedDomains, row.TotalDomains, 0.80, 0.90)
		band("CZDS QUIC share of resolved domains", row.QUICDomains, row.ResolvedDomains, 0.09, 0.15)
		band("CZDS spin share of QUIC domains", row.SpinDomains, row.QUICDomains, 0.07, 0.18)
	}
	for _, row := range s.last.week.ConfigRows() {
		if row.Label != "CZDS" {
			continue
		}
		band("CZDS all-zero share of QUIC domains", row.AllZero, row.QUICDomains, 0.80, 0.95)
		band("CZDS all-one share of QUIC domains", row.AllOne, row.QUICDomains, 0, 0.02)
	}
	if s.engine == scanner.EngineEmulated {
		h := s.last.week.Headlines()
		band("Fig. 3 overestimate share of spinning connections", int(math.Round(h.OverestimateShare*float64(h.N))), h.N, 0.95, 1)
	}
	if s.last.camp != nil && len(s.weeks) >= 12 {
		l := s.last.camp.Longitudinal()
		band("Fig. 2 share spinning in every week", int(math.Round(l.Share[l.Weeks]*float64(l.Considered))), l.Considered, 0.05, 0.40)
	}
	return failures
}

// traceMetrics derives the run.* counts of a traced scan rep from the
// registry the scan filled and the sink's own clock reads.
func (s *scanWorkload) traceMetrics(rt *repTrace, out *scanOutput, st *sinkTrace, wall time.Duration) {
	reg, domains := out.reg, float64(out.delivered)
	if domains == 0 {
		return
	}
	count := func(base string) float64 { return float64(reg.CounterTotal(base)) }
	rt.set("run.packets_per_domain", count("netem_packets_sent_total")/domains)
	rt.set("run.conns_per_domain", count("spinscan_conns_attempted_total")/domains)
	rt.set("run.dns_queries_per_domain", count("dns_queries_total")/domains)
	rt.set("run.retries_per_domain", count("retries_total")/domains)
	if lookups := count("dns_cache_hits_total") + count("dns_cache_misses_total"); lookups > 0 {
		rt.set("run.dns_hit_ratio", count("dns_cache_hits_total")/lookups)
	}
	if sent := count("netem_packets_sent_total"); sent > 0 {
		rt.set("run.netem_drop_ratio", count("netem_packets_dropped_total")/sent)
	}
	if s.shards > 0 {
		rt.set("run.journal_bytes_per_domain", float64(out.journalBytes)/domains)
		rt.set("run.journal_rotations", float64(reg.Gauge("journal_segment_rotations").Value()))
		var most float64
		for si := 0; si < s.shards; si++ {
			if n := float64(reg.Counter(telemetry.Name("shard_domains_total", "shard", strconv.Itoa(si))).Value()); n > most {
				most = n
			}
		}
		rt.set("run.shard_imbalance", most*float64(s.shards)/domains)
	}
	if st != nil {
		// Every sinkSample-th call carries a span; the sink's busy share
		// scales the sampled time back up to all calls.
		var sampled float64
		calls := st.tr.spans[st.first:]
		perCall := make([]float64, len(calls))
		for i := range calls {
			perCall[i] = float64(calls[i].end - calls[i].start)
			sampled += perCall[i]
		}
		rt.set("run.sink_busy_share", sampled*sinkSample/float64(wall))
		rt.set("run.sink_add.ns", median(perCall))
	}
}
