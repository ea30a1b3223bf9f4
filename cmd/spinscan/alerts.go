package main

import (
	"fmt"
	"strconv"
	"strings"

	"quicspin/internal/telemetry"
)

// parseAlertRules parses an -alerts spec into rules for an AlertEngine.
// The spec is a comma-separated list of `<quantity><op><threshold>` terms,
// where op is `<=` (ceiling) or `>=` (floor) and the quantities are
// derived from the campaign's telemetry snapshot:
//
//	error-rate           failed / attempted connections (ceiling, typically)
//	domains-per-sec      campaign throughput gauge (floor)
//	spin-share           spin-flipping / succeeded connections (floor)
//	checkpoint-degraded  the scan_checkpoint_degraded gauge (ceiling of 0:
//	                     fires while the journal has disabled itself)
//
// An empty spec is an empty rule set.
func parseAlertRules(spec string) ([]telemetry.Rule, error) {
	var rules []telemetry.Rule
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		op, idx := telemetry.OpAbove, strings.Index(term, "<=")
		if idx < 0 {
			op, idx = telemetry.OpBelow, strings.Index(term, ">=")
		}
		if idx <= 0 {
			return nil, fmt.Errorf("term %q: want <quantity><=|>=<threshold>", term)
		}
		name := strings.TrimSpace(term[:idx])
		threshold, err := strconv.ParseFloat(strings.TrimSpace(term[idx+2:]), 64)
		if err != nil {
			return nil, fmt.Errorf("term %q: bad threshold: %v", term, err)
		}
		value := alertQuantity(name)
		if value == nil {
			return nil, fmt.Errorf("term %q: unknown quantity %q (have error-rate, domains-per-sec, spin-share, checkpoint-degraded)", term, name)
		}
		rules = append(rules, telemetry.Rule{Name: name, Value: value, Op: op, Threshold: threshold})
	}
	return rules, nil
}

// alertQuantity maps a spec name to its snapshot measurement; nil for
// unknown names.
func alertQuantity(name string) func(*telemetry.Snapshot) float64 {
	switch name {
	case "error-rate":
		return func(s *telemetry.Snapshot) float64 {
			attempted := s.Counters["spinscan_conns_attempted_total"]
			if attempted == 0 {
				return 0
			}
			var failed int64
			for name, n := range s.Counters {
				if strings.HasPrefix(name, `spinscan_conn_errors_total{`) {
					failed += n
				}
			}
			return float64(failed) / float64(attempted)
		}
	case "domains-per-sec":
		return func(s *telemetry.Snapshot) float64 {
			return float64(s.Gauges["scan_domains_per_sec"])
		}
	case "checkpoint-degraded":
		return func(s *telemetry.Snapshot) float64 {
			return float64(s.Gauges["scan_checkpoint_degraded"])
		}
	case "spin-share":
		return func(s *telemetry.Snapshot) float64 {
			ok := s.Counters["spinscan_conns_succeeded_total"]
			if ok == 0 {
				// No successes yet: report a healthy share so the floor
				// alert does not fire during warm-up.
				return 1
			}
			return float64(s.Counters["spinscan_spin_flip_conns_total"]) / float64(ok)
		}
	}
	return nil
}
