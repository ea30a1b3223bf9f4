package scanner

import (
	"encoding/json"
	"fmt"
	"time"

	"quicspin/internal/resilience"
	"quicspin/internal/websim"
)

// openCheckpoint wires Config.Checkpoint/Resume to a resilience.Journal:
// it replays any existing journal when resuming and opens the directory
// for appending. Both journal and replay map are nil when checkpointing is
// disabled.
func openCheckpoint(cfg Config) (*resilience.Journal, map[string]json.RawMessage, error) {
	if cfg.Checkpoint == "" {
		return nil, nil, nil
	}
	var replayed map[string]json.RawMessage
	if cfg.Resume {
		var err error
		// Torn lines (a SIGKILL mid-append) are silently skipped: the
		// affected domains are simply rescanned, deterministically.
		replayed, _, err = resilience.ReplayFS(cfg.Journal.FS, cfg.Checkpoint)
		if err != nil {
			return nil, nil, err
		}
	}
	journal, err := resilience.OpenJournalWith(cfg.Checkpoint, cfg.Journal)
	if err != nil {
		return nil, nil, err
	}
	return journal, replayed, nil
}

// checkpointPrefix is what every journal key of one run starts with; the
// domain name follows it. Week and address family are part of the key so a
// shared checkpoint directory can never leak results across scan
// configurations.
func checkpointPrefix(cfg Config) string {
	fam := "v4"
	if cfg.IPv6 {
		fam = "v6"
	}
	return fmt.Sprintf("w%d/%s/", cfg.Week, fam)
}

// replayResult looks one domain up in a replayed journal and decodes it
// into res, reporting whether it did. The JSON round trip of DomainResult is
// lossless for everything the analysis pipeline consumes (addresses as
// text, durations as nanosecond integers), so a replayed result is
// byte-identical to its live counterpart in every rendered table.
func replayResult(replayed map[string]json.RawMessage, key string, d *websim.Domain, res *DomainResult) bool {
	raw, ok := replayed[key]
	if !ok {
		return false
	}
	// A fresh slot: the decoder would otherwise reuse the storage of
	// whatever result the slot held before.
	*res = DomainResult{}
	// Corrupt or mismatched record: rescan rather than trust it.
	return json.Unmarshal(raw, res) == nil && res.Domain == d.Name
}

// breakerSkipResult records a domain an open circuit breaker refused to
// scan. It carries a distinct "breaker:" error class (not a timeout) so
// the skip is visible in tables and telemetry.
func breakerSkipResult(d *websim.Domain) DomainResult {
	return DomainResult{
		Domain: d.Name, TLD: d.TLD, Toplist: d.Toplist,
		Conns: []ConnResult{{Target: d.Host(), Err: "breaker: prefix circuit open, scan skipped"}},
	}
}

// classifyDomain buckets a finished domain by its landing outcome (the
// DNS error or first connection), which is the outcome attributable to the
// breaker group the domain was gated on.
func classifyDomain(res *DomainResult) resilience.Class {
	if res.DNSErr != "" {
		return resilience.Classify(res.DNSErr)
	}
	if len(res.Conns) > 0 {
		return resilience.Classify(res.Conns[0].Err)
	}
	return resilience.ClassNone
}

// nominalScanCost is the virtual time a non-transient scan advances its
// breaker group's clock by. Transient failures advance it by the full
// connection timeout instead — failing prefixes cool down in proportion to
// the time actually wasted on them.
const nominalScanCost = 500 * time.Millisecond

// domainOutcome converts a finished (or replayed, or skipped) domain into
// the breaker's accounting terms. It depends only on the result itself, so
// journal replay drives the breaker through exactly the transitions of the
// original run.
func domainOutcome(res *DomainResult) resilience.Outcome {
	cls := classifyDomain(res)
	switch {
	case cls == resilience.ClassBreakerOpen:
		return resilience.Outcome{Skipped: true}
	case cls.Transient():
		return resilience.Outcome{Transient: true, Cost: connTimeout}
	default:
		return resilience.Outcome{Cost: nominalScanCost}
	}
}

// breakerKey maps a domain to its breaker group (origin AS), or "" when it
// does not participate (no address to back off from). Grouping uses the
// world's ground-truth addresses and the RIS-derived prefix table — in the
// paper's setting the prefix→AS mapping is known a priori from routing
// dumps, so the assignment is independent of scan-time DNS outcomes and
// therefore of worker scheduling.
func breakerKey(w *websim.World, ipv6 bool, d *websim.Domain) string {
	addr := d.V4
	if ipv6 {
		addr = d.V6
	}
	if !addr.IsValid() {
		return "" // unresolvable: no prefix to back off from
	}
	if asn, ok := w.ASDB().Table.Lookup(addr); ok {
		return fmt.Sprintf("as-%d", asn)
	}
	return "unattributed"
}
