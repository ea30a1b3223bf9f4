package scanner

import (
	"encoding/json"
	"fmt"

	"quicspin/internal/dns"
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
	if json.Unmarshal(raw, res) != nil || res.Domain != d.Name {
		return false
	}
	// The journal holds the error text only: classify it as the scan did.
	for i := range res.Conns {
		res.Conns[i].setErr(res.Conns[i].Err)
	}
	return true
}

// classifyDomain buckets a finished domain by its landing outcome: the DNS
// failure's kind, or else its first connection's class.
func classifyDomain(res *DomainResult) resilience.Class {
	if !res.DNSErr.IsZero() {
		return dnsClass(res.DNSErr.Kind)
	}
	if len(res.Conns) > 0 {
		return res.Conns[0].ErrClass
	}
	return resilience.ClassNone
}

// dnsClass is the resilience class of a DNS failure of kind k: the class
// resilience.Classify gives the failure's text.
func dnsClass(k dns.Kind) resilience.Class {
	switch k {
	case dns.NXDomain:
		return resilience.ClassNXDomain
	case dns.Timeout:
		return resilience.ClassDNSTimeout
	case dns.NoRecord:
		return resilience.ClassNoRecord
	}
	return resilience.ClassNone
}
