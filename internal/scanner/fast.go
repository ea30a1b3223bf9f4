package scanner

import (
	"time"

	"quicspin/internal/dns"
	"quicspin/internal/trace"
	"quicspin/internal/websim"
)

// fastEngine synthesises every connection in closed form, without packet
// emulation (see closedForm). It exists for campaign-scale runs;
// TestEnginesAgree validates it against the emulated engine.
type fastEngine struct {
	cfg Config
	tm  *scanTelemetry
	rec *trace.Recorder
	// clock feeds runChain's trace timestamps; bound once so the per-scan
	// call passes an existing closure instead of allocating one.
	clock    func() time.Time
	resolver *dns.Resolver
	now      time.Time
	dice     domainDice
	cf       closedForm
}

func newFastEngine(w *websim.World, cfg Config, tm *scanTelemetry, rec *trace.Recorder) *fastEngine {
	e := &fastEngine{
		cfg:  cfg,
		tm:   tm,
		rec:  rec,
		now:  campaignStart(cfg.Week),
		dice: newDomainDice(),
	}
	e.clock = func() time.Time { return e.now }
	e.cf = newClosedForm(w, cfg, tm, rec, &e.dice, e.clock)
	e.resolver = dns.NewResolver(cfg.dnsBackend(w), e.dice.dns.Rand)
	e.resolver.EnableCache()
	e.resolver.SetTelemetry(cfg.Telemetry)
	e.resolver.SetFaults(cfg.Faults)
	return e
}

func (e *fastEngine) scanDomain(d *websim.Domain, s *slabs) DomainResult {
	e.dice.reseed(e.cfg, d.Name)
	e.cf.slabs = s
	// No virtual clock to advance here: retry backoff only draws jitter
	// from the retry stream (sleep is a no-op).
	return runChain(e.cfg, e.dice.retry.Rand, e.resolver, nil, e.tm, e.rec, e.clock, d, s, e.cf.connect)
}

// healthy implements engine; the fast engine holds no loop state that can
// stall.
func (e *fastEngine) healthy() bool { return true }

// clockNow implements engine: the week's fixed campaign-start instant
// (the fast engine's closed-form timeline is anchored there).
func (e *fastEngine) clockNow() time.Time { return e.now }
