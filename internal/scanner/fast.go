package scanner

import (
	"time"

	"quicspin/internal/trace"
	"quicspin/internal/websim"
)

// fastEngine synthesises every connection in closed form, without packet
// emulation (see closedForm). It exists for campaign-scale runs;
// TestEnginesAgree validates it against the emulated engine.
type fastEngine struct{ scanState }

func newFastEngine(w *websim.World, cfg *Config, tally *domainTally, rec *trace.Recorder) *fastEngine {
	e := &fastEngine{}
	// The closed-form timeline is anchored at the week's campaign start, and
	// no clock advances: retry backoff only draws its jitter (nil sleep).
	start := campaignStart(cfg.Week)
	e.init(w, cfg, tally, rec, func() time.Time { return start })
	e.dial = e.cf.connect
	return e
}

func (e *fastEngine) scanDomain(d *websim.Domain, s *slabs, res *DomainResult) {
	e.runChain(d, s, res)
}

// healthy implements engine; the fast engine holds no loop state that can
// stall.
func (e *fastEngine) healthy() bool { return true }
