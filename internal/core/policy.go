package core

import (
	"fmt"
	"math/rand"
)

// Mode enumerates the spin-bit behaviours the paper distinguishes
// (Table 3): a spinning endpoint, the fixed-value variants used to disable
// the mechanism, and the two greasing styles RFC 9312 recommends.
type Mode int

const (
	// ModeSpin runs the RFC 9000 spin state machine.
	ModeSpin Mode = iota
	// ModeZero sends 0 on every packet ("All Zero" in the paper).
	ModeZero
	// ModeOne sends 1 on every packet ("All One").
	ModeOne
	// ModeGreasePerPacket sets the bit to an independent random value on
	// every packet.
	ModeGreasePerPacket
	// ModeGreasePerConn picks one random value per connection and keeps it.
	ModeGreasePerConn
)

// String returns the mode name used in reports.
func (m Mode) String() string {
	switch m {
	case ModeSpin:
		return "spin"
	case ModeZero:
		return "zero"
	case ModeOne:
		return "one"
	case ModeGreasePerPacket:
		return "grease-per-packet"
	case ModeGreasePerConn:
		return "grease-per-conn"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Policy configures the spin behaviour of an endpoint across connections.
type Policy struct {
	// Mode is the behaviour on connections where the spin bit is active.
	Mode Mode
	// DisableEveryN implements the RFC 9000 §17.4 mandate that even
	// endpoints using the spin bit MUST disable it on at least one in every
	// 16 connections (RFC 9312 recommends one in eight). Zero never
	// disables. Only meaningful when Mode == ModeSpin.
	DisableEveryN int
	// DisabledMode is the behaviour used on connections where
	// DisableEveryN triggered. The RFCs recommend greasing; measurements
	// show most deployments fall back to zero.
	DisabledMode Mode
}

// Controller drives the spin bit of one endpoint for one connection,
// combining the RFC state machine with a Policy. Create one per connection
// with NewController.
type Controller struct {
	state      *EndpointState
	mode       Mode // effective mode for this connection
	greaseVal  bool // fixed value for ModeGreasePerConn
	rng        *rand.Rand
	disabled   bool // this connection hit the 1-in-N disable rule
	sentFirst  bool
	packetsOut int
}

// NewController rolls the per-connection dice of the policy and returns the
// controller for a new connection. rng must be non-nil for any mode
// involving randomness (greasing or DisableEveryN > 0).
func NewController(isClient bool, p Policy, rng *rand.Rand) *Controller {
	c := &Controller{state: &EndpointState{}}
	c.Reset(isClient, p, rng)
	return c
}

// Reset makes c the controller of a new connection, reusing its storage. It
// is the whole of NewController: the same dice are rolled on rng, in the same
// order, so a recycled controller and a fresh one leave rng in the same state.
func (c *Controller) Reset(isClient bool, p Policy, rng *rand.Rand) {
	c.state.Reset(isClient)
	*c = Controller{state: c.state, mode: p.Mode, rng: rng}
	if p.Mode == ModeSpin && p.DisableEveryN > 0 && rng.Intn(p.DisableEveryN) == 0 {
		c.disabled = true
		c.mode = p.DisabledMode
	}
	if c.mode == ModeGreasePerConn {
		c.greaseVal = rng.Intn(2) == 1
	}
}

// OnReceive feeds an incoming short-header packet into the spin state
// machine. It must be called for every 1-RTT packet regardless of mode so
// that mode changes and diagnostics stay consistent.
func (c *Controller) OnReceive(pn uint64, spin bool) {
	c.state.OnReceive(pn, spin)
}

// Next returns the spin value for the next outgoing short-header packet.
func (c *Controller) Next() bool {
	c.sentFirst = true
	c.packetsOut++
	switch c.mode {
	case ModeSpin:
		return c.state.Value()
	case ModeZero:
		return false
	case ModeOne:
		return true
	case ModeGreasePerPacket:
		return c.rng.Intn(2) == 1
	case ModeGreasePerConn:
		return c.greaseVal
	default:
		return false
	}
}

// Spinning reports whether this connection actively runs the spin state
// machine (i.e. the mechanism is enabled and not disabled by the 1-in-N
// rule).
func (c *Controller) Spinning() bool { return c.mode == ModeSpin }

// DisabledByRule reports whether the RFC 1-in-N rule disabled the spin bit
// on this particular connection.
func (c *Controller) DisabledByRule() bool { return c.disabled }

// EffectiveMode returns the mode in force on this connection after the
// per-connection dice roll.
func (c *Controller) EffectiveMode() Mode { return c.mode }
