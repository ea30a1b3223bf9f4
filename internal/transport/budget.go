package transport

import (
	"fmt"
	"time"

	"quicspin/internal/wire"
)

// Budget kinds, used as telemetry labels (budget_exceeded_total{kind}) and
// to map a tripped budget back to the hostile-endpoint profile that
// characteristically trips it.
const (
	// BudgetRecvBytes caps total datagram bytes received.
	BudgetRecvBytes = "recv-bytes"
	// BudgetRecvPackets caps total packets processed.
	BudgetRecvPackets = "recv-packets"
	// BudgetMalformedDatagram caps datagrams whose header fails to parse.
	BudgetMalformedDatagram = "malformed-datagram"
	// BudgetMalformedFrame caps packets whose frames fail to parse.
	BudgetMalformedFrame = "malformed-frame"
)

// Budget bounds the resources one connection may consume on received
// traffic, so a hostile peer can waste at most a fixed amount of scanner
// memory and time before the connection is torn down with a BudgetError.
// A zero field means unlimited; the zero Budget disables all limits.
type Budget struct {
	// MaxRecvBytes is the total datagram byte budget.
	MaxRecvBytes int
	// MaxRecvPackets is the total received-packet budget.
	MaxRecvPackets int
	// MaxMalformed is the number of tolerated malformed datagrams or
	// packets (header or frame parse failures) before the connection is
	// closed. Occasional corruption is tolerated; a stream of it is not.
	MaxMalformed int
}

// DefaultBudget is the scanner's per-connection budget: generous against
// any honest response (the simulated web serves at most a few hundred KB
// over a few hundred packets) but tight enough that amplification storms
// and malformed-traffic floods are cut off deterministically.
func DefaultBudget() Budget {
	return Budget{
		MaxRecvBytes:   16 << 20,
		MaxRecvPackets: 1024,
		MaxMalformed:   3,
	}
}

// BudgetError is the terminal error of a connection that exceeded one of
// its resource budgets. The scanner classifies it into the "hostile:*"
// error family instead of retrying.
type BudgetError struct {
	// Kind is the exceeded budget (BudgetRecvBytes etc.).
	Kind string
	// Limit is the configured limit that was crossed.
	Limit int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("transport: budget exceeded: %s limit %d", e.Kind, e.Limit)
}

// tripBudget terminates the connection over an exceeded budget: it records
// the terminal error, marks the budget as tripped (all further Receive
// calls return immediately) and queues a CONNECTION_CLOSE so the peer
// stops transmitting.
func (c *Conn) tripBudget(now time.Time, kind string, limit int64) error {
	err := &BudgetError{Kind: kind, Limit: limit}
	c.budgetTripped = true
	if c.termErr == nil {
		c.termErr = err
	}
	if c.state < stateClosing {
		c.state = stateClosing
		// 0x2: INTERNAL_ERROR — the closest RFC 9000 transport code for
		// "I refuse to process more of this".
		c.closeFrame = wire.ConnectionCloseFrame{ErrorCode: 0x2, Reason: "resource budget exceeded"}
		c.drainDeadline = now.Add(3 * c.estimator.PTO(true))
	}
	return err
}
