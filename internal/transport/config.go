// Package transport implements QUIC-lite: a sans-IO QUIC version 1
// endpoint sufficient for the paper's measurement study. It speaks the RFC
// 9000 wire format (long/short headers, varints, the latency spin bit in
// short-header packets), performs a simplified 1-RTT handshake with mock
// crypto, generates and processes ACKs, runs RFC 9002 loss recovery and RTT
// estimation, and carries stream data for the HTTP/3-lite layer.
//
// Connections are poll-driven and hold no goroutines or sockets: callers
// feed datagrams in with Conn.Receive, collect outgoing datagrams with
// Conn.Poll, and drive timers with Conn.Advance. The same code therefore
// runs deterministically under the virtual-time network emulator
// (internal/netem) and over real UDP sockets (internal/udprun).
//
// Substitution note (see DESIGN.md): real QUIC encrypts everything behind
// TLS 1.3. None of the quantities the paper measures depend on payload
// confidentiality, so the CRYPTO frames carry a mock handshake transcript
// instead. Header fields — including the spin bit — are bit-compatible with
// RFC 9000.
package transport

import (
	"math/rand"
	"time"

	"quicspin/internal/core"
)

// Default protocol parameters.
const (
	// MaxDatagramSize is the assumed UDP payload budget (RFC 9000 §14.3
	// conservative default).
	MaxDatagramSize = 1200
	// MinInitialSize is the mandatory minimum size of client Initial
	// datagrams (RFC 9000 §14.1).
	MinInitialSize = 1200
	// DefaultIdleTimeout closes connections with no activity.
	DefaultIdleTimeout = 30 * time.Second
	// DefaultMaxAckDelay is the locally applied ACK batching delay (the RFC
	// 9000 max_ack_delay default).
	DefaultMaxAckDelay = 25 * time.Millisecond
	// ackEveryN acknowledges after every Nth ack-eliciting 1-RTT packet
	// without waiting for DefaultMaxAckDelay (RFC 9000 §13.2.2).
	ackEveryN = 2
	// DefaultConnIDLen is the length of locally issued connection IDs.
	DefaultConnIDLen = 8
	// DefaultMaxInFlight caps ack-eliciting 1-RTT packets in flight (the
	// 10-packet initial congestion window of RFC 9002 §7.2, held static).
	// The cap paces multi-packet responses across round trips, which is
	// what makes the spin bit flip during a download.
	DefaultMaxInFlight = 10
	// packetThreshold is the RFC 9002 §6.1.1 reordering threshold.
	packetThreshold = 3
	// maxAckRanges bounds remembered ACK ranges per packet-number space.
	maxAckRanges = 32
)

// Config parameterises a connection or endpoint. The protocol constants
// above (DefaultMaxAckDelay, ackEveryN, DefaultConnIDLen, DefaultMaxInFlight)
// are the same for every connection.
type Config struct {
	// Rng drives connection IDs and spin-policy randomness. Required.
	Rng *rand.Rand
	// SpinPolicy is the spin-bit behaviour (see core.Policy). The zero
	// value spins on every connection, like the LiteSpeed deployments the
	// paper identifies.
	SpinPolicy core.Policy
	// EnableVEC transports the Valid Edge Counter extension in the
	// reserved bits of short-header packets.
	EnableVEC bool
	// IdleTimeout closes the connection when no packets are exchanged for
	// this long. Zero means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Budget bounds resources spent on received traffic (see Budget). The
	// zero value disables all limits.
	Budget Budget
	// Arena, when non-nil, supplies and takes back the connection's stream,
	// packet and datagram buffers (see Arena). Every connection sharing an
	// arena must be driven from one goroutine. Nil means the heap.
	Arena *Arena
}

func (c Config) idleTimeout() time.Duration {
	if c.IdleTimeout == 0 {
		return DefaultIdleTimeout
	}
	return c.IdleTimeout
}
