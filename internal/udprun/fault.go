package udprun

import (
	"net"
	"time"

	"quicspin/internal/fault"
)

// FaultConn wraps a PacketConn and applies a fault plan's udp rules to
// every WriteTo: each outbound datagram is independently dropped,
// duplicated, bit-flipped or held back. Reads pass through untouched, so
// wrapping both peers of an exchange subjects both directions to loss,
// duplication, corruption and reordering (a delayed datagram is overtaken
// by later undelayed ones) — which is how the shard collector exchange is
// chaos-tested without leaving the process. Safe for concurrent use.
//
// The transports above are expected to absorb every fault
// (retransmission, dedup, CRC framing); fault injection must never change
// what the application layer finally agrees on — only how hard the
// exchange has to work for it.
type FaultConn struct {
	net.PacketConn

	plan *fault.Plan
	// label is the fault target: it names this socket in the plan.
	label string
}

// NewFaultConn wraps pc with the plan's udp faults, naming the socket
// label.
func NewFaultConn(pc net.PacketConn, plan *fault.Plan, label string) *FaultConn {
	return &FaultConn{PacketConn: pc, plan: plan, label: label}
}

// WriteTo applies the fault plan to one datagram. A dropped datagram
// still reports success — from the sender's perspective it went out and
// the network ate it.
func (f *FaultConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	n := f.plan.Next(fault.UDP)
	hit := func(kind fault.Kind) bool { return f.plan.Hit(fault.UDP, kind, f.label, n) }
	if hit(fault.Drop) {
		return len(b), nil
	}
	data := b
	if len(b) > 0 && hit(fault.Corrupt) {
		// Exactly one flipped bit: always detectable by the CRC framing
		// above this layer.
		bit := f.plan.Draw(fault.UDP, fault.Corrupt, f.label, n, len(b)*8)
		data = append([]byte(nil), b...)
		data[bit/8] ^= 1 << (bit % 8)
	}
	copies := 1
	if hit(fault.Dup) {
		copies = 2
	}
	if hit(fault.Delay) {
		// The held-back copy is written from a timer goroutine; a send on
		// a socket closed in the meantime just errors and is discarded,
		// like any datagram still in flight when its sender dies.
		held := append([]byte(nil), data...)
		holdFor := time.Duration(1 + f.plan.Draw(fault.UDP, fault.Delay, f.label, n, int(f.plan.MaxDelay)))
		time.AfterFunc(holdFor, func() {
			for i := 0; i < copies; i++ {
				_, _ = f.PacketConn.WriteTo(held, addr)
			}
		})
		return len(b), nil
	}
	for i := 0; i < copies; i++ {
		if _, err := f.PacketConn.WriteTo(data, addr); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}
