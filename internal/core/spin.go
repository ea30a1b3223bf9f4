// Package core implements the subject of the paper: the QUIC latency spin
// bit (RFC 9000 §17.4).
//
// It contains the endpoint-side state machines (the client spins the bit,
// the server reflects it), the configurable spin policies observed in the
// wild (spinning, fixed zero/one, per-packet and per-connection greasing,
// and the RFC-mandated 1-in-N disabling), the passive on-path observer that
// turns spin edges into RTT samples, the RFC 9312 measurement heuristics,
// and the Valid Edge Counter (VEC) extension of De Vaere et al.
package core

import "time"

// Observation is one received short-header packet as seen by an observer or
// logged in a qlog trace: arrival time, packet number, spin-bit value, and
// (for the three-bit extension) the VEC value carried in the reserved bits.
type Observation struct {
	// T is the observation (receive) timestamp.
	T time.Time
	// PN is the QUIC packet number.
	PN uint64
	// Spin is the value of the latency spin bit.
	Spin bool
	// VEC is the Valid Edge Counter (0–3); 0 when the extension is unused.
	VEC uint8
}

// EndpointState is the per-connection spin-bit state machine of one QUIC
// endpoint per RFC 9000 §17.4: each endpoint remembers the spin value of the
// packet with the largest packet number received from its peer; the server
// sends that value back, while the client sends its inverse. The client
// starts the wave at 0.
type EndpointState struct {
	isClient    bool
	value       bool
	largestPN   uint64
	hasReceived bool
}

// NewEndpointState returns the spin state machine for one side of a
// connection. The initial outgoing value is 0 for both roles.
func NewEndpointState(isClient bool) *EndpointState {
	return &EndpointState{isClient: isClient}
}

// Reset returns s to the state NewEndpointState(isClient) creates.
func (s *EndpointState) Reset(isClient bool) {
	*s = EndpointState{isClient: isClient}
}

// OnReceive updates the state machine with an incoming short-header packet.
// Only the packet with the largest packet number seen so far changes the
// state; late (reordered) packets are ignored, as the RFC requires.
func (s *EndpointState) OnReceive(pn uint64, spin bool) {
	if s.hasReceived && pn <= s.largestPN {
		return
	}
	s.hasReceived = true
	s.largestPN = pn
	if s.isClient {
		s.value = !spin
	} else {
		s.value = spin
	}
}

// Value returns the spin value to place on outgoing short-header packets.
func (s *EndpointState) Value() bool { return s.value }

// LargestReceived returns the largest packet number that has updated the
// state, and whether any packet has been received.
func (s *EndpointState) LargestReceived() (uint64, bool) {
	return s.largestPN, s.hasReceived
}
