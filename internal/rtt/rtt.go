// Package rtt implements the round-trip-time estimator of RFC 9002 §5.
//
// This estimator is the paper's baseline ("QUIC stack estimate"): it measures
// the time from sending an ack-eliciting packet to receiving the
// acknowledgement for it and subtracts the peer-reported ack_delay, so it
// tracks the network RTT much more closely than the spin bit, which also
// accumulates server processing time.
package rtt

import (
	"fmt"
	"time"
)

// DefaultInitialRTT is the pre-handshake RTT assumption of RFC 9002 §6.2.2.
const DefaultInitialRTT = 333 * time.Millisecond

// Granularity is the timer granularity kGranularity of RFC 9002.
const Granularity = time.Millisecond

// Estimator tracks latest, minimum and smoothed RTT plus variance following
// RFC 9002 §5.3. The zero value is not ready for use; call New.
type Estimator struct {
	hasSample   bool
	latest      time.Duration
	min         time.Duration
	smoothed    time.Duration
	rttvar      time.Duration
	maxAckDelay time.Duration
	samples     []time.Duration // every accepted latest_rtt, for analysis
}

// New returns an Estimator that caps peer ack_delay at maxAckDelay after the
// handshake is confirmed (RFC 9002 §5.3). A zero maxAckDelay uses the RFC
// 9000 default of 25 ms.
func New(maxAckDelay time.Duration) *Estimator {
	e := &Estimator{}
	e.Reset(maxAckDelay)
	return e
}

// Reset returns e to the state New(maxAckDelay) creates, keeping the sample
// list's storage. A Samples result obtained before the call is overwritten by
// the samples that follow it.
func (e *Estimator) Reset(maxAckDelay time.Duration) {
	if maxAckDelay == 0 {
		maxAckDelay = 25 * time.Millisecond
	}
	*e = Estimator{maxAckDelay: maxAckDelay, samples: e.samples[:0]}
}

// Update records an RTT sample. latest is the delay between sending the
// largest newly-acknowledged ack-eliciting packet and receiving the ACK;
// ackDelay is the peer-reported decoding of the ack_delay field;
// handshakeConfirmed selects whether ackDelay is capped at max_ack_delay.
// Non-positive samples are clamped to Granularity.
func (e *Estimator) Update(latest, ackDelay time.Duration, handshakeConfirmed bool) {
	if latest <= 0 {
		latest = Granularity
	}
	e.latest = latest
	if !e.hasSample {
		// First sample (RFC 9002 §5.2).
		e.hasSample = true
		e.min = latest
		e.smoothed = latest
		e.rttvar = latest / 2
		e.samples = append(e.samples, latest)
		return
	}
	if latest < e.min {
		e.min = latest
	}
	if handshakeConfirmed && ackDelay > e.maxAckDelay {
		ackDelay = e.maxAckDelay
	}
	adjusted := latest
	if adjusted >= e.min+ackDelay {
		adjusted -= ackDelay
	}
	diff := e.smoothed - adjusted
	if diff < 0 {
		diff = -diff
	}
	e.rttvar = (3*e.rttvar + diff) / 4
	e.smoothed = (7*e.smoothed + adjusted) / 8
	e.samples = append(e.samples, adjusted)
}

// HasSample reports whether at least one RTT sample has been recorded.
func (e *Estimator) HasSample() bool { return e.hasSample }

// Latest returns the most recent raw RTT sample.
func (e *Estimator) Latest() time.Duration { return e.latest }

// Min returns the minimum observed RTT (min_rtt).
func (e *Estimator) Min() time.Duration {
	if !e.hasSample {
		return DefaultInitialRTT
	}
	return e.min
}

// Smoothed returns the exponentially weighted smoothed RTT.
func (e *Estimator) Smoothed() time.Duration {
	if !e.hasSample {
		return DefaultInitialRTT
	}
	return e.smoothed
}

// Var returns the RTT variance estimate (rttvar).
func (e *Estimator) Var() time.Duration {
	if !e.hasSample {
		return DefaultInitialRTT / 2
	}
	return e.rttvar
}

// PTO returns the probe timeout per RFC 9002 §6.2.1:
// smoothed_rtt + max(4*rttvar, kGranularity) + max_ack_delay.
func (e *Estimator) PTO(includeMaxAckDelay bool) time.Duration {
	v := 4 * e.Var()
	if v < Granularity {
		v = Granularity
	}
	pto := e.Smoothed() + v
	if includeMaxAckDelay {
		pto += e.maxAckDelay
	}
	return pto
}

// Samples returns all accepted (ack-delay-adjusted) RTT samples in arrival
// order. The returned slice aliases internal state and must not be modified.
func (e *Estimator) Samples() []time.Duration { return e.samples }

// Mean returns the mean of all accepted samples, or 0 if none.
func (e *Estimator) Mean() time.Duration {
	if len(e.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range e.samples {
		sum += s
	}
	return sum / time.Duration(len(e.samples))
}

// String summarises the estimator state for logs.
func (e *Estimator) String() string {
	return fmt.Sprintf("rtt{latest=%v min=%v smoothed=%v var=%v n=%d}",
		e.latest, e.Min(), e.Smoothed(), e.Var(), len(e.samples))
}
