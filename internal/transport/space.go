package transport

import (
	"time"

	"quicspin/internal/wire"
)

// spaceID identifies a packet-number space (RFC 9000 §12.3).
type spaceID int

const (
	spaceInitial spaceID = iota
	spaceHandshake
	spaceAppData
	numSpaces
)

func (s spaceID) String() string {
	switch s {
	case spaceInitial:
		return "initial"
	case spaceHandshake:
		return "handshake"
	case spaceAppData:
		return "1RTT"
	default:
		return "?"
	}
}

// frameKind is the type of a frame on the send path.
type frameKind uint8

const (
	// frameAck stands for the connection's one outgoing ACK (Conn.ackScratch,
	// filled by framesFor just before it is encoded); never retransmitted.
	frameAck frameKind = iota
	frameCrypto
	frameStream
	frameHandshakeDone
	framePing
)

// sendFrame is one frame of an outgoing packet, held by value: framesFor's
// list, a sentPacket's retransmittable frames and the retransmit queue are
// arrays of these, so a frame lives exactly as long as the record holding it
// and the send path allocates no frame structs. data aliases the send
// stream's buffer (or the shared handshake transcript).
type sendFrame struct {
	kind     frameKind
	fin      bool   // STREAM
	streamID uint64 // STREAM
	offset   uint64 // CRYPTO, STREAM
	data     []byte // CRYPTO, STREAM
}

// sentPacket records an in-flight packet for loss recovery.
type sentPacket struct {
	pn           uint64
	sentAt       time.Time
	ackEliciting bool
	size         int
	// frames are the retransmittable frames carried (CRYPTO/STREAM/
	// HANDSHAKE_DONE/PING); ACK and PADDING are never retransmitted.
	frames []sendFrame
	// declared marks packets already handled (acked or lost).
	declared bool
}

// recvState tracks received packet numbers for ACK generation in one space.
type recvState struct {
	// ranges is kept sorted descending by Largest, merged on insert.
	ranges []wire.AckRange
	// largest and largestAt record the largest packet number and arrival
	// time, feeding the ack_delay field.
	largest     uint64
	largestAt   time.Time
	hasReceived bool
	// ackQueued requests an ACK at the next Poll; ackDeadline is the
	// latest send time under the delayed-ACK rules.
	ackQueued      bool
	ackDeadline    time.Time
	unackedElicits int
}

// record notes a received packet number and reports whether it is new.
func (r *recvState) record(pn uint64, now time.Time) bool {
	if !r.hasReceived || pn > r.largest {
		r.largest = pn
		r.largestAt = now
		r.hasReceived = true
	}
	// Insert into ranges.
	for i := range r.ranges {
		rg := &r.ranges[i]
		if pn >= rg.Smallest && pn <= rg.Largest {
			return false // duplicate
		}
		if pn == rg.Largest+1 {
			rg.Largest = pn
			if i > 0 && r.ranges[i-1].Smallest == pn+1 {
				r.ranges[i-1].Smallest = rg.Smallest
				r.ranges = append(r.ranges[:i], r.ranges[i+1:]...)
			}
			return true
		}
		if pn+1 == rg.Smallest {
			rg.Smallest = pn
			if i+1 < len(r.ranges) && r.ranges[i+1].Largest+1 == pn {
				rg.Smallest = r.ranges[i+1].Smallest
				r.ranges = append(r.ranges[:i+1], r.ranges[i+2:]...)
			}
			return true
		}
		if pn > rg.Largest {
			// New standalone range before index i.
			r.ranges = append(r.ranges, wire.AckRange{})
			copy(r.ranges[i+1:], r.ranges[i:])
			r.ranges[i] = wire.AckRange{Smallest: pn, Largest: pn}
			r.trim()
			return true
		}
	}
	r.ranges = append(r.ranges, wire.AckRange{Smallest: pn, Largest: pn})
	r.trim()
	return true
}

// trim drops the oldest (smallest) ranges beyond the bookkeeping cap.
func (r *recvState) trim() {
	if len(r.ranges) > maxAckRanges {
		r.ranges = r.ranges[:maxAckRanges]
	}
}

// ackFrame builds the ACK frame for this space, or nil if nothing received.
func (r *recvState) ackFrame(now time.Time) *wire.AckFrame {
	f := &wire.AckFrame{}
	if !r.ackFrameInto(f, now) {
		return nil
	}
	return f
}

// ackFrameInto fills f with this space's ACK (reusing f.Ranges' backing
// array) and reports whether anything was received to acknowledge.
func (r *recvState) ackFrameInto(f *wire.AckFrame, now time.Time) bool {
	if len(r.ranges) == 0 {
		return false
	}
	delay := now.Sub(r.largestAt)
	if delay < 0 {
		delay = 0
	}
	f.Ranges = append(f.Ranges[:0], r.ranges...)
	f.DelayMicros = uint64(delay / time.Microsecond)
	return true
}

// sendState tracks sent packets awaiting acknowledgement in one space.
type sendState struct {
	nextPN       uint64
	largestAcked uint64
	hasAcked     bool
	inFlight     []*sentPacket
	// free recycles declared sentPacket records (and their frames backing
	// arrays) dropped by compact.
	free []*sentPacket
}

// take returns a recycled or fresh sentPacket with an empty frames slice.
func (s *sendState) take() *sentPacket {
	n := len(s.free)
	if n == 0 {
		return &sentPacket{}
	}
	p := s.free[n-1]
	s.free = s.free[:n-1]
	return p
}

func (s *sendState) largestAckedOrSentinel() uint64 {
	if !s.hasAcked {
		return wire.NoAckedPacket
	}
	return s.largestAcked
}

// oldestUnacked returns the earliest-sent ack-eliciting in-flight packet.
func (s *sendState) oldestUnacked() *sentPacket {
	for _, p := range s.inFlight {
		if !p.declared && p.ackEliciting {
			return p
		}
	}
	return nil
}

// compact drops declared packets from the in-flight list, recycling their
// records (emptied but for the frames array). Callers must not hold on to a
// declared *sentPacket across a compact call.
func (s *sendState) compact() {
	out := s.inFlight[:0]
	for _, p := range s.inFlight {
		if !p.declared {
			out = append(out, p)
			continue
		}
		clear(p.frames) // do not pin stream buffers
		*p = sentPacket{frames: p.frames[:0]}
		s.free = append(s.free, p)
	}
	clear(s.inFlight[len(out):])
	s.inFlight = out
}

// discard forgets every in-flight packet (the space's keys are gone, or the
// connection is being reset), keeping the records for reuse.
func (s *sendState) discard() {
	for _, p := range s.inFlight {
		p.declared = true
	}
	s.compact()
}
