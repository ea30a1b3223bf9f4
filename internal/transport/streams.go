package transport

import (
	"cmp"
	"slices"
)

// sendStream buffers outgoing application data for one stream.
type sendStream struct {
	data   []byte
	base   uint64 // offset of data[0] in the stream
	next   uint64 // next offset to transmit
	fin    bool
	finSet bool
	// finSent tracks whether the FIN has been packetised at least once.
	finSent bool
}

// pending returns the next chunk to send (up to max bytes) and its offset,
// plus whether the chunk carries the FIN. ok is false when nothing remains.
func (s *sendStream) pending(max int) (data []byte, offset uint64, fin, ok bool) {
	avail := s.base + uint64(len(s.data)) - s.next
	if avail == 0 {
		if s.finSet && !s.finSent {
			s.finSent = true
			return nil, s.next, true, true
		}
		return nil, 0, false, false
	}
	n := int(avail)
	if n > max {
		n = max
	}
	start := s.next - s.base
	chunk := s.data[start : start+uint64(n)]
	offset = s.next
	s.next += uint64(n)
	fin = s.finSet && s.next == s.base+uint64(len(s.data))
	if fin {
		s.finSent = true
	}
	return chunk, offset, fin, true
}

// segment is a received stream chunk pending reassembly.
type segment struct {
	offset uint64
	data   []byte
}

// recvStream reassembles incoming stream data.
type recvStream struct {
	delivered []byte // contiguous prefix ready for the application
	nextOff   uint64 // offset after delivered bytes
	// segments are the out-of-order chunks beyond nextOff, sorted by offset.
	segments []segment
	finOff   uint64
	hasFin   bool
	// accepted marks a completed stream Conn.AcceptStream has handed out.
	accepted bool
}

// push inserts a received frame and advances the contiguous prefix. A frame
// that continues the prefix is appended to it directly; only a frame beyond
// a gap is copied, into a buffer of m that goes back once it is delivered.
func (r *recvStream) push(m *bufs, offset uint64, data []byte, fin bool) {
	end := offset + uint64(len(data))
	if fin {
		r.hasFin = true
		r.finOff = end
	}
	if len(data) == 0 || end <= r.nextOff {
		return // nothing new
	}
	if offset > r.nextOff {
		i, _ := slices.BinarySearchFunc(r.segments, offset, func(s segment, off uint64) int {
			return cmp.Compare(s.offset, off)
		})
		r.segments = slices.Insert(r.segments, i, segment{offset: offset, data: append(m.arena.get(len(data)), data...)})
		return
	}
	r.delivered = m.append(r.delivered, data[r.nextOff-offset:])
	r.nextOff = end
	// Deliver the queued segments the frame has joined up with.
	n := 0
	for ; n < len(r.segments) && r.segments[n].offset <= r.nextOff; n++ {
		seg := r.segments[n]
		if segEnd := seg.offset + uint64(len(seg.data)); segEnd > r.nextOff {
			r.delivered = m.append(r.delivered, seg.data[r.nextOff-seg.offset:])
			r.nextOff = segEnd
		}
		m.arena.put(seg.data)
	}
	r.segments = slices.Delete(r.segments, 0, n)
}

// complete reports whether all data up to the FIN has arrived.
func (r *recvStream) complete() bool {
	return r.hasFin && r.nextOff >= r.finOff && len(r.segments) == 0
}

// release returns the stream's buffers to m's arena.
func (r *recvStream) release(m *bufs) {
	m.arena.put(r.delivered)
	for _, seg := range r.segments {
		m.arena.put(seg.data)
	}
	clear(r.segments)
	r.delivered, r.segments = nil, r.segments[:0]
}
