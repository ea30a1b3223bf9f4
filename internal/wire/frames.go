package wire

import (
	"errors"
	"fmt"
	"slices"
)

// Frame type identifiers (RFC 9000 §19). STREAM frames occupy the range
// 0x08–0x0f with flag bits OFF/LEN/FIN in the low three bits.
const (
	FrameTypePadding         = 0x00
	FrameTypePing            = 0x01
	FrameTypeAck             = 0x02
	FrameTypeCrypto          = 0x06
	FrameTypeNewToken        = 0x07
	FrameTypeStreamBase      = 0x08
	FrameTypeHandshakeDone   = 0x1e
	FrameTypeConnectionClose = 0x1c

	streamFlagFIN = 0x01
	streamFlagLEN = 0x02
	streamFlagOFF = 0x04
)

// ErrInvalidFrame reports a malformed frame payload.
var ErrInvalidFrame = errors.New("wire: invalid frame")

// Frame is implemented by every QUIC frame this package can encode.
type Frame interface {
	// Append encodes the frame and appends it to b.
	Append(b []byte) []byte
	// AckEliciting reports whether the frame elicits an acknowledgement
	// (everything except ACK and PADDING, RFC 9002 §2).
	AckEliciting() bool
}

// PaddingFrame is a run of n PADDING bytes.
type PaddingFrame struct{ N int }

// Append implements Frame. PADDING's type byte is zero, so the run is
// appended in one step, a clear of the extended tail, allocating only when
// b has no room.
func (f PaddingFrame) Append(b []byte) []byte {
	if f.N <= 0 {
		return b
	}
	n := len(b)
	b = slices.Grow(b, f.N)[:n+f.N]
	clear(b[n:])
	return b
}

// AckEliciting implements Frame.
func (PaddingFrame) AckEliciting() bool { return false }

// PingFrame elicits an acknowledgement.
type PingFrame struct{}

// Append implements Frame.
func (PingFrame) Append(b []byte) []byte { return append(b, FrameTypePing) }

// AckEliciting implements Frame.
func (PingFrame) AckEliciting() bool { return true }

// AckRange is a closed range [Smallest, Largest] of acknowledged packet
// numbers.
type AckRange struct {
	Smallest uint64
	Largest  uint64
}

// AckFrame acknowledges ranges of packet numbers. Ranges are ordered from
// the largest packet number downwards, matching the wire encoding.
type AckFrame struct {
	// Ranges holds at least one range; Ranges[0].Largest is the largest
	// acknowledged packet number.
	Ranges []AckRange
	// DelayMicros is the ACK delay in microseconds (already scaled by the
	// ack_delay_exponent; this implementation pins the exponent to 0... no:
	// we use exponent 3, the RFC default — see AckDelayExponent).
	DelayMicros uint64
}

// AckDelayExponent is the fixed ack_delay_exponent used on the wire
// (the RFC 9000 default of 3, i.e. wire units of 8 µs).
const AckDelayExponent = 3

// Append implements Frame.
func (f *AckFrame) Append(b []byte) []byte {
	if len(f.Ranges) == 0 {
		panic("wire: ACK frame without ranges")
	}
	b = append(b, FrameTypeAck)
	b = AppendVarint(b, f.Ranges[0].Largest)
	b = AppendVarint(b, f.DelayMicros>>AckDelayExponent)
	b = AppendVarint(b, uint64(len(f.Ranges)-1))
	b = AppendVarint(b, f.Ranges[0].Largest-f.Ranges[0].Smallest)
	prevSmallest := f.Ranges[0].Smallest
	for _, r := range f.Ranges[1:] {
		// Gap = number of contiguous unacknowledged packets - 1.
		gap := prevSmallest - r.Largest - 2
		b = AppendVarint(b, gap)
		b = AppendVarint(b, r.Largest-r.Smallest)
		prevSmallest = r.Smallest
	}
	return b
}

// AckEliciting implements Frame.
func (*AckFrame) AckEliciting() bool { return false }

// Largest returns the largest packet number the frame acknowledges.
func (f *AckFrame) Largest() uint64 { return f.Ranges[0].Largest }

// Acks reports whether packet number pn is covered by the frame.
func (f *AckFrame) Acks(pn uint64) bool {
	for _, r := range f.Ranges {
		if pn >= r.Smallest && pn <= r.Largest {
			return true
		}
	}
	return false
}

// CryptoFrame carries handshake data at the given offset.
type CryptoFrame struct {
	Offset uint64
	Data   []byte
}

// Append implements Frame.
func (f *CryptoFrame) Append(b []byte) []byte {
	b = append(b, FrameTypeCrypto)
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// AckEliciting implements Frame.
func (*CryptoFrame) AckEliciting() bool { return true }

// NewTokenFrame delivers an address-validation token for future connections.
type NewTokenFrame struct{ Token []byte }

// Append implements Frame.
func (f *NewTokenFrame) Append(b []byte) []byte {
	b = append(b, FrameTypeNewToken)
	b = AppendVarint(b, uint64(len(f.Token)))
	return append(b, f.Token...)
}

// AckEliciting implements Frame.
func (*NewTokenFrame) AckEliciting() bool { return true }

// StreamFrame carries application data for a stream.
type StreamFrame struct {
	StreamID uint64
	Offset   uint64
	Data     []byte
	Fin      bool
}

// Append implements Frame. It always encodes explicit offset and length so
// frames can be coalesced.
func (f *StreamFrame) Append(b []byte) []byte {
	t := byte(FrameTypeStreamBase | streamFlagOFF | streamFlagLEN)
	if f.Fin {
		t |= streamFlagFIN
	}
	b = append(b, t)
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// AckEliciting implements Frame.
func (*StreamFrame) AckEliciting() bool { return true }

// HandshakeDoneFrame confirms the handshake to the client (server-only).
type HandshakeDoneFrame struct{}

// Append implements Frame.
func (HandshakeDoneFrame) Append(b []byte) []byte { return append(b, FrameTypeHandshakeDone) }

// AckEliciting implements Frame.
func (HandshakeDoneFrame) AckEliciting() bool { return true }

// ConnectionCloseFrame signals connection termination with a transport
// error code (frame type 0x1c).
type ConnectionCloseFrame struct {
	ErrorCode uint64
	FrameType uint64
	Reason    string
}

// Append implements Frame.
func (f *ConnectionCloseFrame) Append(b []byte) []byte {
	b = append(b, FrameTypeConnectionClose)
	b = AppendVarint(b, f.ErrorCode)
	b = AppendVarint(b, f.FrameType)
	b = AppendVarint(b, uint64(len(f.Reason)))
	return append(b, f.Reason...)
}

// AckEliciting implements Frame.
func (*ConnectionCloseFrame) AckEliciting() bool { return false }

// ParseFrames decodes all frames in a packet payload. Runs of PADDING are
// collapsed into a single PaddingFrame.
func ParseFrames(b []byte) ([]Frame, error) {
	var frames []Frame
	for len(b) > 0 {
		f, n, err := parseFrame(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		if p, ok := f.(PaddingFrame); ok {
			if len(frames) > 0 {
				if prev, ok := frames[len(frames)-1].(PaddingFrame); ok {
					frames[len(frames)-1] = PaddingFrame{N: prev.N + p.N}
					continue
				}
			}
		}
		frames = append(frames, f)
	}
	return frames, nil
}

func parseFrame(b []byte) (Frame, int, error) {
	t := b[0]
	switch {
	case t == FrameTypePadding:
		return PaddingFrame{N: 1}, 1, nil
	case t == FrameTypePing:
		return PingFrame{}, 1, nil
	case t == FrameTypeAck:
		return parseAckFrame(b)
	case t == FrameTypeCrypto:
		return parseCryptoFrame(b)
	case t == FrameTypeNewToken:
		return parseNewTokenFrame(b)
	case t >= FrameTypeStreamBase && t < FrameTypeStreamBase+8:
		return parseStreamFrame(b)
	case t == FrameTypeHandshakeDone:
		return HandshakeDoneFrame{}, 1, nil
	case t == FrameTypeConnectionClose:
		return parseConnectionCloseFrame(b)
	default:
		return nil, 0, fmt.Errorf("%w: unknown frame type %#x", ErrInvalidFrame, t)
	}
}

func parseAckFrame(b []byte) (Frame, int, error) {
	f := &AckFrame{}
	n, err := parseAckInto(f, b)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

// parseAckInto decodes an ACK frame into f, reusing f.Ranges' backing array.
func parseAckInto(f *AckFrame, b []byte) (int, error) {
	pos := 1
	largest, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	delay, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	rangeCount, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	firstRange, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if firstRange > largest {
		return 0, fmt.Errorf("%w: ACK first range %d exceeds largest %d", ErrInvalidFrame, firstRange, largest)
	}
	// Every additional range costs at least two varint bytes on the wire,
	// so validate the declared count against the remaining buffer before
	// looping: a hostile 2^62-style count must fail here, not after
	// appending ranges until the buffer runs dry.
	if rangeCount > uint64(len(b)-pos)/2 {
		return 0, fmt.Errorf("%w: ACK range count %d exceeds remaining %d bytes", ErrInvalidFrame, rangeCount, len(b)-pos)
	}
	f.DelayMicros = delay << AckDelayExponent
	f.Ranges = append(f.Ranges[:0], AckRange{Smallest: largest - firstRange, Largest: largest})
	smallest := f.Ranges[0].Smallest
	for i := uint64(0); i < rangeCount; i++ {
		gap, n2, err := ConsumeVarint(b[pos:])
		if err != nil {
			return 0, err
		}
		pos += n2
		length, n2, err := ConsumeVarint(b[pos:])
		if err != nil {
			return 0, err
		}
		pos += n2
		if smallest < gap+2 {
			return 0, fmt.Errorf("%w: ACK gap underflow", ErrInvalidFrame)
		}
		largest := smallest - gap - 2
		if length > largest {
			return 0, fmt.Errorf("%w: ACK range underflow", ErrInvalidFrame)
		}
		smallest = largest - length
		f.Ranges = append(f.Ranges, AckRange{Smallest: smallest, Largest: largest})
	}
	return pos, nil
}

func parseCryptoFrame(b []byte) (Frame, int, error) {
	f := &CryptoFrame{}
	n, err := parseCryptoInto(f, b)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

func parseCryptoInto(f *CryptoFrame, b []byte) (int, error) {
	pos := 1
	off, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	length, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if uint64(len(b)-pos) < length {
		return 0, fmt.Errorf("%w: CRYPTO data", ErrTruncated)
	}
	f.Offset, f.Data = off, b[pos:pos+int(length)]
	return pos + int(length), nil
}

func parseNewTokenFrame(b []byte) (Frame, int, error) {
	f := &NewTokenFrame{}
	n, err := parseNewTokenInto(f, b)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

func parseNewTokenInto(f *NewTokenFrame, b []byte) (int, error) {
	pos := 1
	length, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if length == 0 {
		return 0, fmt.Errorf("%w: empty NEW_TOKEN", ErrInvalidFrame)
	}
	if uint64(len(b)-pos) < length {
		return 0, fmt.Errorf("%w: NEW_TOKEN data", ErrTruncated)
	}
	f.Token = b[pos : pos+int(length)]
	return pos + int(length), nil
}

func parseStreamFrame(b []byte) (Frame, int, error) {
	f := &StreamFrame{}
	n, err := parseStreamInto(f, b)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

func parseStreamInto(f *StreamFrame, b []byte) (int, error) {
	t := b[0]
	pos := 1
	id, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	f.StreamID, f.Offset, f.Fin = id, 0, t&streamFlagFIN != 0
	if t&streamFlagOFF != 0 {
		off, n, err := ConsumeVarint(b[pos:])
		if err != nil {
			return 0, err
		}
		pos += n
		f.Offset = off
	}
	if t&streamFlagLEN != 0 {
		length, n, err := ConsumeVarint(b[pos:])
		if err != nil {
			return 0, err
		}
		pos += n
		if uint64(len(b)-pos) < length {
			return 0, fmt.Errorf("%w: STREAM data", ErrTruncated)
		}
		f.Data = b[pos : pos+int(length)]
		pos += int(length)
	} else {
		f.Data = b[pos:]
		pos = len(b)
	}
	return pos, nil
}

func parseConnectionCloseFrame(b []byte) (Frame, int, error) {
	f := &ConnectionCloseFrame{}
	n, err := parseConnectionCloseInto(f, b)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

func parseConnectionCloseInto(f *ConnectionCloseFrame, b []byte) (int, error) {
	pos := 1
	code, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	ft, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	rl, n, err := ConsumeVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if uint64(len(b)-pos) < rl {
		return 0, fmt.Errorf("%w: CONNECTION_CLOSE reason", ErrTruncated)
	}
	f.ErrorCode, f.FrameType, f.Reason = code, ft, string(b[pos:pos+int(rl)])
	return pos + int(rl), nil
}
