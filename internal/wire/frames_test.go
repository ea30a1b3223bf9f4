package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrips(t *testing.T) {
	frames := []Frame{
		PingFrame{},
		&AckFrame{Ranges: []AckRange{{Smallest: 5, Largest: 10}}, DelayMicros: 8000},
		&AckFrame{Ranges: []AckRange{{Smallest: 90, Largest: 100}, {Smallest: 10, Largest: 50}}, DelayMicros: 0},
		&CryptoFrame{Offset: 12, Data: []byte("client hello")},
		&NewTokenFrame{Token: []byte{0xde, 0xad}},
		&StreamFrame{StreamID: 0, Offset: 0, Data: []byte("GET /"), Fin: true},
		&StreamFrame{StreamID: 4, Offset: 1000, Data: []byte("body"), Fin: false},
		HandshakeDoneFrame{},
		&ConnectionCloseFrame{ErrorCode: 0x0a, FrameType: FrameTypeStreamBase, Reason: "bye"},
	}
	var buf []byte
	for _, f := range frames {
		buf = f.Append(buf)
	}
	got, err := ParseFrames(buf)
	if err != nil {
		t.Fatalf("ParseFrames: %v", err)
	}
	if len(got) != len(frames) {
		t.Fatalf("got %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !reflect.DeepEqual(got[i], frames[i]) {
			t.Errorf("frame %d: got %#v, want %#v", i, got[i], frames[i])
		}
	}
}

func TestPaddingCollapses(t *testing.T) {
	buf := PaddingFrame{N: 3}.Append(nil)
	buf = PingFrame{}.Append(buf)
	buf = PaddingFrame{N: 2}.Append(buf)
	buf = PaddingFrame{N: 1}.Append(buf)
	got, err := ParseFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Frame{PaddingFrame{N: 3}, PingFrame{}, PaddingFrame{N: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

// A run of n PADDING bytes is n zero bytes after whatever was there, parses
// back as one PaddingFrame{n}, and costs no allocation when the buffer has
// room.
func TestPaddingAppendRun(t *testing.T) {
	prefix := []byte{FrameTypePing}
	buf := make([]byte, 0, 2048)
	for n := 0; n <= 1500; n++ {
		b := PaddingFrame{N: n}.Append(append(buf[:0], prefix...))
		if len(b) != 1+n || b[0] != FrameTypePing {
			t.Fatalf("N=%d: appended %d bytes after the prefix, want %d", n, len(b)-1, n)
		}
		for i, c := range b[1:] {
			if c != 0 {
				t.Fatalf("N=%d: byte %d is %#x, want 0", n, i, c)
			}
		}
		got, err := ParseFrames(b[1:])
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		var want []Frame
		if n > 0 {
			want = []Frame{PaddingFrame{N: n}}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("N=%d: parsed %#v, want %#v", n, got, want)
		}
	}
	// Stale bytes in the buffer's spare capacity must not leak into the run.
	dirty := buf[:cap(buf)]
	for i := range dirty {
		dirty[i] = 0xFF
	}
	if b := (PaddingFrame{N: 1000}).Append(buf[:0]); !bytes.Equal(b, make([]byte, 1000)) {
		t.Fatal("padding over a dirty buffer is not all zero")
	}
	if n := testing.AllocsPerRun(100, func() { PaddingFrame{N: 1500}.Append(buf[:0]) }); n != 0 {
		t.Errorf("PaddingFrame.Append allocates %.1f per run with room in the buffer, want 0", n)
	}
}

func TestAckFrameDelayEncoding(t *testing.T) {
	// Delay is carried in units of 2^AckDelayExponent microseconds, so the
	// decoded value is the encoded one rounded down to a multiple of 8 µs.
	f := &AckFrame{Ranges: []AckRange{{Smallest: 0, Largest: 0}}, DelayMicros: 1235}
	got, err := ParseFrames(f.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	ack := got[0].(*AckFrame)
	if ack.DelayMicros != 1232 {
		t.Errorf("delay = %d µs, want 1232", ack.DelayMicros)
	}
}

func TestAckFrameAcks(t *testing.T) {
	f := &AckFrame{Ranges: []AckRange{{Smallest: 90, Largest: 100}, {Smallest: 10, Largest: 50}}}
	for _, c := range []struct {
		pn   uint64
		want bool
	}{{9, false}, {10, true}, {50, true}, {51, false}, {89, false}, {90, true}, {100, true}, {101, false}} {
		if got := f.Acks(c.pn); got != c.want {
			t.Errorf("Acks(%d) = %v, want %v", c.pn, got, c.want)
		}
	}
	if f.Largest() != 100 {
		t.Errorf("Largest = %d", f.Largest())
	}
}

func TestAckEliciting(t *testing.T) {
	cases := []struct {
		f    Frame
		want bool
	}{
		{PaddingFrame{N: 1}, false},
		{PingFrame{}, true},
		{&AckFrame{Ranges: []AckRange{{0, 0}}}, false},
		{&CryptoFrame{}, true},
		{&StreamFrame{}, true},
		{HandshakeDoneFrame{}, true},
		{&ConnectionCloseFrame{}, false},
		{&NewTokenFrame{Token: []byte{1}}, true},
	}
	for _, c := range cases {
		if got := c.f.AckEliciting(); got != c.want {
			t.Errorf("%T.AckEliciting() = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestParseFramesErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"unknown type", []byte{0xff}},
		{"truncated crypto", []byte{FrameTypeCrypto, 0x00, 0x05, 'h', 'i'}},
		{"truncated stream", []byte{FrameTypeStreamBase | 0x02, 0x00, 0x09, 'x'}},
		{"ack range underflow", []byte{FrameTypeAck, 0x05, 0x00, 0x00, 0x09}},
		{"empty new token", []byte{FrameTypeNewToken, 0x00}},
		{"truncated close reason", []byte{FrameTypeConnectionClose, 0x00, 0x00, 0x08, 'a'}},
	}
	for _, c := range cases {
		if _, err := ParseFrames(c.data); err == nil {
			t.Errorf("%s: ParseFrames(%x) succeeded", c.name, c.data)
		}
	}
}

func TestAckFrameQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nRanges uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRanges%8) + 1
		// Build descending, non-adjacent ranges.
		ranges := make([]AckRange, 0, n)
		next := uint64(1_000_000)
		for i := 0; i < n; i++ {
			largest := next
			smallest := largest - uint64(r.Intn(50))
			ranges = append(ranges, AckRange{Smallest: smallest, Largest: largest})
			if smallest < 100 {
				break
			}
			next = smallest - 2 - uint64(r.Intn(50))
		}
		in := &AckFrame{Ranges: ranges, DelayMicros: uint64(r.Intn(100000)) &^ 7}
		out, err := ParseFrames(in.Append(nil))
		if err != nil || len(out) != 1 {
			return false
		}
		return reflect.DeepEqual(out[0], in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestStreamFrameQuickRoundTrip(t *testing.T) {
	f := func(id, off uint32, data []byte, fin bool) bool {
		in := &StreamFrame{StreamID: uint64(id), Offset: uint64(off), Data: data, Fin: fin}
		out, err := ParseFrames(in.Append(nil))
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0].(*StreamFrame)
		return got.StreamID == in.StreamID && got.Offset == in.Offset &&
			got.Fin == in.Fin && bytes.Equal(got.Data, in.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseFramesTypical(b *testing.B) {
	var buf []byte
	buf = (&AckFrame{Ranges: []AckRange{{Smallest: 1, Largest: 30}}, DelayMicros: 800}).Append(buf)
	buf = (&StreamFrame{StreamID: 0, Offset: 4096, Data: make([]byte, 1024)}).Append(buf)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseFrames(buf); err != nil {
			b.Fatal(err)
		}
	}
}
