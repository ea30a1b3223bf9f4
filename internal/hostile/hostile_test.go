package hostile

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

// TestAssignDeterministicAndUniform checks that Assign is a pure function
// of (seed, addr, frac), hits roughly the requested fraction over a
// sequential address population (the shape websim allocates), and covers
// every profile.
func TestAssignDeterministicAndUniform(t *testing.T) {
	const seed, frac = 20230515, 0.3
	hostileN := 0
	seen := map[Profile]int{}
	for i := 0; i < 4000; i++ {
		addr := fmt.Sprintf("%d.%d.0.1", 32+i/256, i%256)
		p := Assign(seed, addr, frac)
		if again := Assign(seed, addr, frac); again != p {
			t.Fatalf("Assign(%q) not deterministic: %v then %v", addr, p, again)
		}
		if Assign(seed, addr, 0) != None {
			t.Fatalf("Assign(%q, frac=0) must be None", addr)
		}
		if p == None {
			continue
		}
		hostileN++
		seen[p]++
	}
	share := float64(hostileN) / 4000
	if share < 0.25 || share > 0.35 {
		t.Errorf("hostile share %.3f over sequential addresses, want ~0.30", share)
	}
	for _, p := range Profiles() {
		if seen[p] == 0 {
			t.Errorf("profile %s never assigned over 4000 sequential addresses", p)
		}
	}
}

// TestProfileOfRoundTrip checks that every profile survives both error-text
// encodings, and that non-hostile strings map to None.
func TestProfileOfRoundTrip(t *testing.T) {
	for _, p := range Profiles() {
		if got := ProfileOf(ErrText(p)); got != p {
			t.Errorf("ProfileOf(ErrText(%s)) = %s", p, got)
		}
	}
	budgetKinds := map[string]Profile{
		transport.BudgetRecvBytes:         PacketStorm,
		transport.BudgetRecvPackets:       PacketStorm,
		transport.BudgetMalformedDatagram: MalformedHeader,
		transport.BudgetMalformedFrame:    MalformedFrames,
	}
	for kind, want := range budgetKinds {
		if got := ProfileOf(BudgetErrText(kind)); got != want {
			t.Errorf("ProfileOf(BudgetErrText(%s)) = %s, want %s", kind, got, want)
		}
	}
	for _, s := range []string{"", "timeout: no response", "hostile: nonsense: x", "panic: oops"} {
		if got := ProfileOf(s); got != None {
			t.Errorf("ProfileOf(%q) = %s, want none", s, got)
		}
	}
}

// shortPacket builds a valid short-header packet with the transport's
// default CID length, the given packet number and spin value, and a PING
// payload.
func shortPacket(t *testing.T, pn uint64, spin bool) []byte {
	t.Helper()
	h := &wire.Header{
		DstConnID:    wire.NewConnectionID([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
		PacketNumber: pn,
		SpinBit:      spin,
	}
	b, err := wire.AppendShortHeader(nil, h, []byte{0x01}, wire.NoAckedPacket)
	if err != nil {
		t.Fatalf("short packet: %v", err)
	}
	return b
}

func longPacket(t *testing.T) []byte {
	t.Helper()
	h := &wire.Header{
		IsLong: true, Type: wire.TypeInitial, Version: wire.Version1,
		DstConnID: wire.NewConnectionID([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
		SrcConnID: wire.NewConnectionID([]byte{9, 9, 9, 9, 9, 9, 9, 9}),
	}
	b, err := wire.AppendLongHeader(nil, h, []byte{0x01}, wire.NoAckedPacket)
	if err != nil {
		t.Fatalf("long packet: %v", err)
	}
	return b
}

func TestManglerMalformedHeader(t *testing.T) {
	m := NewMangler(MalformedHeader)
	out := m(shortPacket(t, 7, false))
	if len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("short header not truncated to 3 bytes: %d datagrams, len %d", len(out), len(out[0]))
	}
	long := longPacket(t)
	out = m(long)
	if len(out) != 1 || len(out[0]) != len(long) {
		t.Fatal("long header must pass through untouched")
	}
}

func TestManglerMalformedFrames(t *testing.T) {
	m := NewMangler(MalformedFrames)
	pkt := shortPacket(t, 7, false)
	out := m(pkt)
	if len(out) != 1 {
		t.Fatalf("got %d datagrams", len(out))
	}
	_, payload, _, err := wire.ParseHeader(out[0], transport.DefaultConnIDLen, wire.NoAckedPacket)
	if err != nil {
		t.Fatalf("mangled packet must still parse as a header: %v", err)
	}
	if len(payload) == 0 || payload[0] != 0x1f {
		t.Fatalf("first frame byte = %#x, want 0x1f", payload[0])
	}
	if _, err := wire.ParseFrames(payload); err == nil {
		t.Fatal("0x1f frame must fail frame parsing")
	}
}

// TestManglerSpinRewrite checks both spin manglers produce spin as an exact
// function of the packet's own truncated packet number.
func TestManglerSpinRewrite(t *testing.T) {
	for _, tc := range []struct {
		profile Profile
		want    func(pn uint64) bool
	}{
		{SpinFlap, func(pn uint64) bool { return pn&1 == 1 }},
		{SpinLiar, func(pn uint64) bool { return (pn>>1)&1 == 1 }},
	} {
		m := NewMangler(tc.profile)
		for pn := uint64(0); pn < 16; pn++ {
			out := m(shortPacket(t, pn, pn%3 == 0))
			if len(out) != 1 {
				t.Fatalf("%s: got %d datagrams", tc.profile, len(out))
			}
			h, _, _, err := wire.ParseHeader(out[0], transport.DefaultConnIDLen, wire.NoAckedPacket)
			if err != nil {
				t.Fatalf("%s: rewritten packet unparseable: %v", tc.profile, err)
			}
			if h.SpinBit != tc.want(pn) {
				t.Errorf("%s: pn %d spin = %v, want %v", tc.profile, pn, h.SpinBit, tc.want(pn))
			}
		}
	}
}

func TestManglerSlowloris(t *testing.T) {
	m := NewMangler(Slowloris)
	if out := m(shortPacket(t, 3, true)); out != nil {
		t.Fatal("slowloris must drop short-header traffic")
	}
	out := m(longPacket(t))
	if len(out) != 1 {
		t.Fatalf("got %d datagrams", len(out))
	}
	h, payload, _, err := wire.ParseHeader(out[0], transport.DefaultConnIDLen, wire.NoAckedPacket)
	if err != nil {
		t.Fatalf("replacement packet unparseable: %v", err)
	}
	if !h.IsLong || h.Type != wire.TypeHandshake {
		t.Fatalf("replacement is not a Handshake long header: %+v", h)
	}
	frames, err := wire.ParseFrames(payload)
	if err != nil {
		t.Fatalf("replacement payload: %v", err)
	}
	for _, fr := range frames {
		if _, ok := fr.(wire.PaddingFrame); !ok {
			t.Fatalf("replacement payload carries %T, want padding only", fr)
		}
	}
}

func TestManglerPacketStorm(t *testing.T) {
	m := NewMangler(PacketStorm)
	first := m(shortPacket(t, 1, false))
	if len(first) != StormCopies {
		t.Fatalf("first datagram amplified into %d copies, want %d", len(first), StormCopies)
	}
	second := m(shortPacket(t, 2, false))
	if len(second) != 1 {
		t.Fatalf("second datagram amplified into %d copies, want pass-through", len(second))
	}
}

func TestManglerSiteProfilesNil(t *testing.T) {
	for _, p := range []Profile{None, OversizedBody, HeaderFlood, QlogGarbage, MidstreamReset} {
		if NewMangler(p) != nil {
			t.Errorf("NewMangler(%s) must be nil (site-level profile)", p)
		}
	}
}

// obsSeries builds an observation series with the given spin function and
// inter-packet spacing.
func obsSeries(n int, gap time.Duration, spin func(pn uint64) bool) []core.Observation {
	base := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	out := make([]core.Observation, n)
	for i := range out {
		pn := uint64(i)
		out[i] = core.Observation{T: base.Add(time.Duration(i) * gap), PN: pn, Spin: spin(pn)}
	}
	return out
}

func TestDetectSpinPattern(t *testing.T) {
	burst := 50 * time.Microsecond // in-burst packet spacing, far below fastFlipMax
	flap := func(pn uint64) bool { return pn&1 == 1 }
	liar := func(pn uint64) bool { return (pn >> 1 & 1) == 1 }
	honest := func(pn uint64) bool { return pn/6%2 == 1 } // edges every ~6 packets

	if got := DetectSpinPattern(obsSeries(8, burst, flap)); got != SpinFlap {
		t.Errorf("flap series = %s, want spin-flap", got)
	}
	if got := DetectSpinPattern(obsSeries(8, burst, liar)); got != SpinLiar {
		t.Errorf("liar series = %s, want spin-liar", got)
	}
	// An honest endpoint flips at RTT cadence: edges are whole RTTs apart,
	// so even a parity-looking pattern without a fast flip stays None.
	if got := DetectSpinPattern(obsSeries(8, 5*time.Millisecond, flap)); got != None {
		t.Errorf("slow parity series = %s, want none (no fast flip)", got)
	}
	if got := DetectSpinPattern(obsSeries(24, burst, honest)); got != None {
		t.Errorf("honest series = %s, want none", got)
	}
	if got := DetectSpinPattern(obsSeries(3, burst, flap)); got != None {
		t.Errorf("3-observation series = %s, want none (too short)", got)
	}
	// Duplicate packet numbers (network duplication) must not fake edges.
	dup := obsSeries(8, burst, flap)
	dup = append(dup, dup...)
	if got := DetectSpinPattern(dup); got != SpinFlap {
		t.Errorf("duplicated flap series = %s, want spin-flap", got)
	}
}

func TestInspectStream(t *testing.T) {
	for _, p := range []Profile{OversizedBody, HeaderFlood, QlogGarbage} {
		data := ResponseBytes(p, "h2o")
		if got := InspectStream(data); got != p {
			t.Errorf("InspectStream(ResponseBytes(%s)) = %s", p, got)
		}
	}
	// Partial deliveries: the qlog signature is visible from the first
	// byte; the flood only once the unterminated prefix exceeds the budget.
	if got := InspectStream(ResponseBytes(QlogGarbage, "h2o")[:4]); got != QlogGarbage {
		t.Errorf("qlog prefix = %s, want qlog-garbage", got)
	}
	flood := ResponseBytes(HeaderFlood, "h2o")
	if got := InspectStream(flood[:1024]); got != None {
		t.Errorf("short flood prefix = %s, want none (still within budget)", got)
	}
	if got := InspectStream(flood[:MaxInspectHeaderBytes+1024]); got != HeaderFlood {
		t.Errorf("long flood prefix = %s, want header-flood", got)
	}
	// Honest responses must never be flagged, including large-but-legal
	// bodies and partially delivered ones.
	honest := h3.EncodeResponse(&h3.Response{
		Status:  200,
		Headers: map[string]string{"server": "h2o", "x-padding": strings.Repeat("z", 200)},
		Body:    []byte(strings.Repeat("body", 1000)),
	})
	for _, n := range []int{1, 8, len(honest) / 2, len(honest)} {
		if got := InspectStream(honest[:n]); got != None {
			t.Errorf("honest response prefix [%d] = %s, want none", n, got)
		}
	}
	if got := InspectStream(nil); got != None {
		t.Errorf("empty stream = %s, want none", got)
	}
}

// oracleInspectStream is InspectStream as it read content-length before it
// parsed the number over the byte slice: strings.Split of the head and
// fmt.Sscanf. FuzzInspectStream holds InspectStream to it.
func oracleInspectStream(data []byte) Profile {
	if len(data) == 0 {
		return None
	}
	proto := []byte(h3.Proto)
	n := min(len(proto), len(data))
	if !bytes.Equal(data[:n], proto[:n]) {
		if data[0] == '{' || data[0] == 0x1e {
			return QlogGarbage
		}
		return None
	}
	if i := bytes.Index(data, []byte("\n\n")); i >= 0 {
		for _, line := range strings.Split(string(data[:i]), "\n") {
			v, ok := strings.CutPrefix(line, "content-length: ")
			if !ok {
				continue
			}
			var clen int64
			if _, err := fmt.Sscanf(v, "%d", &clen); err == nil && clen > MaxDeclaredBody {
				return OversizedBody
			}
		}
		return None
	}
	if len(data) > MaxInspectHeaderBytes {
		return HeaderFlood
	}
	return None
}

// FuzzInspectStream checks that InspectStream classifies every stream as
// the Sscanf reference does, from the profiles' own bytes to mangled
// content-length values.
func FuzzInspectStream(f *testing.F) {
	for _, p := range []Profile{OversizedBody, HeaderFlood, QlogGarbage} {
		f.Add(ResponseBytes(p, "h2o"))
	}
	for _, v := range []string{
		"524289", "524288", "+600000", "-600000", " \t600000x", " 600000", "  +9",
		"9223372036854775807", "9223372036854775808", "99999999999999999999", "", "+", "x1", "\xff600000",
		"600000\r", "0x90000", "600_000", "\u2003600000", "\u00a0+600000", "\u200b600000",
	} {
		f.Add([]byte(h3.Proto + " 200\nserver: a\ncontent-length: " + v + "\n\nbody"))
	}
	f.Add([]byte(h3.Proto + " 200\ncontent-length: 1\ncontent-length: 700000\n\n"))
	f.Add([]byte(h3.Proto[:4]))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := InspectStream(data), oracleInspectStream(data); got != want {
			t.Fatalf("InspectStream(%q) = %s, reference %s", data, got, want)
		}
	})
}

// InspectStream runs on every delivery of a response stream, so it
// allocates nothing, whatever the stream holds.
func TestInspectStreamAllocs(t *testing.T) {
	honest := h3.EncodeResponse(&h3.Response{Status: 200, Headers: map[string]string{"server": "h2o"}, Body: make([]byte, 4096)})
	for _, data := range [][]byte{honest, ResponseBytes(OversizedBody, "h2o"), ResponseBytes(HeaderFlood, "h2o")} {
		if n := testing.AllocsPerRun(50, func() { InspectStream(data) }); n != 0 {
			t.Errorf("InspectStream(%.20q…) allocates %.1f times, want 0", data, n)
		}
	}
}
